// Width-generic body of the Rognes inter-sequence kernel (round 2).
//
// Templated over any 16-bit vector type V satisfying the simd16.h interface
// contract: V::kLanes database sequences are aligned against the query
// simultaneously, one per lane. Lanes are fully independent DP matrices, so
// per-sequence scores and overflow flags do not depend on the batch width —
// only throughput does. kernel_backend_*.cpp instantiate this at each
// compiled width.
//
// The inner loop is the SWIPE "database profile" formulation: instead of
// gathering one score per lane per cell (kLanes scalar loads for every DP
// cell — the round-1 bottleneck that left interseq 6-10x behind striped8),
// each database column j first materializes a dprofile of
// alphabet_size x kLanes scores, and the query loop then issues ONE vector
// load per cell: dprofile + q[i]*kLanes. The dprofile build costs
// O(alphabet x lanes) per column; the loop it feeds runs m iterations with
// m >> alphabet (360 vs 24 in the bench), so per-cell cost drops from
// kLanes scalar loads to one vector load.
//
// Lane batching: sequences are processed longest-first so all lanes of a
// group retire together (the occupancy fix from Rognes' SWIPE and Rucci et
// al.'s KNL study). When the caller already supplies length-sorted views —
// the saturated records of a chunk from a sorting engine — the kernel
// detects the order with one O(n) scan and skips its own sort entirely:
// the steady-state refill path performs no allocation and no sorting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>

#include "align/kernel_interseq.h"
#include "align/scratch.h"

namespace swdual::align {

inline constexpr std::int16_t kInterSeqPadScore = -30000;

template <class V>
InterSeqResult interseq_scores_impl(std::span<const std::uint8_t> query,
                                    const SequenceViews& db,
                                    const ScoringScheme& scheme) {
  constexpr std::size_t kL = V::kLanes;
  InterSeqResult result;
  result.scores.assign(db.size(), 0);
  result.overflow.assign(db.size(), false);
  for (const auto& seq : db) {
    result.cells += static_cast<std::uint64_t>(query.size()) * seq.size();
  }
  if (query.empty() || db.empty()) return result;

  const ScoreMatrix& matrix = *scheme.matrix;
  const std::size_t m = query.size();
  const std::size_t asize = matrix.size();
  // Sequence positions past a lane's end use one synthetic residue code
  // (== asize): an extra column in every substitution row holding the pad
  // score, so padding needs no branch in the dprofile build.
  const std::uint8_t pad_code = static_cast<std::uint8_t>(asize);

  AlignScratch& scratch = thread_scratch();

  // One per-thread workspace with a fixed layout: the column's lane codes,
  // the substitution rows, the per-column database profile, then the H/E
  // cells interleaved per query row. Every load and store of the hot loops
  // thus sits at a fixed offset from the others. With separately allocated
  // buffers (and the codes on the stack) the scan time depended on where
  // the heap happened to place them: the same 600-record scan took anywhere
  // from 2.8 to 4.2 ms on one host. Each region starts on a whole vector.
  const std::size_t ext_size = (asize * (asize + 1) + kL - 1) / kL * kL;
  const std::size_t dprofile_size = asize * kL;
  std::int16_t* const workspace = scratch.interseq_workspace(
      kL + ext_size + dprofile_size + 2 * m * kL);
  // This column's database residue per lane.
  std::uint8_t* const codes = reinterpret_cast<std::uint8_t*>(workspace);

  // Substitution rows widened to int16 with the pad column appended:
  // ext_rows[a * (asize+1) + c] == S(a, c), and the pad score at c == asize.
  std::int16_t* const ext_rows = workspace + kL;
  for (std::size_t a = 0; a < asize; ++a) {
    const std::int8_t* row = matrix.row(static_cast<std::uint8_t>(a));
    std::int16_t* dst = ext_rows + a * (asize + 1);
    for (std::size_t c = 0; c < asize; ++c) dst[c] = row[c];
    dst[asize] = kInterSeqPadScore;
  }

  // Process longest-first so lanes in a group have similar lengths and the
  // padded tail (pure overhead) stays short — the batching strategy of
  // CUDASW++ and SWIPE. Callers that deliver pre-sorted batches (the
  // sorting engines' chunks) skip the sort: the order buffer is
  // thread-local and the identity fill is O(n).
  AlignedVector<std::uint32_t>& order = scratch.interseq_order();
  order.resize(db.size());
  std::iota(order.begin(), order.end(), 0u);
  bool presorted = true;
  for (std::size_t i = 1; i < db.size(); ++i) {
    if (db[i - 1].size() < db[i].size()) {
      presorted = false;
      break;
    }
  }
  if (!presorted) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return db[a].size() > db[b].size();
                     });
  }

  const V v_gap_extend =
      V::splat(static_cast<std::int16_t>(scheme.gap.extend));
  const V v_gap_open_extend = V::splat(
      static_cast<std::int16_t>(scheme.gap.open + scheme.gap.extend));
  const V v_zero = V::zero();

  // Per-column database profile: dprofile[a * kL + lane] is the score of
  // query residue a against lane's current database residue.
  std::int16_t* const dprofile = ext_rows + ext_size;
  // H and E of query row i: cells[2*i*kL ...] and cells[(2*i+1)*kL ...].
  std::int16_t* const cells = dprofile + dprofile_size;

  for (std::size_t group_start = 0; group_start < order.size();
       group_start += kL) {
    const std::size_t lanes_used = std::min(kL, order.size() - group_start);
    const std::uint8_t* lane_seq[kL];
    std::size_t lane_len[kL];
    std::size_t max_len = 0;
    for (std::size_t l = 0; l < kL; ++l) {
      if (l < lanes_used) {
        const auto& seq = db[order[group_start + l]];
        lane_seq[l] = seq.data();
        lane_len[l] = seq.size();
        max_len = std::max(max_len, seq.size());
      } else {
        lane_seq[l] = nullptr;
        lane_len[l] = 0;
      }
    }
    if (max_len == 0) continue;

    std::fill(cells, cells + 2 * m * kL, std::int16_t{0});
    V v_max = V::zero();

    for (std::size_t j = 0; j < max_len; ++j) {
      // This column's database residue per lane (pad once a lane's
      // sequence has ended), then the dprofile for the whole column.
      for (std::size_t l = 0; l < kL; ++l) {
        codes[l] = j < lane_len[l] ? lane_seq[l][j] : pad_code;
      }
      for (std::size_t a = 0; a < asize; ++a) {
        const std::int16_t* ext = ext_rows + a * (asize + 1);
        std::int16_t* dst = dprofile + a * kL;
        for (std::size_t l = 0; l < kL; ++l) dst[l] = ext[codes[l]];
      }

      V v_diag = V::zero();  // H[i-1][j-1]; boundary row is 0
      V v_f = V::zero();     // F[i][j], carried down the column
      for (std::size_t i = 0; i < m; ++i) {
        std::int16_t* const cell = cells + 2 * i * kL;
        const V v_score = V::load(dprofile + query[i] * kL);
        const V v_h_prev = V::load(cell);
        const V v_e_prev = V::load(cell + kL);

        // E: horizontal gap from column j-1 (Eq. 3).
        const V v_e = max(subs(v_e_prev, v_gap_extend),
                          subs(v_h_prev, v_gap_open_extend));
        // H (Eq. 2): diagonal uses H[i-1][j-1] saved from the previous i.
        V v_h = adds(v_diag, v_score);
        v_h = max(v_h, v_e);
        v_h = max(v_h, v_f);
        v_h = max(v_h, v_zero);
        v_max = max(v_max, v_h);

        v_diag = v_h_prev;
        v_h.store(cell);
        v_e.store(cell + kL);

        // F for the next query position (Eq. 4).
        v_f = max(subs(v_f, v_gap_extend), subs(v_h, v_gap_open_extend));
      }
    }

    for (std::size_t l = 0; l < lanes_used; ++l) {
      const std::size_t original = order[group_start + l];
      const std::int16_t best = v_max.lane(l);
      result.scores[original] = best;
      result.overflow[original] =
          best >= std::numeric_limits<std::int16_t>::max();
    }
  }
  return result;
}

}  // namespace swdual::align
