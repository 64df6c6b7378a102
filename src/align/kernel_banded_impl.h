// Width-generic body of the inter-sequence banded screen kernel.
//
// Templated over a byte vector type V8T (simd8.h contract) and a 16-bit
// vector type V16T (simd16.h contract): every record runs the 8-bit
// saturating tier first; lanes whose score reaches the overflow guard are
// regrouped and re-screened through the 16-bit tier; lanes that saturate
// even there come back with overflow set for the caller's 32-bit scalar
// rescan. kernel_backend_*.cpp instantiate this at each compiled width.
//
// Layout is the interseq kernel's (kernel_interseq_impl.h): one database
// sequence per lane and longest-first batching with pre-sorted-order
// detection. What is new is the band: per lane the DP is restricted to
// rows i with |j − ⌊i·n_l/m⌋| ≤ band, walked column-major. Substitution
// scores come from a per-row 32-entry shuffle (lut32) on vector types that
// have one, else from a per-column gathered dprofile.
//
// Lane groups are cut from the longest-first order by banded_group_end: up
// to one record per lane, ending before the first record shorter than half
// the group's first. A group takes one of two paths, decided by its input
// alone:
//  - uniform: a group whose records all have one length, full or partial
//    (longest-first order puts equal lengths next to each other; how many
//    groups qualify depends on the database's length multiset, see
//    DESIGN.md "Screen kernel design"). Every lane takes column j at step j
//    with the same window, edge runs and sentinel row, so one set of band
//    counters walks the geometry for the whole group, the sentinel is one
//    vector store, the edge-run masks are splats, and the rows run with no
//    in-window clamps or blends. Idle lanes of a partial group read the pad
//    code; their values are never read and their cells never counted.
//  - paced: every group of mixed lengths. Because a band covers only a
//    sliver of rows, each lane advances through its own columns
//    Bresenham-style at rate n_l/n_max so that every lane's window stays
//    centred on the same rows regardless of the group's length mix (see the
//    comment at the step loop), and each lane walks its own geometry.
// Both paths run the same row body and the same per-lane arithmetic, so
// scores, edge_hit, overflow and cells do not depend on the path.
//
// Band geometry is tracked with four incremental counters per lane —
// F(v) = min{ i ≥ 1 : i·n ≥ v·m } evaluated at v = j−band, j−band+1,
// j+band, j+band+1 — advanced by Bresenham-style slack updates (one
// subtract plus an amortized add per column; a single division when a
// counter first activates), so the whole column walk costs amortized
// O(m+n) per lane with no multiplies in the steady state and no floating
// point (the counters are exact at any length ratio). The four
// values delimit, for column j:
//    window rows  [tl, bl]  = [F(j−band), min(m, F(j+band+1)−1)]
//    head run     [tl, F(j−band+1)−1]  — rows whose RIGHT band edge is j
//    tail run     [F(j+band), bl]      — rows whose LEFT band edge is j
// Head/tail rows are the band-boundary cells feeding the edge_hit
// certificate (banded.h). Rows are processed in three zones: a top fringe
// and bottom fringe that track edge runs, and a bulk zone in between where
// every live lane is in-window and off-edge, so one constant mask register
// suffices and no edge tracking runs. A paced group builds its fringe lane
// masks with two vector compares against the column-relative row number
// (covering the edge runs and cross-lane raggedness; a scalar per-lane
// build remains as the fallback for union windows taller than the element
// type); a uniform group's fringes are its edge runs themselves.
//
// Masking uses the vector min() operation: a lane's mask element is the
// type's max value (identity for min) when the lane is in-window, 0
// otherwise. H is masked *before* it feeds the running F register and the
// stores, which keeps the in-register F chain and the column state exactly
// equal to the scalar banded recurrence with out-of-band reads clamped to
// H=0 / E,F≤0 — clamps that provably never change an in-band H (H is
// max(…, 0) anyway). A sentinel store per column (zeroing state H just
// above the window top unless that row was inside the previous column's
// window: per lane on the paced path, one vector on the uniform path)
// covers the only remaining stale-state read, the diagonal into the
// window's top row.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "align/kernel_banded.h"
#include "align/scratch.h"
#include "util/error.h"

// The column and row lambdas must be inlined into their loops: GCC at -O2
// otherwise emits the row body out of line, and a call per row costs the
// uniform path its whole gain.
#if defined(__GNUC__)
#define SWDUAL_BANDED_INLINE __attribute__((always_inline))
#else
#define SWDUAL_BANDED_INLINE
#endif

namespace swdual::align {

namespace banded_detail {

/// F(v) = min{ i ≥ 1 : i·n ≥ v·m }, clamped to 1 for v ≤ 0 and to m+1 when
/// no row qualifies, tracked incrementally as v grows by exactly one per
/// column: the slack t = f·n − v·m stays in [0, n), so a step is one
/// subtract plus an amortized-O(m/n) add loop — no multiplies in the
/// steady state. The first v ≥ 1 (and a re-entry after the m+1 cap, where
/// t is stale) evaluates F directly.
struct BandCounter {
  std::size_t f = 1;
  std::int64_t t = -1;  ///< < 0: v has not reached 1 yet (or f is capped)

  void step(std::int64_t v, std::size_t m, std::size_t n) {
    if (v <= 0) return;
    if (f > m) return;  // capped at m+1: F only grows with v
    t -= static_cast<std::int64_t>(m);
    if (t < -static_cast<std::int64_t>(m)) {  // slack was never established
      const std::uint64_t target = static_cast<std::uint64_t>(v) * m;
      f = static_cast<std::size_t>((target + n - 1) / n);
      if (f > m) {
        f = m + 1;
        t = -2 * static_cast<std::int64_t>(m) - 1;  // keep "stale" marker
        return;
      }
      t = static_cast<std::int64_t>(static_cast<std::uint64_t>(f) * n -
                                    target);
      return;
    }
    while (t < 0) {
      if (++f > m) return;  // capped; t is stale but f never moves again
      t += static_cast<std::int64_t>(n);
    }
  }
};

/// One column's band geometry in one lane.
struct BandColumn {
  std::size_t tl = 1;       ///< window rows [tl, bl]; empty when tl > bl
  std::size_t bl = 0;
  std::size_t head_hi = 0;  ///< head run [tl, head_hi]; none when < tl
  std::size_t tail_lo = 0;  ///< tail run [tail_lo, bl]; none when > bl
  bool fresh_top = false;   ///< state H at row tl−1 is stale: zero it
};

/// Per-lane band state carried across columns.
struct LaneBand {
  std::size_t n = 0;        ///< lane's database length (0 = idle lane)
  BandCounter a;            ///< F(j − band)
  BandCounter b;            ///< F(j − band + 1)
  BandCounter c;            ///< F(j + band)
  BandCounter d;            ///< F(j + band + 1)
  std::size_t prev_tl = 1;  ///< previous column's window top
  std::size_t prev_bl = 0;  ///< previous column's window bottom (empty)

  /// Steps the four counters to column j (columns arrive as 1, 2, …, n) and
  /// returns its window and genuine edge runs: a boundary column with no
  /// outside neighbour — j = 1 for the left edge, j = n for the right — is
  /// a matrix edge, not a band edge.
  BandColumn next(std::size_t j, std::size_t band, std::size_t m) {
    const auto sj = static_cast<std::int64_t>(j);
    const auto sband = static_cast<std::int64_t>(band);
    a.step(sj - sband, m, n);
    b.step(sj - sband + 1, m, n);
    c.step(sj + sband, m, n);
    d.step(sj + sband + 1, m, n);
    BandColumn col;
    col.tl = a.f;
    col.bl = std::min(m, d.f - 1);
    col.head_hi = j + 1 <= n ? std::min(col.bl, b.f - 1) : 0;
    col.tail_lo = j >= 2 ? std::max(col.tl, c.f) : m + 1;
    // The diagonal into the window's top row reads state H one row above
    // it, which is stale unless the previous column's window wrote it.
    col.fresh_top = col.tl >= 2 && col.tl <= col.bl &&
                    !(prev_tl <= col.tl - 1 && col.tl - 1 <= prev_bl);
    prev_tl = col.tl;
    prev_bl = col.bl;
    return col;
  }
};

/// Row-body tags: a uniform group's rows lie inside every lane's window.
inline constexpr std::true_type kAllLanesIn{};
inline constexpr std::false_type kMaskedLanes{};

}  // namespace banded_detail

/// One tier of the banded screen over the sequences named by `order`
/// (longest-first). Results land in `out` at their original indices. When
/// `escalate` is non-null, saturated lanes are appended to it instead of
/// being flagged; when null they set out.overflow. Returns the banded cells
/// the pass computed.
template <class V>
std::uint64_t banded_screen_pass(std::span<const std::uint8_t> query,
                                 const SequenceViews& db,
                                 const ScoringScheme& scheme, std::size_t band,
                                 std::span<const std::uint32_t> order,
                                 BandedBatchResult& out,
                                 std::vector<std::uint32_t>* escalate) {
  using T = typename V::value_type;
  constexpr bool kByte = std::is_same_v<T, std::uint8_t>;
  constexpr std::size_t kL = V::kLanes;
  constexpr T kMaskOn = std::numeric_limits<T>::max();
  using namespace banded_detail;

  const ScoreMatrix& matrix = *scheme.matrix;
  const std::size_t m = query.size();
  const std::size_t asize = matrix.size();
  const std::uint8_t pad_code = static_cast<std::uint8_t>(asize);
  AlignScratch& scratch = thread_scratch();

  // Byte tier: unsigned arithmetic with biased substitution scores, exactly
  // like the striped byte kernel — H stays unbiased because the bias is
  // removed right after the diagonal add (with the free max(…,0)).
  const int bias = kByte ? std::max(0, -static_cast<int>(matrix.min_score()))
                         : 0;
  const int guard =
      255 - bias - std::max(0, static_cast<int>(matrix.max_score()));

  // Substitution rows widened to the tier's element type with one pad
  // column appended. Paced groups mask the pad score everywhere; the idle
  // lanes of a partial uniform group add it unmasked, and 0 (a score of
  // −bias in the byte tier) keeps their H at 0. Byte-tier
  // rows are zero-padded to a 32-byte stride whenever the alphabet (incl.
  // the pad code) fits, so vector types with a lut32 byte shuffle can look
  // a row up directly with the lane codes — that skips the dprofile build,
  // whose asize×kL scalar stores amortize poorly over a band's few window
  // rows (the full-matrix interseq kernel amortizes them over m rows).
  constexpr bool kHasLut =
      requires(const std::uint8_t* t, V x) { V::lut32(t, x); };
  const std::size_t ext_stride = (kByte && asize < 32) ? 32 : asize + 1;
  T* ext_rows;
  if constexpr (kByte) {
    ext_rows = scratch.banded_ext_rows_u8(asize * ext_stride);
  } else {
    ext_rows = scratch.interseq_ext_rows(asize * ext_stride);
  }
  for (std::size_t a = 0; a < asize; ++a) {
    const std::int8_t* row = matrix.row(static_cast<std::uint8_t>(a));
    T* dst = ext_rows + a * ext_stride;
    for (std::size_t c = 0; c < asize; ++c) {
      dst[c] = static_cast<T>(row[c] + bias);
    }
    for (std::size_t c = asize; c < ext_stride; ++c) dst[c] = 0;
  }
  const bool use_lut = kHasLut && ext_stride == 32;

  T* dprofile;
  if constexpr (kByte) {
    dprofile = scratch.banded_dprofile_u8(asize * kL);
  } else {
    dprofile = scratch.interseq_dprofile(asize * kL);
  }

  const V v_gap_extend = V::splat(static_cast<T>(scheme.gap.extend));
  const V v_gap_open_extend =
      V::splat(static_cast<T>(scheme.gap.open + scheme.gap.extend));
  const V v_bias = V::splat(static_cast<T>(bias));

  std::uint64_t cells = 0;
  for (std::size_t group_start = 0, group_end = 0; group_start < order.size();
       group_start = group_end) {
    group_end = banded_group_end(
        group_start, order.size(), kL,
        [&](std::size_t k) { return db[order[k]].size(); });
    const std::size_t lanes_used = group_end - group_start;
    const std::uint8_t* lane_seq[kL];
    LaneBand lane[kL];
    std::size_t max_len = 0;
    for (std::size_t l = 0; l < kL; ++l) {
      if (l < lanes_used) {
        const auto& seq = db[order[group_start + l]];
        lane_seq[l] = seq.data();
        lane[l].n = seq.size();
        max_len = std::max(max_len, seq.size());
      } else {
        lane_seq[l] = nullptr;
        lane[l].n = 0;
      }
    }
    if (max_len == 0) continue;  // all-empty group: scores stay 0

    T* state_h;
    T* state_e;
    if constexpr (kByte) {
      const AlignScratch::BandedStateU8 state =
          scratch.banded_state_u8(m * kL);
      state_h = state.h;
      state_e = state.e;
    } else {
      const AlignScratch::InterSeqState state = scratch.interseq_state(m * kL);
      state_h = state.h;
      state_e = state.e;
    }

    V v_max = V::zero();
    V v_edge = V::zero();
    alignas(64) std::uint8_t codes[kL];
    for (std::size_t l = 0; l < kL; ++l) codes[l] = pad_code;

    // Column registers the row body reads and advances: the column's
    // residue codes, the diagonal H and the running F; and on a paced step,
    // which lanes advance (v_act) and whether all of them do.
    V v_codes = V::zero();
    V v_diag = V::zero();
    V v_f = V::zero();
    V v_act = V::zero();
    bool all_active = true;

    // Starts a column whose rows begin at `top`: this column's database
    // residues (stale entries of idle lanes are masked everywhere) as a code
    // vector feeding the per-row lut32 lookup or gathered into the
    // dprofile, and the diagonal into the top row.
    const auto begin_column = [&](std::size_t top) SWDUAL_BANDED_INLINE {
      if constexpr (kByte && kHasLut) {
        if (use_lut) v_codes = V::load(codes);
      }
      if (!use_lut) {
        for (std::size_t a = 0; a < asize; ++a) {
          const T* ext = ext_rows + a * ext_stride;
          T* dst = dprofile + a * kL;
          for (std::size_t l = 0; l < kL; ++l) dst[l] = ext[codes[l]];
        }
      }
      v_diag = top >= 2 ? V::load(state_h + (top - 2) * kL) : V::zero();
      v_f = V::zero();
    };

    // One row of the current column. A paced row clamps H and E to the
    // in-window lanes of `v_mask` and, on a step where some lane idles,
    // keeps that lane's state through blends; a uniform group's rows lie
    // inside every lane's window (kAllLanesIn), so it does neither.
    // `v_edge_mask` picks the lanes whose cell is on an edge run, read only
    // when `track_edge` is set.
    const auto process_row = [&](auto all_in, std::size_t r, V v_mask,
                                 V v_edge_mask,
                                 bool track_edge) SWDUAL_BANDED_INLINE {
      constexpr bool kAllIn = decltype(all_in)::value;
      V v_score;
      if constexpr (kByte && kHasLut) {
        v_score = use_lut ? V::lut32(ext_rows + query[r - 1] * 32, v_codes)
                          : V::load(dprofile + query[r - 1] * kL);
      } else {
        v_score = V::load(dprofile + query[r - 1] * kL);
      }
      const V v_h_prev = V::load(state_h + (r - 1) * kL);
      const V v_e_prev = V::load(state_e + (r - 1) * kL);
      const V v_e = max(subs(v_e_prev, v_gap_extend),
                        subs(v_h_prev, v_gap_open_extend));
      V v_h;
      if constexpr (kByte) {
        v_h = subs(adds(v_diag, v_score), v_bias);
      } else {
        v_h = adds(v_diag, v_score);
      }
      v_h = max(v_h, v_e);
      v_h = max(v_h, v_f);
      if constexpr (!kByte) v_h = max(v_h, V::zero());
      V v_hm = v_h;
      V v_em = v_e;
      if constexpr (!kAllIn) {
        v_hm = min(v_h, v_mask);
        v_em = min(v_e, v_mask);
      }
      v_max = max(v_max, v_hm);
      if (track_edge) v_edge = max(v_edge, min(v_hm, v_edge_mask));
      v_diag = v_h_prev;
      if (kAllIn || all_active) {
        v_hm.store(state_h + (r - 1) * kL);
        v_em.store(state_e + (r - 1) * kL);
      } else {
        // Idle lanes keep their state untouched this step.
        blend(v_act, v_hm, v_h_prev).store(state_h + (r - 1) * kL);
        blend(v_act, v_em, v_e_prev).store(state_e + (r - 1) * kL);
      }
      // The masked H keeps the running F register correct through
      // out-of-window rows: those contribute at most subs(0, gs+ge) ≤ 0.
      v_f = max(subs(v_f, v_gap_extend), subs(v_hm, v_gap_open_extend));
    };

    // Longest-first order: the first and last lanes bound every length.
    if (lane[0].n == lane[lanes_used - 1].n) {
      // Uniform group: lane 0's counters walk the geometry for all lanes.
      const V v_on = V::splat(kMaskOn);
      LaneBand& walk = lane[0];
      for (std::size_t j = 1; j <= max_len; ++j) {
        const BandColumn col = walk.next(j, band, m);
        if (col.tl > col.bl) continue;  // window empty at this column (n≫m)
        cells += lanes_used * (col.bl - col.tl + 1);
        if (col.fresh_top) V::zero().store(state_h + (col.tl - 2) * kL);
        for (std::size_t l = 0; l < lanes_used; ++l) {
          codes[l] = lane_seq[l][j - 1];
        }
        begin_column(col.tl);
        // Rows above the bulk zone are head-run rows, rows below it tail-run
        // rows; when the runs leave no row between them, every row is one.
        std::size_t bulk_lo = std::max(col.tl, col.head_hi + 1);
        std::size_t bulk_hi = std::min(col.bl, col.tail_lo - 1);
        if (bulk_lo > bulk_hi) {
          bulk_lo = col.bl + 1;
          bulk_hi = col.bl;
        }
        for (std::size_t r = col.tl; r < bulk_lo; ++r) {
          process_row(kAllLanesIn, r, v_on, v_on, true);
        }
        for (std::size_t r = bulk_lo; r <= bulk_hi; ++r) {
          process_row(kAllLanesIn, r, v_on, v_on, false);
        }
        for (std::size_t r = bulk_hi + 1; r <= col.bl; ++r) {
          process_row(kAllLanesIn, r, v_on, v_on, true);
        }
      }
    } else {
      alignas(64) T bulk_mask_arr[kL];
      alignas(64) T act_arr[kL];
      alignas(64) T mask_row[kL];
      alignas(64) T edge_row[kL];
      // This step's window and edge runs per windowed lane.
      std::size_t tl[kL], bl[kL], head_hi[kL], tail_lo[kL];
      std::size_t jcol[kL] = {};  // columns consumed per lane
      std::size_t acc[kL] = {};   // Bresenham pacing accumulator

      // Lanes are paced through their own columns Bresenham-style: lane l
      // advances exactly on the steps where floor(s·n_l/n_max) grows, so
      // after step s it sits at column ≈ s·n_l/n_max and its band window is
      // centred near row s·m/n_max — the same rows as every other lane in
      // the group, whatever the length mix. (Marching every lane through
      // one absolute column index instead lets the windows drift apart
      // linearly — centres j·m/n_l — ballooning the union row range until
      // most vector work is masked off.) Pacing changes nothing per lane:
      // each still walks its columns 1..n_l in order with identical windows
      // and arithmetic, so scores stay bit-identical; lanes idle on a step
      // keep their state through blended stores.
      for (std::size_t s = 1; s <= max_len; ++s) {
        // Band geometry for the lanes that advance this step, and the
        // cross-lane zone boundaries.
        std::size_t row_lo = m + 1;
        std::size_t row_hi = 0;
        std::size_t bulk_lo = 1;
        std::size_t bulk_hi = m;
        all_active = true;
        // Geometry is a pure function of (m, band, n, step), and pacing
        // makes every lane of equal length march in lockstep — so within
        // the longest-first group, a lane whose length equals its left
        // neighbour's replays the neighbour's outcome verbatim instead of
        // stepping its own counters. Paced groups still repeat lengths (a
        // group straddling two runs, a 16-bit regroup of homologs of a few
        // lengths), and there the replay is worth 1.4–2.5× (EXPERIMENTS.md).
        std::size_t share_n = std::numeric_limits<std::size_t>::max();
        std::size_t share_j = 0;  // the run's column this step (0: none)
        BandColumn share;
        for (std::size_t l = 0; l < kL; ++l) {
          bulk_mask_arr[l] = 0;
          act_arr[l] = 0;
          LaneBand& L = lane[l];
          if (L.n != share_n) {  // first lane of its length: step it
            share_n = L.n;
            share_j = 0;
            if (jcol[l] < L.n) {  // not exhausted (or idle)
              acc[l] += L.n;
              if (acc[l] >= max_len) {  // not paced out this step
                acc[l] -= max_len;
                share_j = ++jcol[l];
                share = L.next(share_j, band, m);
                if (share.tl <= share.bl) {  // the run's zone bounds
                  row_lo = std::min(row_lo, share.tl);
                  row_hi = std::max(row_hi, share.bl);
                  bulk_lo = std::max(bulk_lo,
                                     std::max(share.tl, share.head_hi + 1));
                  bulk_hi = std::min(bulk_hi,
                                     std::min(share.bl, share.tail_lo - 1));
                }
              }
            }
          }
          if (share_j == 0) {
            all_active = false;
            continue;
          }
          act_arr[l] = static_cast<T>(-1);  // all-ones: blend() needs them
          codes[l] = lane_seq[l][share_j - 1];
          if (share.tl > share.bl) continue;  // window empty (ragged n≫m)
          cells += share.bl - share.tl + 1;
          tl[l] = share.tl;
          bl[l] = share.bl;
          head_hi[l] = share.head_hi;
          tail_lo[l] = share.tail_lo;
          bulk_mask_arr[l] = kMaskOn;
          if (share.fresh_top) state_h[(share.tl - 2) * kL + l] = 0;
        }
        if (row_lo > row_hi) continue;  // no live window anywhere this step
        if (bulk_lo > bulk_hi) {        // no common off-edge zone: all fringe
          bulk_lo = row_hi + 1;
          bulk_hi = row_hi;
        }
        v_act = V::load(act_arr);

        // Fringe masks are normally built with two vector compares against
        // the column-relative row number rr = r − row_lo + 1 (rr ≥ 1, so 0
        // is a safe "never" for head runs and kMaskOn for empty windows —
        // rr never reaches it under the span guard below). Only when the
        // union window is taller than the element type can express does the
        // scalar per-lane build run instead.
        const bool vec_fringe =
            row_hi - row_lo + 2 < static_cast<std::size_t>(kMaskOn);
        V v_tl_rel = V::zero();
        V v_bl_rel = V::zero();
        V v_head_rel = V::zero();
        V v_tail_rel = V::zero();
        if (vec_fringe) {
          alignas(64) T tl_rel[kL], bl_rel[kL], head_rel[kL], tail_rel[kL];
          for (std::size_t l = 0; l < kL; ++l) {
            if (bulk_mask_arr[l] == 0) {  // no window: match no row
              tl_rel[l] = kMaskOn;
              bl_rel[l] = 0;
              head_rel[l] = 0;
              tail_rel[l] = kMaskOn;
              continue;
            }
            tl_rel[l] = static_cast<T>(tl[l] - row_lo + 1);
            bl_rel[l] = static_cast<T>(bl[l] - row_lo + 1);
            head_rel[l] = head_hi[l] >= row_lo
                              ? static_cast<T>(head_hi[l] - row_lo + 1)
                              : 0;
            tail_rel[l] = tail_lo[l] <= row_hi
                              ? static_cast<T>(tail_lo[l] - row_lo + 1)
                              : kMaskOn;
          }
          v_tl_rel = V::load(tl_rel);
          v_bl_rel = V::load(bl_rel);
          v_head_rel = V::load(head_rel);
          v_tail_rel = V::load(tail_rel);
        }

        begin_column(row_lo);

        const auto fringe_row = [&](std::size_t r) SWDUAL_BANDED_INLINE {
          if (vec_fringe) {
            const V v_rr = V::splat(static_cast<T>(r - row_lo + 1));
            const V v_win = bit_and(ge(v_rr, v_tl_rel), ge(v_bl_rel, v_rr));
            const V v_run = bit_and(
                v_win, bit_or(ge(v_head_rel, v_rr), ge(v_rr, v_tail_rel)));
            if constexpr (kByte) {
              // All-ones == kMaskOn for unsigned bytes: masks are ready.
              process_row(kMaskedLanes, r, v_win, v_run, true);
            } else {
              // Signed all-ones is −1; clamp the masks to the min() identity.
              const V v_on = V::splat(kMaskOn);
              process_row(kMaskedLanes, r, bit_and(v_win, v_on),
                          bit_and(v_run, v_on), true);
            }
            return;
          }
          for (std::size_t l = 0; l < kL; ++l) {
            const bool on =
                bulk_mask_arr[l] != 0 && tl[l] <= r && r <= bl[l];
            mask_row[l] = on ? kMaskOn : 0;
            edge_row[l] =
                on && (r <= head_hi[l] || r >= tail_lo[l]) ? kMaskOn : 0;
          }
          process_row(kMaskedLanes, r, V::load(mask_row), V::load(edge_row),
                      true);
        };

        for (std::size_t r = row_lo; r < bulk_lo; ++r) fringe_row(r);
        if (bulk_lo <= bulk_hi) {
          const V v_bulk = V::load(bulk_mask_arr);
          for (std::size_t r = bulk_lo; r <= bulk_hi; ++r) {
            process_row(kMaskedLanes, r, v_bulk, V::zero(), false);
          }
        }
        for (std::size_t r = bulk_hi + 1; r <= row_hi; ++r) fringe_row(r);
      }
    }

    for (std::size_t l = 0; l < lanes_used; ++l) {
      const std::uint32_t original = order[group_start + l];
      const int best = static_cast<int>(v_max.lane(l));
      const bool saturated =
          kByte ? best >= guard
                : best >= std::numeric_limits<std::int16_t>::max();
      if (saturated && escalate != nullptr) {
        escalate->push_back(original);
        continue;
      }
      out.scores[original] = best;
      out.overflow[original] = saturated;
      out.edge_hit[original] =
          best > 0 && static_cast<int>(v_edge.lane(l)) == best;
    }
  }
  return cells;
}

/// Full banded screen: 8-bit tier, 16-bit escalation, overflow flags for
/// the caller's 32-bit scalar rescan.
template <class V8T, class V16T>
BandedBatchResult banded_screen_impl(std::span<const std::uint8_t> query,
                                     const SequenceViews& db,
                                     const ScoringScheme& scheme,
                                     std::size_t band) {
  SWDUAL_REQUIRE(band >= 1, "band half-width must be at least 1");
  BandedBatchResult result;
  result.scores.assign(db.size(), 0);
  result.overflow.assign(db.size(), false);
  result.edge_hit.assign(db.size(), false);
  if (query.empty() || db.empty()) return result;

  // Longest-first batching with the interseq kernel's pre-sorted-order
  // detection (the sorting engines deliver descending-length batches
  // already).
  AlignScratch& scratch = thread_scratch();
  AlignedVector<std::uint32_t>& order = scratch.banded_order();
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

  std::vector<std::uint32_t> escalate;
  result.cells = banded_screen_pass<V8T>(query, db, scheme, band,
                                         {order.data(), order.size()}, result,
                                         &escalate);
  if (!escalate.empty()) {
    // `escalate` is a subsequence of `order`, so it is already
    // longest-first; regroup it at the 16-bit lane width. The byte tier
    // already counted these cells, and each banded cell counts once.
    banded_screen_pass<V16T>(query, db, scheme, band,
                             {escalate.data(), escalate.size()}, result,
                             nullptr);
  }
  return result;
}

}  // namespace swdual::align

#undef SWDUAL_BANDED_INLINE
