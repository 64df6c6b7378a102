// Width-generic body of the byte-precision striped kernel.
//
// Templated over any vector type V satisfying the simd8.h interface
// contract; one body serves the scalar, SSE2, AVX2 and AVX-512BW backends
// (kernel_backend_*.cpp each instantiate it at their width). The striped
// segment layout is derived from V::kLanes and the profile must have been
// built with the same lane count; the resulting score and overflow decision
// are lane-count independent (see DESIGN.md "SIMD backends & dispatch").
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "align/kernel_striped8.h"
#include "align/profile.h"
#include "align/scratch.h"
#include "util/error.h"

namespace swdual::align {

template <class V>
StripedResult striped8_score_impl(const StripedProfileU8& profile,
                                  std::span<const std::uint8_t> db,
                                  const GapPenalty& gap) {
  constexpr std::size_t kL = V::kLanes;
  SWDUAL_REQUIRE(profile.lanes() == kL,
                 "byte profile lane count does not match the kernel width");
  SWDUAL_REQUIRE(gap.extend >= 1, "byte kernel requires gap.extend >= 1");
  SWDUAL_REQUIRE(gap.open >= 0 && gap.open + gap.extend <= 255,
                 "gap penalties out of byte range");
  StripedResult result;
  const std::size_t seg_len = profile.segment_length();
  result.cells =
      static_cast<std::uint64_t>(profile.query_length()) * db.size();
  if (db.empty() || profile.query_length() == 0) return result;

  const V v_bias = V::splat(profile.bias());
  const V v_gap_extend = V::splat(static_cast<std::uint8_t>(gap.extend));
  const V v_gap_open_extend =
      V::splat(static_cast<std::uint8_t>(gap.open + gap.extend));
  const V v_gap_open = V::splat(static_cast<std::uint8_t>(gap.open));

  // Overflow guard band: the biased add saturates at 255, so a clamp
  // requires a prior H above 255 − bias − max_score; every stored H passed
  // through v_max, so a maximum below that band proves no clamping happened
  // anywhere. Scores inside the band (including a legitimate ceiling score,
  // which is indistinguishable from a clamp) are conservatively escalated.
  const int guard = 255 - static_cast<int>(profile.bias()) -
                    static_cast<int>(profile.max_score());
  // A lane above this value has reached the guard (with a guard of 0 or
  // less every pair escalates, so any positive lane may stop the scan).
  const V v_guard_reached =
      V::splat(static_cast<std::uint8_t>(std::max(guard - 1, 0)));

  // Per-thread workspace: zeroed rows, capacity reused across records.
  const AlignScratch::RowsU8 rows = thread_scratch().rows_u8(seg_len * kL);
  std::uint8_t* h_load = rows.h_load;
  std::uint8_t* h_store = rows.h_store;
  std::uint8_t* e_ptr = rows.e;

  V v_max = V::zero();

  for (std::size_t j = 0; j < db.size(); ++j) {
    const std::uint8_t* scores = profile.row(db[j]);
    V v_f = V::zero();
    V v_h = V::load(h_load + (seg_len - 1) * kL).shift_lanes_up();

    for (std::size_t s = 0; s < seg_len; ++s) {
      // H = max(diag + score, E, F, 0): biased add, then bias removal with
      // saturation at zero (the free max(…,0)).
      v_h = subs(adds(v_h, V::load(scores + s * kL)), v_bias);
      const V v_e = V::load(e_ptr + s * kL);
      v_h = max(v_h, v_e);
      v_h = max(v_h, v_f);
      v_max = max(v_max, v_h);
      v_h.store(h_store + s * kL);

      const V v_h_gap = subs(v_h, v_gap_open_extend);
      max(subs(v_e, v_gap_extend), v_h_gap).store(e_ptr + s * kL);
      v_f = max(subs(v_f, v_gap_extend), v_h_gap);

      v_h = V::load(h_load + s * kL);
    }

    // Lazy F (Farrar): propagate vertical-gap chains that wrap across lanes.
    // Continue while F strictly beats re-opening a gap from H at the current
    // segment (once dominated everywhere, every later contribution of this
    // chain is dominated by an H-seeded chain the main loop already carried).
    // E is refreshed from corrected H so Eq. (3) sees final column values.
    //
    // On random protein corpora the correction fires on 30–50% of columns
    // (the wider the vector, the more often some lane needs it) but runs
    // only ~2 steps, so the entry branch is maximally unpredictable while
    // the work is tiny. Two restructurings keep scores bit-identical and
    // remove most of the mispredict cost:
    //
    //  1. The first kLazyFUnconditional steps run without a check. The
    //     step body only max-merges F-derived candidates — true lower
    //     bounds of the DP cell values (F propagates down query positions
    //     at −extend per step) — so when no correction is due it rewrites
    //     the rows with values they already dominate: a no-op.
    //  2. The loop exit uses the threshold H − open rather than
    //     H − (open+extend). Exiting once every lane has F ≤ H(s) − open
    //     is exact: H(s) changes only when F > H(s); the stored E(s) is
    //     already ≥ H(s) − open − extend so it changes only when
    //     F > E(s) + open + extend ≥ H(s); and the carry stays dominated
    //     at every later segment because F − extend ≤ H(s) − open − extend
    //     is a value the segment loop already folded into F(s+1).
    v_f = v_f.shift_lanes_up();
    std::size_t s = 0;
    constexpr std::size_t kLazyFUnconditional = 2;
    const std::size_t unchecked =
        seg_len < kLazyFUnconditional ? seg_len : kLazyFUnconditional;
    for (; s < unchecked; ++s) {
      const V v_h_cur = max(V::load(h_store + s * kL), v_f);
      v_h_cur.store(h_store + s * kL);
      v_max = max(v_max, v_h_cur);
      const V v_h_gap = subs(v_h_cur, v_gap_open_extend);
      max(V::load(e_ptr + s * kL), v_h_gap).store(e_ptr + s * kL);
      v_f = subs(v_f, v_gap_extend);
    }
    if (s >= seg_len) {
      s = 0;
      v_f = v_f.shift_lanes_up();
    }
    while (any_gt(v_f, subs(V::load(h_store + s * kL), v_gap_open))) {
      const V v_h_cur = max(V::load(h_store + s * kL), v_f);
      v_h_cur.store(h_store + s * kL);
      v_max = max(v_max, v_h_cur);
      const V v_h_gap = subs(v_h_cur, v_gap_open_extend);
      max(V::load(e_ptr + s * kL), v_h_gap).store(e_ptr + s * kL);
      v_f = subs(v_f, v_gap_extend);
      if (++s >= seg_len) {
        // A gap chain longer than a whole segment hangs off a high cell:
        // on a homolog the correction wraps on most columns once the
        // diagonal scores well. A pair whose maximum has reached the guard
        // escalates whatever the rest of its matrix holds, so it stops
        // here. Random pairs seldom wrap, so they never pay for the check.
        if (any_gt(v_max, v_guard_reached)) {
          result.score = v_max.hmax();
          result.overflow = true;
          return result;
        }
        s = 0;
        v_f = v_f.shift_lanes_up();
      }
    }

    std::swap(h_load, h_store);
  }

  const std::uint8_t best = v_max.hmax();
  result.overflow = best >= guard;
  result.score = best;
  return result;
}

}  // namespace swdual::align
