// Byte-precision striped Smith–Waterman (Farrar's 8-bit tier).
//
// Sixteen query cells per vector in unsigned saturating arithmetic: the
// substitution scores carry a bias so they are non-negative, and
// saturating-at-zero subtraction implements the local alignment's
// max(…, 0) for free. Scores that reach 255 − bias are unreliable and the
// pair must be redone at 16 bits (search_range rescores a range's
// saturated pairs together on the inter-sequence kernel) — on typical
// protein searches that is a small fraction of pairs, which is why
// STRIPED/SWIPE/CUDASW++ all run byte-precision first.
#pragma once

#include <cstdint>
#include <span>

#include "align/profile.h"
#include "align/scoring.h"

namespace swdual::align {

struct StripedResult {
  int score = 0;
  bool overflow = false;  ///< true if the byte range saturated
  std::uint64_t cells = 0;
};

/// Score one query (via its byte profile) against one database sequence.
/// result.overflow is set when the score reached the overflow guard; the
/// kernel then stops early, and result.score is only a lower bound (not
/// the same on every backend). result.cells is always |q|·|d|.
StripedResult striped8_score(const StripedProfileU8& profile,
                             std::span<const std::uint8_t> db,
                             const GapPenalty& gap);

/// Convenience overload building the profile internally.
StripedResult striped8_score(std::span<const std::uint8_t> query,
                             std::span<const std::uint8_t> db,
                             const ScoringScheme& scheme);

}  // namespace swdual::align
