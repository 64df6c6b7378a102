// Query profiles: matrix rows re-indexed by query position.
//
// A query profile replaces the per-cell matrix lookup S(q[i], d[j]) with
// profile[d[j]][i] — one table indexed by the database residue, laid out so
// kernels stream it sequentially. The striped byte kernel builds on this,
// as do STRIPED and SWPS3 (the paper's §II-C "techniques being used to
// optimize each comparison"); the inter-sequence kernels build a database
// profile per column instead, as SWIPE does.
//
// The striped profile is *lane-width parameterized*: the striped layout
// depends on the SIMD backend's byte lane count (16/32/64), so the profile
// records the lane count it was built for and the kernel requires it to
// match its vector width. The final scores are layout-independent — see
// DESIGN.md "SIMD backends & dispatch".
//
// A service builds one striped profile per distinct query and frees it
// again, so its storage is a plain vector aligned by hand
// (util/aligned.h cache_aligned): the freed block fits the next query's
// identical request, where an allocator-aligned block would not and the
// heap would grow with traffic. The profile points into its own storage,
// so it cannot be copied.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/scoring.h"
#include "align/simd8.h"

namespace swdual::align {

/// Byte-precision Farrar striped profile: the query is split into `lanes`
/// segments of `segment_length()` positions; vector s holds query positions
/// { s, s+segLen, ..., s+(lanes-1)·segLen }. Scores are stored *biased*
/// (score − min_score of the matrix) so every entry is unsigned. Padding
/// positions (>= |q|) store exactly `bias` (true score 0), which cannot
/// raise the maximum. Used by the 8-bit kernel tier (see kernel_striped8.h).
class StripedProfileU8 {
 public:
  StripedProfileU8(std::span<const std::uint8_t> query,
                   const ScoreMatrix& matrix, std::size_t lanes = kLanes8);

  StripedProfileU8(const StripedProfileU8&) = delete;
  StripedProfileU8& operator=(const StripedProfileU8&) = delete;

  std::size_t query_length() const { return length_; }
  std::size_t segment_length() const { return segment_length_; }
  /// SIMD lane count this profile's striping was built for.
  std::size_t lanes() const { return lanes_; }
  /// The bias added to every stored score (= −min matrix score, ≥ 0).
  std::uint8_t bias() const { return bias_; }
  /// Largest substitution score of the source matrix (overflow guard band).
  std::int8_t max_score() const { return max_score_; }

  /// row(code)[s * lanes() + lane] == biased score of query position
  /// lane*segLen + s against database residue `code`.
  const std::uint8_t* row(std::uint8_t code) const {
    return data_ + static_cast<std::size_t>(code) * segment_length_ * lanes_;
  }

 private:
  std::size_t length_;
  std::size_t segment_length_;
  std::size_t lanes_;
  std::uint8_t bias_;
  std::int8_t max_score_ = 0;
  std::vector<std::uint8_t> storage_;
  /// 64-byte aligned into storage_: every striped row starts lane-width
  /// aligned.
  std::uint8_t* data_ = nullptr;
};

}  // namespace swdual::align
