// Query profiles: matrix rows re-indexed by query position.
//
// A query profile replaces the per-cell matrix lookup S(q[i], d[j]) with
// profile[d[j]][i] — one table indexed by the database residue, laid out so
// kernels stream it sequentially. Both SIMD kernels build on this, as do
// SWIPE, STRIPED and CUDASW++ (the paper's §II-C "techniques being used to
// optimize each comparison").
//
// The striped profiles are *lane-width parameterized*: the striped layout
// depends on the SIMD backend's lane count (16/32/64 byte lanes, 8/16/32
// 16-bit lanes), so each profile records the lane count it was built for
// and the kernels require it to match their vector width. The final scores
// are layout-independent — see DESIGN.md "SIMD backends & dispatch".
//
// A service builds one striped profile per distinct query and frees it
// again, so their storage is a plain vector aligned by hand
// (util/aligned.h cache_aligned): the freed block fits the next query's
// identical request, where an allocator-aligned block would not and the
// heap would grow with traffic. The profiles point into their own storage,
// so they cannot be copied.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/scoring.h"
#include "align/simd16.h"
#include "align/simd8.h"

namespace swdual::align {

/// Farrar striped profile: the query is split into `lanes` segments of
/// `segment_length()` positions; vector s holds query positions
/// { s, s+segLen, ..., s+(lanes-1)·segLen }. Padding positions (>= |q|)
/// score 0 against everything, which provably cannot raise the maximum.
class StripedProfile {
 public:
  StripedProfile(std::span<const std::uint8_t> query, const ScoreMatrix& matrix,
                 std::size_t lanes = kLanes16);

  StripedProfile(const StripedProfile&) = delete;
  StripedProfile& operator=(const StripedProfile&) = delete;

  std::size_t query_length() const { return length_; }
  std::size_t segment_length() const { return segment_length_; }
  std::size_t alphabet_size() const { return alphabet_size_; }
  /// SIMD lane count this profile's striping was built for.
  std::size_t lanes() const { return lanes_; }
  /// Largest substitution score of the source matrix; the kernel's overflow
  /// guard band (see kernel_striped_impl.h) is derived from it.
  std::int8_t max_score() const { return max_score_; }

  /// Striped rows for database residue `code`:
  /// row(code)[s * lanes() + lane] == score of query position
  /// lane*segLen + s (or 0 if that position is padding).
  const std::int16_t* row(std::uint8_t code) const {
    return data_ + static_cast<std::size_t>(code) * segment_length_ * lanes_;
  }

 private:
  std::size_t length_;
  std::size_t segment_length_;
  std::size_t alphabet_size_;
  std::size_t lanes_;
  std::int8_t max_score_ = 0;
  std::vector<std::int16_t> storage_;
  /// 64-byte aligned into storage_: every striped row starts lane-width
  /// aligned.
  std::int16_t* data_ = nullptr;
};

/// Byte-precision striped profile: scores stored *biased* (score − min_score
/// of the matrix) so every entry is unsigned; `lanes` query segments.
/// Padding positions store exactly `bias` (true score 0), which cannot raise
/// the maximum. Used by the 8-bit kernel tier (see kernel_striped8.h).
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
