#include "align/profile.h"

#include <algorithm>

#include "util/aligned.h"
#include "util/error.h"

namespace swdual::align {

StripedProfileU8::StripedProfileU8(std::span<const std::uint8_t> query,
                                   const ScoreMatrix& matrix,
                                   std::size_t lanes)
    : length_(query.size()), lanes_(lanes), max_score_(matrix.max_score()) {
  SWDUAL_REQUIRE(!query.empty(), "striped profile needs a non-empty query");
  SWDUAL_REQUIRE(lanes_ > 0, "striped profile needs at least one lane");
  SWDUAL_REQUIRE(matrix.min_score() <= 0,
                 "byte profile expects a matrix with non-positive minimum");
  bias_ = static_cast<std::uint8_t>(-matrix.min_score());
  segment_length_ = (length_ + lanes_ - 1) / lanes_;
  const std::size_t size = matrix.size() * segment_length_ * lanes_;
  data_ = cache_aligned(storage_, size);
  std::fill(data_, data_ + size, bias_);
  for (std::size_t code = 0; code < matrix.size(); ++code) {
    std::uint8_t* out = data_ + code * segment_length_ * lanes_;
    for (std::size_t s = 0; s < segment_length_; ++s) {
      for (std::size_t lane = 0; lane < lanes_; ++lane) {
        const std::size_t position = lane * segment_length_ + s;
        if (position < length_) {
          out[s * lanes_ + lane] = static_cast<std::uint8_t>(
              matrix.score(query[position], static_cast<std::uint8_t>(code)) +
              bias_);
        }
      }
    }
  }
}

}  // namespace swdual::align
