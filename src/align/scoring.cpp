#include "align/scoring.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace swdual::align {

ScoreMatrix::ScoreMatrix(seq::AlphabetKind alphabet, std::size_t size,
                         std::vector<std::int8_t> scores, std::string name)
    : alphabet_(alphabet),
      size_(size),
      scores_(std::move(scores)),
      name_(std::move(name)) {
  SWDUAL_REQUIRE(size_ > 0, "matrix size must be positive");
  SWDUAL_REQUIRE(scores_.size() == size_ * size_,
                 "matrix data does not match size^2");
  SWDUAL_REQUIRE(size_ == seq::Alphabet::get(alphabet_).size(),
                 "matrix size must equal alphabet size");
  max_score_ = *std::max_element(scores_.begin(), scores_.end());
  min_score_ = *std::min_element(scores_.begin(), scores_.end());
}

bool ScoreMatrix::symmetric() const {
  for (std::size_t a = 0; a < size_; ++a) {
    for (std::size_t b = a + 1; b < size_; ++b) {
      if (scores_[a * size_ + b] != scores_[b * size_ + a]) return false;
    }
  }
  return true;
}

const ScoreMatrix& ScoreMatrix::blosum62() {
  // NCBI BLOSUM62, rows/cols in ARNDCQEGHILKMFPSTWYVBZX* order — the same
  // order as seq::Alphabet::protein(), so alphabet codes index directly.
  static const ScoreMatrix matrix = [] {
    static constexpr std::int8_t kData[24 * 24] = {
        // A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   B   Z   X   *
        4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0, -2, -1, 0, -4,
        -1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3, -1, 0, -1, -4,
        -2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3, 3, 0, -1, -4,
        -2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3, 4, 1, -1, -4,
        0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4,
        -1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2, 0, 3, -1, -4,
        -1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4,
        0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3, -1, -2, -1, -4,
        -2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3, 0, 0, -1, -4,
        -1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3, -3, -3, -1, -4,
        -1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1, -4, -3, -1, -4,
        -1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2, 0, 1, -1, -4,
        -1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1, -3, -1, -1, -4,
        -2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1, -3, -3, -1, -4,
        -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2, -2, -1, -2, -4,
        1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2, 0, 0, 0, -4,
        0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0, -1, -1, 0, -4,
        -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3, -4, -3, -2, -4,
        -2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1, -3, -2, -1, -4,
        0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4, -3, -2, -1, -4,
        -2, -1, 3, 4, -3, 0, 1, -1, 0, -3, -4, 0, -3, -3, -2, 0, -1, -4, -3, -3, 4, 1, -1, -4,
        -1, 0, 0, 1, -3, 3, 4, -2, 0, -3, -3, 1, -1, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4,
        0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2, 0, 0, -2, -1, -1, -1, -1, -1, -4,
        -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, 1,
    };
    return ScoreMatrix(seq::AlphabetKind::kProtein, 24,
                       std::vector<std::int8_t>(kData, kData + 24 * 24),
                       "BLOSUM62");
  }();
  return matrix;
}

ScoreMatrix ScoreMatrix::uniform(seq::AlphabetKind alphabet, std::int8_t match,
                                 std::int8_t mismatch) {
  const seq::Alphabet& codes = seq::Alphabet::get(alphabet);
  const std::size_t n = codes.size();
  const std::uint8_t wildcard = codes.wildcard_code();
  std::vector<std::int8_t> data(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == wildcard || b == wildcard) {
        data[a * n + b] = 0;
      } else {
        data[a * n + b] = (a == b) ? match : mismatch;
      }
    }
  }
  std::ostringstream name;
  name << "uniform(" << int(match) << '/' << int(mismatch) << ')';
  return ScoreMatrix(alphabet, n, std::move(data), name.str());
}

}  // namespace swdual::align
