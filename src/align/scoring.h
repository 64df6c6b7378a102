// Substitution matrices and gap models.
//
// Scores follow the paper's §II conventions: a substitution score S(a,b) per
// residue pair, and the Gotoh affine-gap model with gap-start penalty Gs and
// gap-extension penalty Ge (Equations 2–4: the first residue of a gap costs
// Gs+Ge, each further residue Ge). The simple linear model of Equation (1)
// charges a flat g per gap character.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "seq/alphabet.h"

namespace swdual::align {

/// A square substitution matrix indexed by alphabet codes.
class ScoreMatrix {
 public:
  ScoreMatrix() = default;

  /// Build from a row-major score table of dimension size x size.
  ScoreMatrix(seq::AlphabetKind alphabet, std::size_t size,
              std::vector<std::int8_t> scores, std::string name);

  /// The BLOSUM62 protein matrix (24x24, NCBI values) — the default for all
  /// protein experiments, as in SWIPE and CUDASW++.
  static const ScoreMatrix& blosum62();

  /// Parametric match/mismatch matrix for any alphabet (wildcard scores 0
  /// against everything). Used for DNA and for the Fig. 1 example.
  static ScoreMatrix uniform(seq::AlphabetKind alphabet, std::int8_t match,
                             std::int8_t mismatch);

  seq::AlphabetKind alphabet() const { return alphabet_; }
  std::size_t size() const { return size_; }
  const std::string& name() const { return name_; }

  /// Score of aligning residue codes a and b.
  std::int8_t score(std::uint8_t a, std::uint8_t b) const {
    return scores_[static_cast<std::size_t>(a) * size_ + b];
  }

  /// Raw row for code a (length size()).
  const std::int8_t* row(std::uint8_t a) const {
    return scores_.data() + static_cast<std::size_t>(a) * size_;
  }

  std::int8_t max_score() const { return max_score_; }
  std::int8_t min_score() const { return min_score_; }

  /// True if score(a,b) == score(b,a) for all codes.
  bool symmetric() const;

 private:
  seq::AlphabetKind alphabet_ = seq::AlphabetKind::kProtein;
  std::size_t size_ = 0;
  std::vector<std::int8_t> scores_;
  std::string name_;
  std::int8_t max_score_ = 0;
  std::int8_t min_score_ = 0;
};

/// Affine gap penalties (positive magnitudes, subtracted by the recursion).
struct GapPenalty {
  int open = 10;    ///< Gs — charged when a gap starts.
  int extend = 2;   ///< Ge — charged for every gap residue, including the first.
};

/// A complete pairwise-comparison scoring configuration.
struct ScoringScheme {
  const ScoreMatrix* matrix = &ScoreMatrix::blosum62();
  GapPenalty gap;
};

}  // namespace swdual::align
