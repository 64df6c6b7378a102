// Unit tests for substitution matrices and scheme parsing.
#include <gtest/gtest.h>

#include "align/scoring.h"
#include "util/error.h"

namespace swdual::align {
namespace {

using seq::Alphabet;
using seq::AlphabetKind;

TEST(Blosum62, WellKnownEntries) {
  const ScoreMatrix& m = ScoreMatrix::blosum62();
  const Alphabet& a = Alphabet::protein();
  const auto s = [&](char x, char y) {
    return m.score(a.encode(x), a.encode(y));
  };
  EXPECT_EQ(s('A', 'A'), 4);
  EXPECT_EQ(s('W', 'W'), 11);
  EXPECT_EQ(s('C', 'C'), 9);
  EXPECT_EQ(s('A', 'R'), -1);
  EXPECT_EQ(s('W', 'Y'), 2);
  EXPECT_EQ(s('L', 'I'), 2);
  EXPECT_EQ(s('E', 'Z'), 4);
  EXPECT_EQ(s('*', '*'), 1);
  EXPECT_EQ(s('G', '*'), -4);
}

TEST(Blosum62, IsSymmetric) { EXPECT_TRUE(ScoreMatrix::blosum62().symmetric()); }

TEST(Blosum62, DiagonalIsRowMaximum) {
  // Every standard residue scores best against itself in BLOSUM62.
  const ScoreMatrix& m = ScoreMatrix::blosum62();
  for (std::uint8_t a = 0; a < 20; ++a) {
    for (std::uint8_t b = 0; b < 20; ++b) {
      EXPECT_LE(m.score(a, b), m.score(a, a))
          << "row " << int(a) << " col " << int(b);
    }
  }
}

TEST(Blosum62, MinMaxCached) {
  const ScoreMatrix& m = ScoreMatrix::blosum62();
  EXPECT_EQ(m.max_score(), 11);
  EXPECT_EQ(m.min_score(), -4);
}

TEST(UniformMatrix, MatchMismatchAndWildcard) {
  const ScoreMatrix m = ScoreMatrix::uniform(AlphabetKind::kDna, 5, -4);
  const Alphabet& a = Alphabet::dna();
  EXPECT_EQ(m.score(a.encode('A'), a.encode('A')), 5);
  EXPECT_EQ(m.score(a.encode('A'), a.encode('C')), -4);
  EXPECT_EQ(m.score(a.encode('A'), a.encode('N')), 0);
  EXPECT_EQ(m.score(a.encode('N'), a.encode('N')), 0);
  EXPECT_TRUE(m.symmetric());
}

TEST(ScoreMatrixInvariants, RejectsWrongSize) {
  EXPECT_THROW(ScoreMatrix(AlphabetKind::kDna, 5,
                           std::vector<std::int8_t>(10, 0), "bad"),
               InvalidArgument);
  EXPECT_THROW(ScoreMatrix(AlphabetKind::kDna, 3,
                           std::vector<std::int8_t>(9, 0), "bad"),
               InvalidArgument);
}

}  // namespace
}  // namespace swdual::align
