// Tests for Karlin–Altschul statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "align/statistics.h"
#include "seq/dbgen.h"
#include "util/error.h"

namespace swdual::align {
namespace {

TEST(UngappedLambda, Blosum62MatchesPublishedValue) {
  // BLAST reports λ ≈ 0.3176 for ungapped BLOSUM62 with Robinson background
  // frequencies.
  const double lambda = solve_ungapped_lambda(
      ScoreMatrix::blosum62(), seq::amino_acid_frequencies());
  EXPECT_NEAR(lambda, 0.3176, 0.02);
}

TEST(UngappedLambda, RootSatisfiesTheEquation) {
  const auto& freqs = seq::amino_acid_frequencies();
  const ScoreMatrix& matrix = ScoreMatrix::blosum62();
  const double lambda = solve_ungapped_lambda(matrix, freqs);
  double total = 0.0;
  for (std::size_t a = 0; a < freqs.size(); ++a) {
    for (std::size_t b = 0; b < freqs.size(); ++b) {
      total += freqs[a] * freqs[b] *
               std::exp(lambda * matrix.score(static_cast<std::uint8_t>(a),
                                              static_cast<std::uint8_t>(b)));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(UngappedLambda, RejectsPositiveExpectedScore) {
  // uniform(+1, +1): everything matches, E[s] > 0 — no Gumbel regime.
  const ScoreMatrix bad = ScoreMatrix::uniform(seq::AlphabetKind::kDna, 1, 1);
  const std::vector<double> freqs(4, 0.25);
  EXPECT_THROW(solve_ungapped_lambda(bad, freqs), InvalidArgument);
}

TEST(GappedCalibration, DeterministicAndPlausible) {
  ScoringScheme scheme;
  const auto& freqs = seq::amino_acid_frequencies();
  const KarlinAltschulParams a =
      calibrate_gapped_params(scheme, freqs, 100, 100, 60, 7);
  const KarlinAltschulParams b =
      calibrate_gapped_params(scheme, freqs, 100, 100, 60, 7);
  EXPECT_DOUBLE_EQ(a.lambda, b.lambda);
  EXPECT_DOUBLE_EQ(a.k, b.k);
  EXPECT_GT(a.lambda, 0.0);
  EXPECT_GT(a.k, 0.0);
  // Gapped λ is below the ungapped λ (gaps make high scores likelier).
  const double ungapped = solve_ungapped_lambda(
      ScoreMatrix::blosum62(), freqs);
  EXPECT_LT(a.lambda, ungapped * 1.3);
}

TEST(GappedCalibration, PinnedToTheScalarGotohCalibration) {
  // The calibration scores its pairs with the striped8 driver; these are
  // the values it gave when it scored them with scalar gotoh_score, so any
  // pair scored differently moves them.
  const auto& protein = seq::amino_acid_frequencies();
  const KarlinAltschulParams blosum =
      calibrate_gapped_params(ScoringScheme{}, protein);
  EXPECT_DOUBLE_EQ(blosum.lambda, 0.3376309231863806);
  EXPECT_DOUBLE_EQ(blosum.k, 0.18424554628997244);

  const KarlinAltschulParams cheap_gaps = calibrate_gapped_params(
      ScoringScheme{&ScoreMatrix::blosum62(), GapPenalty{5, 1}}, protein);
  EXPECT_DOUBLE_EQ(cheap_gaps.lambda, 0.12731951815223772);
  EXPECT_DOUBLE_EQ(cheap_gaps.k, 0.01832671312105269);

  const ScoreMatrix dna =
      ScoreMatrix::uniform(seq::AlphabetKind::kDna, 2, -3);
  const KarlinAltschulParams nucleotide = calibrate_gapped_params(
      ScoringScheme{&dna, GapPenalty{}}, std::vector<double>(4, 0.25), 80, 80,
      50, 9);
  EXPECT_DOUBLE_EQ(nucleotide.lambda, 0.58339553256614562);
  EXPECT_DOUBLE_EQ(nucleotide.k, 0.16660479921636731);
}

TEST(Evalue, DecreasesExponentiallyInScore) {
  KarlinAltschulParams params{0.3, 0.1};
  const double e50 = evalue(params, 50, 1000, 1000000);
  const double e60 = evalue(params, 60, 1000, 1000000);
  EXPECT_GT(e50, e60);
  EXPECT_NEAR(e50 / e60, std::exp(0.3 * 10), 1e-6);
}

TEST(Evalue, ScalesLinearlyWithSearchSpace) {
  KarlinAltschulParams params{0.3, 0.1};
  EXPECT_NEAR(evalue(params, 40, 2000, 500) / evalue(params, 40, 1000, 500),
              2.0, 1e-9);
}

TEST(Pvalue, BoundedAndMonotone) {
  KarlinAltschulParams params{0.3, 0.1};
  double previous = 1.0;
  for (int score = 20; score <= 120; score += 20) {
    const double p = pvalue(params, score, 300, 1000000);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_LE(p, previous);
    previous = p;
  }
}

TEST(BitScore, LinearInRawScore) {
  KarlinAltschulParams params{0.3, 0.1};
  const double b1 = bit_score(params, 100);
  const double b2 = bit_score(params, 200);
  EXPECT_NEAR(b2 - b1, 0.3 * 100 / std::log(2.0), 1e-9);
}

TEST(Statistics, UncalibratedParamsRejected) {
  KarlinAltschulParams params;  // zeros
  EXPECT_THROW(evalue(params, 50, 100, 100), InvalidArgument);
  EXPECT_THROW(bit_score(params, 50), InvalidArgument);
}

TEST(Statistics, NonFiniteParamsAndEmptySearchSpaceRejected) {
  KarlinAltschulParams nan_lambda{
      std::numeric_limits<double>::quiet_NaN(), 0.1};
  EXPECT_THROW(evalue(nan_lambda, 50, 100, 100), InvalidArgument);
  EXPECT_THROW(bit_score(nan_lambda, 50), InvalidArgument);
  KarlinAltschulParams inf_k{0.3, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(evalue(inf_k, 50, 100, 100), InvalidArgument);
  EXPECT_THROW(bit_score(inf_k, 50), InvalidArgument);
  // A zero-size search space has no chance hits to count; silently
  // returning E = 0 would fake infinite significance.
  KarlinAltschulParams good{0.3, 0.1};
  EXPECT_THROW(evalue(good, 50, 0, 100), InvalidArgument);
  EXPECT_THROW(evalue(good, 50, 100, 0), InvalidArgument);
  EXPECT_THROW(pvalue(good, 50, 0, 100), InvalidArgument);
  EXPECT_THROW(pvalue(good, 50, 100, 0), InvalidArgument);
}

TEST(GappedCalibration, ZeroFrequencyResiduesAreNeverSampled) {
  // Regression: the CDF sampler used to map a residue whose frequency is
  // exactly 0 to the next non-zero entry's slot only by luck of the
  // upper_bound, and rng.uniform() can return exactly 0.0, which landed on
  // the first code even when its frequency was 0. Calibrating with
  // freqs = {0, p, q} over a 3×3 matrix must equal calibrating with
  // {p, q} over the 2×2 submatrix that drops residue 0.
  const ScoreMatrix dna = ScoreMatrix::uniform(seq::AlphabetKind::kDna, 2,
                                               -3);
  ScoringScheme padded;
  padded.matrix = &dna;
  const KarlinAltschulParams with_zero = calibrate_gapped_params(
      padded, {0.0, 0.5, 0.5}, 80, 80, 50, 9);
  const KarlinAltschulParams without_zero = calibrate_gapped_params(
      padded, {0.5, 0.5}, 80, 80, 50, 9);
  // Identical sample streams: the shifted support must not change which
  // residues (beyond relabeling) or how many randoms are drawn. The
  // uniform matrix scores depend only on equality, and codes 1/2 vs 0/1
  // keep the same equality pattern under the same RNG stream.
  EXPECT_DOUBLE_EQ(with_zero.lambda, without_zero.lambda);
  EXPECT_DOUBLE_EQ(with_zero.k, without_zero.k);
}

TEST(GappedCalibration, RejectsNegativeAndNonFiniteFrequencies) {
  const ScoringScheme scheme;
  EXPECT_THROW(
      calibrate_gapped_params(scheme, {0.5, -0.5, 1.0}, 40, 40, 10, 1),
      InvalidArgument);
  EXPECT_THROW(
      calibrate_gapped_params(
          scheme, {0.5, std::numeric_limits<double>::quiet_NaN()}, 40, 40,
          10, 1),
      InvalidArgument);
}

TEST(UngappedLambda, BracketingFailureReportsInvalidArgument) {
  // The only positive score lies on a zero-frequency residue pair: the
  // restriction sum never reaches 1, so λ cannot be bracketed. This must
  // surface as InvalidArgument (clear diagnosis), not an infinite loop or
  // a garbage λ.
  const std::size_t size = seq::Alphabet::get(seq::AlphabetKind::kDna).size();
  std::vector<std::int8_t> scores(size * size, -1);
  scores[2 * size + 2] = 5;  // positive score only on dead residue 2
  const ScoreMatrix lopsided(seq::AlphabetKind::kDna, size, scores,
                             "lopsided");
  EXPECT_THROW(solve_ungapped_lambda(lopsided, {0.5, 0.5, 0.0}),
               InvalidArgument);
}

}  // namespace
}  // namespace swdual::align
