#include "align/statistics.h"

#include <algorithm>
#include <cmath>

#include "align/search.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace swdual::align {

namespace {

/// Σ p_a p_b e^{λ s(a,b)} over the scored residue pairs.
double restriction_sum(const ScoreMatrix& matrix,
                       const std::vector<double>& freqs, double lambda) {
  double total = 0.0;
  for (std::size_t a = 0; a < freqs.size(); ++a) {
    if (freqs[a] == 0) continue;  // 0 · e^{λs} is NaN once e^{λs} overflows
    for (std::size_t b = 0; b < freqs.size(); ++b) {
      if (freqs[b] == 0) continue;
      total += freqs[a] * freqs[b] *
               std::exp(lambda * matrix.score(static_cast<std::uint8_t>(a),
                                              static_cast<std::uint8_t>(b)));
    }
  }
  return total;
}

constexpr double kEulerGamma = 0.57721566490153286;

}  // namespace

double solve_ungapped_lambda(const ScoreMatrix& matrix,
                             const std::vector<double>& freqs) {
  SWDUAL_REQUIRE(!freqs.empty() && freqs.size() <= matrix.size(),
                 "frequency vector does not fit the matrix");
  // Both moments are taken over the frequency SUPPORT: a positive score
  // reachable only through zero-frequency residues cannot occur in random
  // sequences, so counting it would pass the regime check and then leave
  // the restriction sum stuck below 1 forever.
  double expected = 0.0;
  int max_score = 0;
  for (std::size_t a = 0; a < freqs.size(); ++a) {
    if (freqs[a] == 0) continue;
    for (std::size_t b = 0; b < freqs.size(); ++b) {
      if (freqs[b] == 0) continue;
      const int s = matrix.score(static_cast<std::uint8_t>(a),
                                 static_cast<std::uint8_t>(b));
      expected += freqs[a] * freqs[b] * s;
      max_score = std::max(max_score, s);
    }
  }
  SWDUAL_REQUIRE(expected < 0,
                 "expected residue-pair score must be negative");
  SWDUAL_REQUIRE(max_score > 0,
                 "matrix must have a positive score on the frequency "
                 "support (positive scores on zero-frequency residues "
                 "cannot occur)");

  // f(λ) = Σ p_a p_b e^{λ s} − 1: f(0) = 0, f'(0) = E[s] < 0, f(λ) → ∞.
  // The positive root is unique; bracket it then bisect.
  double hi = 0.5;
  while (restriction_sum(matrix, freqs, hi) < 1.0) {
    hi *= 2.0;
    // Always-on: a matrix whose positive scores all sit on zero-frequency
    // residues never crosses 1, and the doubling would spin to inf.
    SWDUAL_REQUIRE(hi < 1e4,
                   "failed to bracket lambda: restriction sum never reaches 1 "
                   "(positive scores may lie on zero-frequency residues)");
  }
  double lo = 0.0;
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-12; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (restriction_sum(matrix, freqs, mid) < 1.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

KarlinAltschulParams calibrate_gapped_params(const ScoringScheme& scheme,
                                             const std::vector<double>& freqs,
                                             std::size_t ref_m,
                                             std::size_t ref_n,
                                             std::size_t samples,
                                             std::uint64_t seed) {
  SWDUAL_REQUIRE(samples >= 10, "need at least 10 calibration samples");
  SWDUAL_REQUIRE(ref_m > 0 && ref_n > 0, "reference sizes must be positive");

  // Cumulative sampler over the provided background. Zero-frequency entries
  // are excluded from the cdf outright: keeping them would duplicate the
  // previous cumulative value, and rng.uniform() == 0.0 (or u landing exactly
  // on such a duplicate) would make lower_bound select a residue that cannot
  // occur. `support` maps each cdf slot back to its original residue code.
  std::vector<double> cdf;
  std::vector<std::uint8_t> support;
  double total = 0.0;
  for (std::size_t code = 0; code < freqs.size(); ++code) {
    SWDUAL_REQUIRE(freqs[code] >= 0 && std::isfinite(freqs[code]),
                   "frequencies must be finite and non-negative");
    if (freqs[code] == 0) continue;
    total += freqs[code];
    cdf.push_back(total);
    support.push_back(static_cast<std::uint8_t>(code));
  }
  SWDUAL_REQUIRE(total > 0, "frequencies must not all be zero");
  for (double& c : cdf) c /= total;

  Rng rng(seed);
  const auto sample_seq = [&](std::size_t len) {
    std::vector<std::uint8_t> out(len);
    for (auto& code : out) {
      const double u = rng.uniform();
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      code = support[static_cast<std::size_t>(
          std::min<std::ptrdiff_t>(it - cdf.begin(),
                                   static_cast<std::ptrdiff_t>(cdf.size()) - 1))];
    }
    return out;
  };

  // Each pair is scored by the striped8 driver, whose 16- and 32-bit
  // escalation makes every score equal gotoh_score's.
  RunningStats scores;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto a = sample_seq(ref_m);
    const auto b = sample_seq(ref_n);
    const SearchProfiles profiles(a, scheme, KernelKind::kStriped8);
    const DbView pair = {b};
    scores.add(search_range(profiles, pair, 0, 1).scores.front());
  }

  // Method of moments for a Gumbel(μ, 1/λ):
  //   stddev = π / (λ √6),  mean = μ + γ/λ,  μ = ln(K·m·n)/λ.
  KarlinAltschulParams params;
  SWDUAL_CHECK(scores.stddev() > 0, "degenerate calibration distribution");
  params.lambda = kPi / (scores.stddev() * std::sqrt(6.0));
  const double mu = scores.mean() - kEulerGamma / params.lambda;
  params.k = std::exp(params.lambda * mu) /
             (static_cast<double>(ref_m) * static_cast<double>(ref_n));
  return params;
}

double evalue(const KarlinAltschulParams& params, int score, std::uint64_t m,
              std::uint64_t n) {
  SWDUAL_REQUIRE(params.lambda > 0 && params.k > 0 &&
                     std::isfinite(params.lambda) && std::isfinite(params.k),
                 "statistics parameters not calibrated");
  SWDUAL_REQUIRE(m > 0 && n > 0, "search-space sizes must be positive");
  return params.k * static_cast<double>(m) * static_cast<double>(n) *
         std::exp(-params.lambda * score);
}

double pvalue(const KarlinAltschulParams& params, int score, std::uint64_t m,
              std::uint64_t n) {
  return -std::expm1(-evalue(params, score, m, n));
}

double bit_score(const KarlinAltschulParams& params, int score) {
  SWDUAL_REQUIRE(params.lambda > 0 && params.k > 0 &&
                     std::isfinite(params.lambda) && std::isfinite(params.k),
                 "statistics parameters not calibrated");
  return (params.lambda * score - std::log(params.k)) / std::log(2.0);
}

}  // namespace swdual::align
