// Karlin–Altschul statistics: E-values and bit scores for search hits.
//
// A raw Smith–Waterman score is meaningless without knowing how often chance
// alone produces it. Local alignment scores of random sequences follow an
// extreme-value (Gumbel) law: E(S) = K·m·n·e^(−λS). For ungapped scoring, λ
// is the unique positive root of Σ p_a p_b e^{λ·s(a,b)} = 1 (Karlin &
// Altschul 1990), computable analytically. For gapped scoring no closed form
// exists; like BLAST and SSEARCH we calibrate (λ, K) empirically from the
// score distribution of random sequence pairs.
#pragma once

#include <cstdint>
#include <vector>

#include "align/scoring.h"

namespace swdual::align {

/// Gumbel parameters of a scoring system.
struct KarlinAltschulParams {
  double lambda = 0.0;  ///< scale (nats per score unit)
  double k = 0.0;       ///< search-space prefactor
};

/// Solve Σ p_a p_b e^{λ s(a,b)} = 1 for the ungapped λ of `matrix` under
/// residue background frequencies `freqs` (one entry per alphabet code the
/// matrix scores; codes beyond freqs.size() are ignored). Throws
/// InvalidArgument unless the expected score is negative and some score is
/// positive (the Karlin–Altschul regime).
double solve_ungapped_lambda(const ScoreMatrix& matrix,
                             const std::vector<double>& freqs);

/// Empirically calibrate gapped (λ, K) for a scoring scheme by aligning
/// `samples` random sequence pairs of size ref_m × ref_n drawn from `freqs`
/// and fitting a Gumbel with the method of moments. Deterministic in `seed`.
/// The pairs are scored by the striped8 driver (equal to gotoh_score), so
/// the scheme must meet the striped8 kernel's gap limits, which every search
/// already requires: gap.extend >= 1 and gap.open + gap.extend <= 255.
KarlinAltschulParams calibrate_gapped_params(
    const ScoringScheme& scheme, const std::vector<double>& freqs,
    std::size_t ref_m = 200, std::size_t ref_n = 200,
    std::size_t samples = 200, std::uint64_t seed = 1);

/// Expected number of chance hits with score ≥ `score` in an m×n search.
double evalue(const KarlinAltschulParams& params, int score, std::uint64_t m,
              std::uint64_t n);

/// Probability of at least one chance hit with score ≥ `score`.
double pvalue(const KarlinAltschulParams& params, int score, std::uint64_t m,
              std::uint64_t n);

/// Normalized bit score: (λ·S − ln K) / ln 2.
double bit_score(const KarlinAltschulParams& params, int score);

}  // namespace swdual::align
