#include "seq/dbgen.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace swdual::seq {

std::vector<DatabaseProfile> table3_profiles(std::size_t scale_denominator) {
  SWDUAL_REQUIRE(scale_denominator >= 1, "scale denominator must be >= 1");
  const auto scaled = [scale_denominator](std::size_t n) {
    return std::max<std::size_t>(1, n / scale_denominator);
  };
  // Counts and length bounds from Table III. The min/max columns in the
  // paper describe the *query* lengths drawn from each database; we use them
  // as database length bounds as well (UniProt's true span is wider — the
  // heterogeneous query set in §V-C needs sequences of length 4..35213, so
  // UniProt keeps the full span).
  std::vector<DatabaseProfile> profiles = {
      {"ensembl_dog", scaled(25160), 100, 4996, 5.7, 0.65, 101},
      {"ensembl_rat", scaled(32971), 100, 4992, 5.7, 0.65, 102},
      {"refseq_human", scaled(34705), 100, 4981, 5.7, 0.65, 103},
      {"refseq_mouse", scaled(29437), 100, 5000, 5.7, 0.65, 104},
      {"uniprot", scaled(537505), 4, 35213, 5.7, 0.65, 105},
  };
  return profiles;
}

DatabaseProfile table3_profile(const std::string& name,
                               std::size_t scale_denominator) {
  for (DatabaseProfile& profile : table3_profiles(scale_denominator)) {
    if (profile.name == name) return profile;
  }
  throw InvalidArgument("unknown Table III database: " + name);
}

const std::vector<double>& amino_acid_frequencies() {
  // Background frequencies for ARNDCQEGHILKMFPSTWYV (Robinson & Robinson
  // 1991, as used by BLAST's Karlin-Altschul statistics).
  static const std::vector<double> freqs = {
      0.078, 0.051, 0.045, 0.054, 0.019, 0.043, 0.063, 0.074, 0.022, 0.051,
      0.091, 0.057, 0.022, 0.039, 0.052, 0.071, 0.058, 0.013, 0.032, 0.064};
  return freqs;
}

namespace {
/// Cumulative distribution over the 20 standard amino acids.
const std::vector<double>& amino_acid_cdf() {
  static const std::vector<double> cdf = [] {
    std::vector<double> out;
    double total = 0.0;
    for (double f : amino_acid_frequencies()) {
      total += f;
      out.push_back(total);
    }
    // Normalize so the last bucket is exactly 1.
    for (double& v : out) v /= total;
    return out;
  }();
  return cdf;
}

std::uint8_t sample_residue(Rng& rng) {
  const double u = rng.uniform();
  const auto& cdf = amino_acid_cdf();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::uint8_t>(
      std::min<std::ptrdiff_t>(it - cdf.begin(), 19));
}

std::size_t sample_length(Rng& rng, const DatabaseProfile& profile) {
  // Rejection-sample the truncated log-normal; fall back to clamping after
  // a bounded number of tries so pathological profiles still terminate.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double x = rng.lognormal(profile.lognormal_mu,
                                   profile.lognormal_sigma);
    const auto len = static_cast<std::size_t>(std::llround(x));
    if (len >= profile.min_length && len <= profile.max_length) return len;
  }
  const double x =
      rng.lognormal(profile.lognormal_mu, profile.lognormal_sigma);
  return std::clamp(static_cast<std::size_t>(std::llround(std::max(1.0, x))),
                    profile.min_length, profile.max_length);
}
}  // namespace

Sequence random_protein(Rng& rng, std::string id, std::size_t length) {
  Sequence record;
  record.id = std::move(id);
  record.alphabet = AlphabetKind::kProtein;
  record.residues.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    record.residues.push_back(sample_residue(rng));
  }
  return record;
}

std::vector<std::size_t> generate_lengths(const DatabaseProfile& profile) {
  SWDUAL_REQUIRE(profile.num_sequences > 0, "profile has zero sequences");
  SWDUAL_REQUIRE(profile.min_length >= 1 &&
                     profile.min_length <= profile.max_length,
                 "profile length bounds invalid");
  Rng rng(profile.seed);
  std::vector<std::size_t> lengths;
  lengths.reserve(profile.num_sequences);
  // Pin the extremes so min/max length match the profile exactly, as the
  // paper's Table III reports exact smallest/largest query lengths.
  for (std::size_t i = 0; i < profile.num_sequences; ++i) {
    if (i == 0) {
      lengths.push_back(profile.min_length);
    } else if (i == 1 && profile.num_sequences > 1) {
      lengths.push_back(profile.max_length);
    } else {
      lengths.push_back(sample_length(rng, profile));
    }
  }
  return lengths;
}

std::vector<Sequence> generate_database(const DatabaseProfile& profile) {
  const std::vector<std::size_t> lengths = generate_lengths(profile);
  Rng rng(profile.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Sequence> records;
  records.reserve(lengths.size());
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    records.push_back(random_protein(
        rng, profile.name + "_" + std::to_string(i), lengths[i]));
  }
  return records;
}

}  // namespace swdual::seq
