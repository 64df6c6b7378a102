// Synthetic genomic database generation.
//
// The paper evaluates against five real protein databases (Table III):
//
//   Ensembl Dog    25,160 seqs   Ensembl Rat    32,971 seqs
//   RefSeq Human   34,705 seqs   RefSeq Mouse   29,437 seqs
//   UniProt       537,505 seqs
//
// Those databases are not redistributable here, so we generate synthetic
// stand-ins with matched sequence counts and realistic length distributions.
// Smith–Waterman cost depends only on sequence lengths (the DP matrix has
// |q|·|d| cells), so a database with the same count/length profile has the
// same cost structure as the real one — which is what the scheduling
// experiments measure. Residues are drawn from the natural amino-acid
// background frequencies so substitution-matrix score statistics are also
// realistic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "seq/sequence.h"
#include "util/rng.h"

namespace swdual::seq {

/// Parameters describing one database to synthesize. Lengths are drawn from
/// a log-normal distribution (the canonical model for protein lengths)
/// truncated to [min_length, max_length].
struct DatabaseProfile {
  std::string name;
  std::size_t num_sequences = 0;
  std::size_t min_length = 0;
  std::size_t max_length = 0;
  double lognormal_mu = 5.7;      // median length ≈ exp(mu) ≈ 300 aa
  double lognormal_sigma = 0.65;  // UniProt-like spread
  std::uint64_t seed = 1;
};

/// The five Table III database profiles, optionally scaled down.
/// `scale_denominator = 1` reproduces the paper's sequence counts exactly;
/// larger values divide the counts (lengths are unchanged) so the real
/// kernels finish in laptop time. The scaling factor must be recorded in any
/// reported result (the bench harness does this automatically).
std::vector<DatabaseProfile> table3_profiles(std::size_t scale_denominator);

/// Look up one of the Table III profiles by name ("uniprot", "ensembl_dog",
/// "ensembl_rat", "refseq_human", "refseq_mouse").
DatabaseProfile table3_profile(const std::string& name,
                               std::size_t scale_denominator);

/// Natural amino-acid background frequencies (Robinson & Robinson order
/// matching Alphabet::protein()'s first 20 codes).
const std::vector<double>& amino_acid_frequencies();

/// Generate one random protein sequence of exactly `length` residues.
Sequence random_protein(Rng& rng, std::string id, std::size_t length);

/// Generate only the sequence-length profile of a database (deterministic in
/// profile.seed; identical to the lengths of generate_database()). Smith–
/// Waterman cost is a function of lengths alone, so paper-scale scheduling
/// experiments can run from this without materializing 537k sequences.
std::vector<std::size_t> generate_lengths(const DatabaseProfile& profile);

/// Generate a full synthetic database for the profile (deterministic in
/// profile.seed).
std::vector<Sequence> generate_database(const DatabaseProfile& profile);

}  // namespace swdual::seq
