// Query sets for the paper's three experimental configurations.
//
// §V-A/B use 40 real query sequences of length 100–5,000 aa taken from
// UniProt. §V-C adds two 40-sequence sets drawn from UniProt:
//   homogeneous   — lengths 4,500..5,000 (similar task sizes)
//   heterogeneous — lengths 4..35,213 (the database's full span)
// core::make_workload holds these bounds; sample_query_set draws real
// sequences inside any bounds.
#pragma once

#include <cstdint>
#include <vector>

#include "seq/sequence.h"
#include "util/rng.h"

namespace swdual::seq {

enum class QuerySetKind { kPaper, kHomogeneous, kHeterogeneous };

/// Number of query sequences in every paper experiment.
inline constexpr std::size_t kPaperQueryCount = 40;

/// Draw a query set of `count` sequences from the database records whose
/// lengths fall inside [min_len, max_len]; if the database lacks a length
/// extreme the set is topped up with synthetic sequences at the bound, so
/// the configured span is always realized. Deterministic in `seed`.
std::vector<Sequence> sample_query_set(const std::vector<Sequence>& database,
                                       std::size_t count, std::size_t min_len,
                                       std::size_t max_len,
                                       std::uint64_t seed);

}  // namespace swdual::seq
