#include "seq/queryset.h"

#include <algorithm>

#include "seq/dbgen.h"
#include "util/error.h"

namespace swdual::seq {

std::vector<Sequence> sample_query_set(const std::vector<Sequence>& database,
                                       std::size_t count, std::size_t min_len,
                                       std::size_t max_len,
                                       std::uint64_t seed) {
  SWDUAL_REQUIRE(count > 0, "query set must be non-empty");
  SWDUAL_REQUIRE(min_len >= 1 && min_len <= max_len,
                 "query length bounds invalid");
  Rng rng(seed);

  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < database.size(); ++i) {
    const std::size_t len = database[i].length();
    if (len >= min_len && len <= max_len) candidates.push_back(i);
  }

  std::vector<Sequence> queries;
  queries.reserve(count);

  // Anchor the extremes: one query at each length bound, synthesized if the
  // database has no record at that exact length. This matches the paper's
  // reporting of exact min/max query lengths per set.
  queries.push_back(random_protein(rng, "query_min", min_len));
  if (count > 1) queries.push_back(random_protein(rng, "query_max", max_len));

  while (queries.size() < count) {
    if (!candidates.empty()) {
      const std::size_t pick = candidates[rng.below(candidates.size())];
      Sequence q = database[pick];
      q.id = "query_" + std::to_string(queries.size()) + "_" + q.id;
      queries.push_back(std::move(q));
    } else {
      const auto len = static_cast<std::size_t>(
          rng.between(static_cast<std::int64_t>(min_len),
                      static_cast<std::int64_t>(max_len)));
      queries.push_back(random_protein(
          rng, "query_" + std::to_string(queries.size()), len));
    }
  }
  return queries;
}

}  // namespace swdual::seq
