#include "align/locate.h"

#include <algorithm>
#include <vector>

#include "align/scalar.h"
#include "util/error.h"

namespace swdual::align {

LocalRegion locate_best_alignment(std::span<const std::uint8_t> query,
                                  std::span<const std::uint8_t> db,
                                  const ScoringScheme& scheme) {
  LocalRegion region;
  const ScoreResult forward = gotoh_score(query, db, scheme);
  region.score = forward.score;
  if (forward.score == 0) return region;  // empty alignment
  region.query_end = forward.end_query;
  region.db_end = forward.end_db;

  // Reverse pass: the optimal alignment ends at (end_query, end_db); running
  // the same recursion on the reversed prefixes finds where it starts. The
  // reverse matrix's maximum equals the forward score, and the cell where it
  // is attained maps back to the start coordinates.
  std::vector<std::uint8_t> query_rev(query.begin(),
                                      query.begin() + forward.end_query);
  std::vector<std::uint8_t> db_rev(db.begin(), db.begin() + forward.end_db);
  std::reverse(query_rev.begin(), query_rev.end());
  std::reverse(db_rev.begin(), db_rev.end());
  const ScoreResult backward = gotoh_score(query_rev, db_rev, scheme);
  SWDUAL_CHECK(backward.score == forward.score,
               "reverse pass lost the optimal score");
  region.query_begin = forward.end_query - backward.end_query + 1;
  region.db_begin = forward.end_db - backward.end_db + 1;
  return region;
}

}  // namespace swdual::align
