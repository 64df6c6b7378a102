// Unit tests for paper query-set construction (§V-A and §V-C): the three
// sets' length bounds, drawn through sample_query_set.
#include <gtest/gtest.h>

#include "seq/dbgen.h"
#include "seq/queryset.h"
#include "util/error.h"

namespace swdual::seq {
namespace {

std::vector<Sequence> small_uniprot() {
  DatabaseProfile p = table3_profile("uniprot", 1000);  // 537 sequences
  return generate_database(p);
}

TEST(QuerySet, PaperSetHas40SequencesInRange) {
  const auto db = small_uniprot();
  const auto queries = sample_query_set(db, kPaperQueryCount, 100, 5000, 42);
  ASSERT_EQ(queries.size(), kPaperQueryCount);
  std::size_t min_len = SIZE_MAX, max_len = 0;
  for (const auto& q : queries) {
    min_len = std::min(min_len, q.length());
    max_len = std::max(max_len, q.length());
  }
  EXPECT_EQ(min_len, 100u);   // anchored extremes, as reported in the paper
  EXPECT_EQ(max_len, 5000u);
}

TEST(QuerySet, HomogeneousSetIsNarrow) {
  const auto db = small_uniprot();
  const auto queries = sample_query_set(db, kPaperQueryCount, 4500, 5000, 42);
  for (const auto& q : queries) {
    EXPECT_GE(q.length(), 4500u);
    EXPECT_LE(q.length(), 5000u);
  }
}

TEST(QuerySet, HeterogeneousSetSpansDatabaseExtremes) {
  const auto db = small_uniprot();
  const auto queries = sample_query_set(db, kPaperQueryCount, 4, 35213, 42);
  std::size_t min_len = SIZE_MAX, max_len = 0;
  for (const auto& q : queries) {
    min_len = std::min(min_len, q.length());
    max_len = std::max(max_len, q.length());
  }
  EXPECT_EQ(min_len, 4u);
  EXPECT_EQ(max_len, 35213u);
}

TEST(QuerySet, DeterministicInSeed) {
  const auto db = small_uniprot();
  const auto a = sample_query_set(db, kPaperQueryCount, 100, 5000, 42);
  const auto b = sample_query_set(db, kPaperQueryCount, 100, 5000, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  const auto c = sample_query_set(db, kPaperQueryCount, 100, 5000, 43);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == c[i])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(QuerySet, WorksWithEmptyDatabase) {
  // All queries synthesized when the database offers no candidates.
  const std::vector<Sequence> empty;
  const auto queries = sample_query_set(empty, 10, 50, 60, 1);
  ASSERT_EQ(queries.size(), 10u);
  for (const auto& q : queries) {
    EXPECT_GE(q.length(), 50u);
    EXPECT_LE(q.length(), 60u);
  }
}

TEST(QuerySet, InvalidParametersRejected) {
  const std::vector<Sequence> empty;
  EXPECT_THROW(sample_query_set(empty, 0, 1, 10, 1), InvalidArgument);
  EXPECT_THROW(sample_query_set(empty, 5, 10, 2, 1), InvalidArgument);
}

}  // namespace
}  // namespace swdual::seq
