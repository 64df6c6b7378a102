// Tests for search-report rendering of annotated hits.
#include <gtest/gtest.h>

#include "align/annotate.h"
#include "core/report.h"
#include "seq/dbgen.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::core {
namespace {

align::KarlinAltschulParams test_params() { return {0.3, 0.1}; }

TEST(RenderReport, ShowsSignificantHitsOnly) {
  Rng rng(11);
  std::vector<seq::Sequence> db, queries;
  for (int i = 0; i < 10; ++i) {
    db.push_back(seq::random_protein(rng, "ref" + std::to_string(i), 100));
  }
  queries.push_back(db[4]);  // exact copy: extremely significant
  queries[0].id = "probe";

  const align::KarlinAltschulParams params = test_params();
  master::MasterConfig config;
  config.cpu_workers = 1;
  config.gpu_workers = 1;
  config.top_hits = 3;
  config.annotate.mode = align::AnnotateMode::kStats;
  config.stats = &params;
  const auto report = master::run_search(queries, db, config);

  const std::string text = render_search_report(queries, db, report, 1e-3);
  EXPECT_NE(text.find("Query: probe"), std::string::npos);
  EXPECT_NE(text.find("ref4"), std::string::npos);  // the self hit survives
  EXPECT_NE(text.find("GCUPS"), std::string::npos);
}

TEST(RenderReport, SuppressesInsignificantQueries) {
  Rng rng(13);
  std::vector<seq::Sequence> db, queries;
  for (int i = 0; i < 10; ++i) {
    db.push_back(seq::random_protein(rng, "ref" + std::to_string(i), 100));
  }
  queries.push_back(seq::random_protein(rng, "orphan", 100));
  const align::KarlinAltschulParams params = test_params();
  master::MasterConfig config;
  config.cpu_workers = 1;
  config.gpu_workers = 1;
  config.annotate.mode = align::AnnotateMode::kStats;
  config.stats = &params;
  const auto report = master::run_search(queries, db, config);
  // Absurdly strict cutoff: nothing qualifies.
  const std::string text = render_search_report(queries, db, report, 1e-30);
  EXPECT_NE(text.find("no hits below"), std::string::npos);
}

TEST(RenderReport, RejectsNonPositiveCutoff) {
  const master::SearchReport report;
  EXPECT_THROW(
      render_search_report({}, {}, report, 0.0),
      InvalidArgument);
}

}  // namespace
}  // namespace swdual::core
