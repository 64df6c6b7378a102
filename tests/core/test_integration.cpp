// End-to-end integration: FASTA → SWDB → master–slave search → results,
// exercising the whole public API surface the way examples do.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "align/scalar.h"
#include "align/traceback.h"
#include "core/apps.h"
#include "master/master.h"
#include "sched/dual_approx.h"
#include "seq/dbgen.h"
#include "seq/fasta.h"
#include "seq/queryset.h"
#include "seq/swdb.h"
#include "util/rng.h"

namespace swdual {
namespace {

TEST(EndToEnd, FastaToSwdbToSearch) {
  const std::string fasta_path = ::testing::TempDir() + "/e2e.fa";
  const std::string swdb_path = ::testing::TempDir() + "/e2e.swdb";

  // 1. Write a small database as FASTA (the user's input format).
  seq::DatabaseProfile profile{"e2e", 30, 20, 200, 4.5, 0.4, 77};
  const auto records = seq::generate_database(profile);
  seq::write_fasta_file(fasta_path, records);

  // 2. Convert to the binary random-access format (paper §IV).
  const auto converted =
      seq::read_fasta_file(fasta_path, seq::AlphabetKind::kProtein);
  EXPECT_EQ(converted.size(), records.size());
  seq::write_swdb(swdb_path, converted, seq::AlphabetKind::kProtein);

  // 3. Load through the SWDB reader, as master and workers do.
  const seq::MappedSwdb mapped(swdb_path);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    db.push_back(mapped.record(i));
  }
  ASSERT_EQ(db, records);

  // 4. Sample queries and run the hybrid search.
  const auto queries = seq::sample_query_set(db, 4, 20, 200, 5);
  master::MasterConfig config;
  config.cpu_workers = 1;
  config.gpu_workers = 1;
  config.top_hits = 3;
  const auto report = master::run_search(queries, db, config);
  ASSERT_EQ(report.results.size(), 4u);

  // 5. Verify the top hit of query 0 against the oracle, and that a full
  //    alignment of that pair can be produced.
  const align::ScoringScheme scheme;
  int expected_best = 0;
  std::size_t expected_index = 0;
  for (std::size_t d = 0; d < db.size(); ++d) {
    const int score =
        align::gotoh_score(
            {queries[0].residues.data(), queries[0].residues.size()},
            {db[d].residues.data(), db[d].residues.size()}, scheme)
            .score;
    if (score > expected_best) {
      expected_best = score;
      expected_index = d;
    }
  }
  EXPECT_EQ(report.results[0].hits[0].score, expected_best);
  EXPECT_EQ(report.results[0].hits[0].db_index, expected_index);

  const align::Alignment alignment = align::sw_align_affine(
      {queries[0].residues.data(), queries[0].residues.size()},
      {db[expected_index].residues.data(), db[expected_index].residues.size()},
      scheme);
  EXPECT_EQ(alignment.score, expected_best);

  std::remove(fasta_path.c_str());
  std::remove(swdb_path.c_str());
}

TEST(EndToEnd, PaperPipelineVirtualAndRealAgreeOnStructure) {
  // The same allocation logic drives both the real master–slave runtime and
  // the virtual DES driver; on a common workload their CPU/GPU task splits
  // must agree.
  Rng rng(3);
  std::vector<seq::Sequence> db, queries;
  for (int i = 0; i < 50; ++i) {
    db.push_back(seq::random_protein(rng, "d", 100));
  }
  for (int i = 0; i < 8; ++i) {
    queries.push_back(
        seq::random_protein(rng, "q", 50 + static_cast<std::size_t>(i) * 30));
  }

  master::MasterConfig config;
  config.cpu_workers = 2;
  config.gpu_workers = 2;
  const auto report = master::run_search(queries, db, config);

  // Build the equivalent workload and schedule it directly.
  core::Workload workload;
  workload.name = "adhoc";
  for (const auto& q : queries) workload.query_lengths.push_back(q.length());
  workload.db_sequences = db.size();
  for (const auto& d : db) workload.db_residues += d.length();

  platform::PerfModel model;
  const auto tasks =
      core::make_tasks(workload, model.cpu_worker(), model.gpu_worker());
  const auto plan = sched::swdual_schedule(tasks, {2, 2});

  for (const auto& task : tasks) {
    const auto in_master = report.planned.find_task(task.id);
    const auto in_direct = plan.find_task(task.id);
    ASSERT_TRUE(in_master.has_value());
    ASSERT_TRUE(in_direct.has_value());
    EXPECT_EQ(static_cast<int>(in_master->pe.type),
              static_cast<int>(in_direct->pe.type))
        << "task " << task.id;
  }
}

TEST(EndToEnd, Table4ShapeAtReducedScale) {
  // Table IV: adding workers keeps reducing time, GCUPS grows ~linearly.
  const core::Workload w =
      core::make_workload("ensembl_dog", seq::QuerySetKind::kPaper, 20);
  const auto two = core::run_app_virtual(core::AppKind::kSwdual, w, 2);
  const auto four = core::run_app_virtual(core::AppKind::kSwdual, w, 4);
  const auto eight = core::run_app_virtual(core::AppKind::kSwdual, w, 8);
  EXPECT_LT(four.virtual_seconds, two.virtual_seconds);
  EXPECT_LT(eight.virtual_seconds, four.virtual_seconds);
  EXPECT_GT(four.gcups, two.gcups);
  EXPECT_GT(eight.gcups, four.gcups);
}

TEST(EndToEnd, Table5ShapeHomogeneousVsHeterogeneous) {
  // Table V: both query sets achieve similar GCUPS at 8 workers (the
  // allocator handles similar and dissimilar task sizes equally well).
  const core::Workload homo =
      core::make_workload("uniprot", seq::QuerySetKind::kHomogeneous, 1);
  const core::Workload hetero =
      core::make_workload("uniprot", seq::QuerySetKind::kHeterogeneous, 1);
  const auto homo_run = core::run_app_virtual(core::AppKind::kSwdual, homo, 8);
  const auto hetero_run =
      core::run_app_virtual(core::AppKind::kSwdual, hetero, 8);
  EXPECT_GT(homo_run.gcups, 0.0);
  EXPECT_GT(hetero_run.gcups, 0.0);
  // Paper: 145.14 vs 146.92 GCUPS — within a few percent of each other.
  EXPECT_NEAR(homo_run.gcups / hetero_run.gcups, 1.0, 0.35);
}

}  // namespace
}  // namespace swdual
