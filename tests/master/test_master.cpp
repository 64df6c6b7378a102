// Integration tests for the master–slave runtime (paper Fig. 6).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "align/scalar.h"
#include "master/master.h"
#include "seq/dbgen.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::master {
namespace {

struct Fixture {
  std::vector<seq::Sequence> queries;
  std::vector<seq::Sequence> db;

  explicit Fixture(std::size_t num_queries = 6, std::size_t db_size = 40,
                   std::uint64_t seed = 17) {
    Rng rng(seed);
    for (std::size_t q = 0; q < num_queries; ++q) {
      queries.push_back(seq::random_protein(
          rng, "q" + std::to_string(q),
          static_cast<std::size_t>(rng.between(30, 120))));
    }
    for (std::size_t d = 0; d < db_size; ++d) {
      db.push_back(seq::random_protein(
          rng, "d" + std::to_string(d),
          static_cast<std::size_t>(rng.between(20, 150))));
    }
  }

  /// Reference: best hit per query via the scalar oracle.
  std::vector<int> best_scores() const {
    std::vector<int> best;
    const align::ScoringScheme scheme;
    for (const auto& query : queries) {
      int top = 0;
      for (const auto& record : db) {
        top = std::max(
            top, align::gotoh_score(
                     {query.residues.data(), query.residues.size()},
                     {record.residues.data(), record.residues.size()}, scheme)
                     .score);
      }
      best.push_back(top);
    }
    return best;
  }
};

class MasterPolicies : public ::testing::TestWithParam<AllocationPolicy> {};

TEST_P(MasterPolicies, AllPoliciesProduceExactTopHits) {
  const Fixture fixture;
  MasterConfig config;
  config.cpu_workers = 2;
  config.gpu_workers = 2;
  config.policy = GetParam();
  config.top_hits = 1;
  config.validate_contracts = true;
  const SearchReport report =
      run_search(fixture.queries, fixture.db, config);
  ASSERT_EQ(report.results.size(), fixture.queries.size());
  const std::vector<int> expected = fixture.best_scores();
  for (std::size_t q = 0; q < fixture.queries.size(); ++q) {
    ASSERT_EQ(report.results[q].hits.size(), 1u);
    EXPECT_EQ(report.results[q].hits[0].score, expected[q])
        << policy_name(GetParam()) << " query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MasterPolicies,
    ::testing::Values(AllocationPolicy::kSwdual,
                      AllocationPolicy::kSwdualRefined,
                      AllocationPolicy::kSelfScheduling,
                      AllocationPolicy::kEqualPower,
                      AllocationPolicy::kProportional, AllocationPolicy::kLpt),
    [](const auto& param_info) {
      std::string name = policy_name(param_info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(Master, VirtualAccountingPopulated) {
  const Fixture fixture;
  MasterConfig config;
  config.cpu_workers = 1;
  config.gpu_workers = 1;
  // Toy databases are smaller than a real dispatch batch: zero the modeled
  // per-task overheads so the scheduler sees the raw 3x GPU speed ratio and
  // a balanced CPU+GPU split is optimal.
  config.model.cudasw_gpu.task_overhead = 0.0;
  config.model.swipe_cpu.task_overhead = 0.0;
  const SearchReport report =
      run_search(fixture.queries, fixture.db, config);
  EXPECT_GT(report.total_cells, 0u);
  EXPECT_GT(report.virtual_makespan, 0.0);
  EXPECT_GT(report.virtual_gcups, 0.0);
  EXPECT_GE(report.wall_seconds, 0.0);
  EXPECT_FALSE(report.planned.empty());
  EXPECT_EQ(report.worker_virtual_busy.size(), 2u);
}

TEST(Master, SwdualPutsWorkOnBothPeTypes) {
  const Fixture fixture(12, 60, 23);
  MasterConfig config;
  config.cpu_workers = 2;
  config.gpu_workers = 2;
  config.model.cudasw_gpu.task_overhead = 0.0;  // see above
  config.model.swipe_cpu.task_overhead = 0.0;
  const SearchReport report =
      run_search(fixture.queries, fixture.db, config);
  std::size_t on_cpu = 0, on_gpu = 0;
  for (const auto& a : report.planned.assignments()) {
    (a.pe.type == sched::PeType::kCpu ? on_cpu : on_gpu)++;
  }
  EXPECT_GT(on_gpu, 0u);  // GPUs are faster: they must receive work
  EXPECT_EQ(on_cpu + on_gpu, fixture.queries.size());
}

TEST(Master, DynamicPolicyHasNoStaticPlan) {
  const Fixture fixture;
  MasterConfig config;
  config.policy = AllocationPolicy::kSelfScheduling;
  const SearchReport report =
      run_search(fixture.queries, fixture.db, config);
  EXPECT_TRUE(report.planned.empty());
  ASSERT_EQ(report.results.size(), fixture.queries.size());
}

TEST(Master, MoreWorkersThanTasks) {
  const Fixture fixture(2, 20, 31);
  MasterConfig config;
  config.cpu_workers = 4;
  config.gpu_workers = 4;
  const SearchReport report =
      run_search(fixture.queries, fixture.db, config);
  ASSERT_EQ(report.results.size(), 2u);
  for (const auto& r : report.results) EXPECT_FALSE(r.hits.empty());
}

TEST(Master, CpuOnlyAndGpuOnlyPlatforms) {
  const Fixture fixture(3, 15, 37);
  for (const auto& [cpus, gpus] :
       {std::pair<std::size_t, std::size_t>{2, 0}, {0, 2}}) {
    MasterConfig config;
    config.cpu_workers = cpus;
    config.gpu_workers = gpus;
    config.policy = AllocationPolicy::kSwdual;
    const SearchReport report =
        run_search(fixture.queries, fixture.db, config);
    ASSERT_EQ(report.results.size(), 3u);
  }
}

TEST(Master, EmptyQueriesEmptyReport) {
  const Fixture fixture(1, 5, 41);
  MasterConfig config;
  const SearchReport report = run_search({}, fixture.db, config);
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.total_cells, 0u);
}

TEST(Master, ZeroWorkersRejected) {
  const Fixture fixture(1, 5, 43);
  MasterConfig config;
  config.cpu_workers = 0;
  config.gpu_workers = 0;
  EXPECT_THROW(run_search(fixture.queries, fixture.db, config),
               InvalidArgument);
}

TEST(Master, MultiRoundMatchesOneRoundResults) {
  const Fixture fixture(9, 40, 51);
  MasterConfig one_round;
  one_round.cpu_workers = 1;
  one_round.gpu_workers = 1;
  one_round.top_hits = 2;
  MasterConfig three_rounds = one_round;
  three_rounds.rounds = 3;
  three_rounds.validate_contracts = true;  // every round's plan is contracted
  const SearchReport a = run_search(fixture.queries, fixture.db, one_round);
  const SearchReport b =
      run_search(fixture.queries, fixture.db, three_rounds);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t q = 0; q < a.results.size(); ++q) {
    ASSERT_EQ(a.results[q].hits.size(), b.results[q].hits.size());
    for (std::size_t h = 0; h < a.results[q].hits.size(); ++h) {
      EXPECT_EQ(a.results[q].hits[h].score, b.results[q].hits[h].score);
      EXPECT_EQ(a.results[q].hits[h].db_index, b.results[q].hits[h].db_index);
    }
  }
  // Every task still planned exactly once across rounds.
  EXPECT_EQ(b.planned.size(), fixture.queries.size());
}

TEST(Master, MoreRoundsThanTasksClamped) {
  const Fixture fixture(3, 10, 53);
  MasterConfig config;
  config.rounds = 100;
  const SearchReport report =
      run_search(fixture.queries, fixture.db, config);
  ASSERT_EQ(report.results.size(), 3u);
  for (const auto& r : report.results) EXPECT_FALSE(r.hits.empty());
}

TEST(Master, FaultyWorkerTasksReassignedExactResults) {
  // Worker 0 (a GPU) fails every task; the master must reroute everything
  // and still produce exact results.
  const Fixture fixture(6, 30, 61);
  MasterConfig config;
  config.cpu_workers = 2;
  config.gpu_workers = 2;
  config.top_hits = 1;
  config.fault_injector = [](std::size_t, std::size_t worker_id) {
    return worker_id == 0;
  };
  const SearchReport report =
      run_search(fixture.queries, fixture.db, config);
  const auto expected = fixture.best_scores();
  ASSERT_EQ(report.results.size(), fixture.queries.size());
  for (std::size_t q = 0; q < fixture.queries.size(); ++q) {
    EXPECT_EQ(report.results[q].hits[0].score, expected[q]) << "query " << q;
  }
}

TEST(Master, TransientFaultsRetriedInDynamicMode) {
  const Fixture fixture(8, 25, 63);
  MasterConfig config;
  config.cpu_workers = 1;
  config.gpu_workers = 1;
  config.policy = AllocationPolicy::kSelfScheduling;
  // Every task fails exactly once (on its first attempt).
  auto attempts = std::make_shared<std::map<std::size_t, int>>();
  auto mutex = std::make_shared<std::mutex>();
  config.fault_injector = [attempts, mutex](std::size_t task_id,
                                            std::size_t) {
    std::lock_guard<std::mutex> lock(*mutex);
    return (*attempts)[task_id]++ == 0;
  };
  const SearchReport report =
      run_search(fixture.queries, fixture.db, config);
  const auto expected = fixture.best_scores();
  for (std::size_t q = 0; q < fixture.queries.size(); ++q) {
    EXPECT_EQ(report.results[q].hits[0].score, expected[q]);
  }
}

TEST(Master, PermanentFailureEventuallyGivesUp) {
  const Fixture fixture(2, 10, 67);
  MasterConfig config;
  config.cpu_workers = 1;
  config.gpu_workers = 1;
  config.max_task_retries = 2;
  config.fault_injector = [](std::size_t task_id, std::size_t) {
    return task_id == 0;  // task 0 fails everywhere, forever
  };
  EXPECT_THROW(run_search(fixture.queries, fixture.db, config), Error);
}

TEST(Master, ThrowingTaskIsRetriedLikeAFault) {
  // A task that throws fails its attempt on the worker thread and is
  // reassigned like an injected fault, so the hits still equal the oracle.
  const Fixture fixture(6, 30, 71);
  const auto expected = fixture.best_scores();
  for (const AllocationPolicy policy :
       {AllocationPolicy::kSwdual, AllocationPolicy::kSelfScheduling}) {
    MasterConfig config;
    config.cpu_workers = 1;
    config.gpu_workers = 1;
    config.policy = policy;
    config.top_hits = 1;
    // Every task throws on its first attempt.
    auto attempts = std::make_shared<std::map<std::size_t, int>>();
    auto mutex = std::make_shared<std::mutex>();
    config.fault_injector = [attempts, mutex](std::size_t task_id,
                                              std::size_t) {
      std::lock_guard<std::mutex> lock(*mutex);
      if ((*attempts)[task_id]++ == 0) {
        throw std::runtime_error("task threw");
      }
      return false;
    };
    const SearchReport report =
        run_search(fixture.queries, fixture.db, config);
    ASSERT_EQ(report.results.size(), fixture.queries.size());
    for (std::size_t q = 0; q < fixture.queries.size(); ++q) {
      ASSERT_FALSE(report.results[q].hits.empty());
      EXPECT_EQ(report.results[q].hits[0].score, expected[q])
          << policy_name(policy) << " query " << q;
    }
  }
}

TEST(Master, ThrowingTaskPastBudgetThrowsOnTheCaller) {
  const Fixture fixture(2, 10, 73);
  MasterConfig config;
  config.cpu_workers = 1;
  config.gpu_workers = 1;
  config.max_task_retries = 2;
  config.fault_injector = [](std::size_t task_id, std::size_t) {
    if (task_id == 0) throw std::runtime_error("task 0 cannot build");
    return false;
  };
  try {
    (void)run_search(fixture.queries, fixture.db, config);
    FAIL() << "task 0 exhausted its retries without an error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("task 0 cannot build"),
              std::string::npos)
        << error.what();
  }
}

TEST(Master, TopHitsHonored) {
  const Fixture fixture(1, 30, 47);
  MasterConfig config;
  config.top_hits = 7;
  const SearchReport report =
      run_search(fixture.queries, fixture.db, config);
  EXPECT_EQ(report.results[0].hits.size(), 7u);
  // Hits sorted by score.
  for (std::size_t i = 1; i < report.results[0].hits.size(); ++i) {
    EXPECT_GE(report.results[0].hits[i - 1].score,
              report.results[0].hits[i].score);
  }
}

TEST(Master, VirtualTimeDoesNotDependOnTheExactKernel) {
  // Virtual time is charged from cells, and both exact kernels count a
  // pair as |q|·|d| while the banded screen counts each banded cell once:
  // switching the host scan between striped8 and the scalar kernel — on
  // the GPU worker too — must leave answers, cells and the whole modeled
  // timeline unchanged. Self-scheduling refills workers in real completion
  // order, so there each of the three workers gets exactly one task and the
  // assignment cannot depend on wall time.
  for (const AllocationPolicy policy :
       {AllocationPolicy::kSwdual, AllocationPolicy::kSelfScheduling}) {
    Fixture fixture(policy == AllocationPolicy::kSwdual ? 8 : 3, 50, 71);
    // A self-homolog of a 150-residue query scores far above 255, so
    // striped8 escalates it to 16 bits, and the SIMD screen regroups it
    // through its 16-bit tier where the scalar kernel's reference screen
    // runs one 32-bit pass.
    Rng rng(72);
    fixture.queries[0] = seq::random_protein(rng, "q0", 150);
    fixture.db.push_back(fixture.queries[0]);
    align::FilterConfig heuristic;
    heuristic.mode = align::FilterMode::kHeuristic;
    for (const align::FilterConfig& filter :
         {align::FilterConfig{}, heuristic}) {
      MasterConfig config;
      config.cpu_workers = 2;
      config.gpu_workers = 1;
      config.policy = policy;
      config.top_hits = 5;
      config.filter = filter;
      config.model.cudasw_gpu.task_overhead = 0.0;  // work on both PE types
      config.model.swipe_cpu.task_overhead = 0.0;
      config.cpu_kernel = align::KernelKind::kScalar;
      const SearchReport want =
          run_search(fixture.queries, fixture.db, config);
      config.cpu_kernel = align::KernelKind::kStriped8;
      const SearchReport got = run_search(fixture.queries, fixture.db, config);
      const std::string label = std::string(policy_name(policy)) + "/" +
                                align::filter_mode_name(filter.mode);

      ASSERT_EQ(want.results.size(), got.results.size()) << label;
      for (std::size_t q = 0; q < want.results.size(); ++q) {
        const auto& want_hits = want.results[q].hits;
        const auto& got_hits = got.results[q].hits;
        ASSERT_EQ(want_hits.size(), got_hits.size()) << label << " query " << q;
        for (std::size_t h = 0; h < want_hits.size(); ++h) {
          EXPECT_EQ(got_hits[h].db_index, want_hits[h].db_index) << label;
          EXPECT_EQ(got_hits[h].score, want_hits[h].score) << label;
        }
      }
      EXPECT_EQ(got.total_cells, want.total_cells) << label;
      EXPECT_EQ(got.virtual_makespan, want.virtual_makespan) << label;
      EXPECT_EQ(got.worker_virtual_busy, want.worker_virtual_busy) << label;
      EXPECT_EQ(got.worker_virtual_busy.size(), 3u) << label;
      const auto& want_plan = want.planned.assignments();
      const auto& got_plan = got.planned.assignments();
      ASSERT_EQ(got_plan.size(), want_plan.size()) << label;
      for (std::size_t a = 0; a < want_plan.size(); ++a) {
        EXPECT_EQ(got_plan[a].task_id, want_plan[a].task_id) << label;
        EXPECT_EQ(got_plan[a].pe, want_plan[a].pe) << label;
        EXPECT_EQ(got_plan[a].start, want_plan[a].start) << label;
        EXPECT_EQ(got_plan[a].end, want_plan[a].end) << label;
      }
    }
  }
}

}  // namespace
}  // namespace swdual::master
