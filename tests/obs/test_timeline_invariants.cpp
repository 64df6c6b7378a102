// Timeline invariant suite (ISSUE 2 satellites): for every allocation
// policy, the traced execution must be a physically consistent timeline —
// well-formed spans, no overlap per PE, and busy sums that reproduce the
// SearchReport aggregates. Plus the fault-injection trace contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "master/master.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/dbgen.h"
#include "util/rng.h"

namespace swdual::master {
namespace {

struct Fixture {
  std::vector<seq::Sequence> queries;
  std::vector<seq::Sequence> db;

  explicit Fixture(std::size_t num_queries = 8, std::size_t db_size = 30,
                   std::uint64_t seed = 97) {
    Rng rng(seed);
    for (std::size_t q = 0; q < num_queries; ++q) {
      queries.push_back(seq::random_protein(
          rng, "q" + std::to_string(q),
          static_cast<std::size_t>(rng.between(30, 100))));
    }
    for (std::size_t d = 0; d < db_size; ++d) {
      db.push_back(seq::random_protein(
          rng, "d" + std::to_string(d),
          static_cast<std::size_t>(rng.between(20, 120))));
    }
  }
};

std::vector<obs::TraceEvent> task_spans(
    const std::vector<obs::TraceEvent>& events, obs::Clock clock) {
  std::vector<obs::TraceEvent> spans;
  for (const obs::TraceEvent& event : events) {
    if (event.category == "task" && event.clock == clock) {
      spans.push_back(event);
    }
  }
  return spans;
}

class TimelinePolicies : public ::testing::TestWithParam<AllocationPolicy> {};

TEST_P(TimelinePolicies, SpansAreWellFormedNonOverlappingAndSumToBusy) {
  const Fixture fixture;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  MasterConfig config;
  config.cpu_workers = 2;
  config.gpu_workers = 2;
  config.policy = GetParam();
  config.tracer = &tracer;
  config.metrics = &metrics;
  const SearchReport report = run_search(fixture.queries, fixture.db, config);
  const std::vector<obs::TraceEvent> events = tracer.flush();

  // Every span is well-formed on both clock domains.
  for (const obs::TraceEvent& event : events) {
    EXPECT_GE(event.end, event.start)
        << policy_name(GetParam()) << ": span '" << event.name
        << "' ends before it starts";
  }

  // Exactly one successful task span per query, and dispatch accounting.
  const auto virtual_spans = task_spans(events, obs::Clock::kVirtual);
  ASSERT_EQ(virtual_spans.size(), fixture.queries.size());
  EXPECT_DOUBLE_EQ(metrics.counter("tasks_dispatched"),
                   static_cast<double>(fixture.queries.size()));
  EXPECT_DOUBLE_EQ(metrics.counter("task_retries"), 0.0);

  // Per PE (track), spans never overlap — on either clock.
  for (const obs::Clock clock : {obs::Clock::kVirtual, obs::Clock::kWall}) {
    std::map<std::size_t, std::vector<obs::TraceEvent>> per_track;
    for (const obs::TraceEvent& span : task_spans(events, clock)) {
      per_track[span.track].push_back(span);
    }
    for (auto& [track, spans] : per_track) {
      std::sort(spans.begin(), spans.end(),
                [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                  return a.start < b.start;
                });
      for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i].start, spans[i - 1].end - 1e-12)
            << policy_name(GetParam()) << ": overlapping task spans on track "
            << track << " (clock " << static_cast<int>(clock) << ")";
      }
    }
  }

  // Per-worker virtual span sums reproduce SearchReport::worker_virtual_busy.
  std::map<std::size_t, double> span_busy;  // worker id → Σ virtual duration
  for (const obs::TraceEvent& span : virtual_spans) {
    span_busy[span.track - 1] += span.duration();
  }
  for (const auto& [worker_id, busy] : report.worker_virtual_busy) {
    EXPECT_NEAR(span_busy[worker_id], busy, 1e-9)
        << policy_name(GetParam()) << ": worker " << worker_id;
  }
  for (const auto& [worker_id, busy] : span_busy) {
    EXPECT_TRUE(report.worker_virtual_busy.count(worker_id))
        << "trace has spans for worker " << worker_id
        << " missing from the report";
    (void)busy;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TimelinePolicies,
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

TEST(FaultTrace, TwoFaultsShowTwoRetriesAndAWorkerMove) {
  const Fixture fixture(6, 20, 101);
  constexpr std::size_t kDoomedTask = 3;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  MasterConfig config;
  config.cpu_workers = 2;
  config.gpu_workers = 2;
  config.tracer = &tracer;
  config.metrics = &metrics;
  // The fixed task fails on its first two attempts, wherever they land.
  auto failures = std::make_shared<std::atomic<int>>(0);
  config.fault_injector = [failures](std::size_t task_id, std::size_t) {
    return task_id == kDoomedTask && failures->fetch_add(1) < 2;
  };
  const SearchReport report = run_search(fixture.queries, fixture.db, config);
  ASSERT_EQ(report.results.size(), fixture.queries.size());

  const std::vector<obs::TraceEvent> events = tracer.flush();
  std::vector<obs::TraceEvent> faults;
  std::vector<obs::TraceEvent> retries;
  std::vector<obs::TraceEvent> doomed_spans;
  for (const obs::TraceEvent& event : events) {
    if (event.category == "fault") faults.push_back(event);
    if (event.category == "retry") retries.push_back(event);
    if (event.category == "task" && event.clock == obs::Clock::kVirtual &&
        static_cast<std::size_t>(event.arg("task_id")) == kDoomedTask) {
      doomed_spans.push_back(event);
    }
  }

  // Exactly 2 fault + 2 retry events, counter agrees.
  ASSERT_EQ(faults.size(), 2u);
  ASSERT_EQ(retries.size(), 2u);
  EXPECT_DOUBLE_EQ(metrics.counter("task_retries"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.counter("task_faults"), 2.0);
  for (const obs::TraceEvent& retry : retries) {
    EXPECT_EQ(static_cast<std::size_t>(retry.arg("task_id")), kDoomedTask);
    // The master reroutes to a different worker than the one that failed.
    EXPECT_NE(retry.arg("failed_worker"), retry.arg("target_worker"));
  }

  // The task finally succeeded exactly once, on a different worker than the
  // one whose attempt failed last.
  ASSERT_EQ(doomed_spans.size(), 1u);
  const double last_failed_worker = faults.back().arg("worker");
  EXPECT_NE(doomed_spans[0].arg("worker"), last_failed_worker);
  EXPECT_DOUBLE_EQ(doomed_spans[0].arg("worker"),
                   retries.back().arg("target_worker"));

  // Dispatches = one per task + one per retry.
  EXPECT_DOUBLE_EQ(metrics.counter("tasks_dispatched"),
                   static_cast<double>(fixture.queries.size()) + 2.0);
}

TEST(EmptyWorkload, IdleFractionIsZeroNotNaN) {
  const Fixture fixture(1, 5, 103);
  MasterConfig config;
  const SearchReport report = run_search({}, fixture.db, config);
  EXPECT_TRUE(report.results.empty());
  EXPECT_TRUE(std::isfinite(report.virtual_idle_fraction));
  EXPECT_DOUBLE_EQ(report.virtual_idle_fraction, 0.0);
  EXPECT_DOUBLE_EQ(report.virtual_makespan, 0.0);
}

}  // namespace
}  // namespace swdual::master
