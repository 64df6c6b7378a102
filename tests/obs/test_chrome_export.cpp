// Chrome trace_event exporter tests (ISSUE 2 satellites): a golden-file
// comparison of a deterministic virtual-clock run, structural validation of
// the JSON (every event carries ph/ts/pid), and the acceptance check that
// per-worker busy sums recovered *from the exported JSON* match the
// SearchReport aggregates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_lite.h"
#include "master/master.h"
#include "obs/trace.h"
#include "platform/des.h"
#include "sched/schedule.h"
#include "sched/task.h"
#include "seq/dbgen.h"
#include "util/rng.h"

#ifndef SWDUAL_OBS_TEST_DIR
#error "SWDUAL_OBS_TEST_DIR must point at the directory holding golden files"
#endif

namespace swdual::obs {
namespace {

/// A small fixed workload replayed through the DES: timestamps are purely
/// virtual (modeled seconds), so the exported JSON is identical on every
/// host and can be compared byte-for-byte against the golden file.
std::string deterministic_trace_json() {
  const std::vector<sched::Task> tasks = {
      {0, 4.0, 1.0},
      {1, 2.0, 0.5},
      {2, 3.0, 1.5},
      {3, 1.0, 0.25},
  };
  const sched::HybridPlatform platform{/*num_cpus=*/2, /*num_gpus=*/1};
  sched::Schedule schedule;
  schedule.add({0, {sched::PeType::kGpu, 0}, 0.0, 1.0});
  schedule.add({3, {sched::PeType::kGpu, 0}, 1.0, 1.25});
  schedule.add({1, {sched::PeType::kCpu, 0}, 0.0, 2.0});
  schedule.add({2, {sched::PeType::kCpu, 1}, 0.0, 3.0});

  Tracer tracer;
  platform::simulate_static(schedule, tasks, platform, &tracer);
  ChromeTraceOptions options;
  options.track_names[worker_track(0)] = "gpu0";
  options.track_names[worker_track(1)] = "cpu0";
  options.track_names[worker_track(2)] = "cpu1";
  return chrome_trace_json(tracer.flush(), options);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ChromeExport, MatchesGoldenTrace) {
  const std::string actual = deterministic_trace_json();
  const std::string golden_path =
      std::string(SWDUAL_OBS_TEST_DIR) + "/golden_trace.json";
  if (std::getenv("SWDUAL_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << actual;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  const std::string golden = read_file(golden_path);
  EXPECT_EQ(actual, golden)
      << "exporter output drifted from tests/obs/golden_trace.json; if the "
         "change is intentional, regenerate the golden file";
}

TEST(ChromeExport, JsonParsesAndEveryEventHasPhTsPid) {
  const std::string json = deterministic_trace_json();
  const testjson::Value root = testjson::parse(json);  // throws if malformed
  ASSERT_EQ(root.kind, testjson::Value::Kind::kObject);
  ASSERT_TRUE(root.has("traceEvents"));
  const testjson::Value& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, testjson::Value::Kind::kArray);
  ASSERT_FALSE(events.array.empty());

  std::size_t task_events = 0;
  for (const testjson::Value& event : events.array) {
    ASSERT_EQ(event.kind, testjson::Value::Kind::kObject);
    EXPECT_TRUE(event.has("ph"));
    EXPECT_TRUE(event.has("ts"));
    EXPECT_TRUE(event.has("pid"));
    EXPECT_TRUE(event.has("tid"));
    const std::string ph = event.at("ph").string;
    EXPECT_TRUE(ph == "M" || ph == "X" || ph == "i") << "ph=" << ph;
    if (ph == "X") {
      ++task_events;
      EXPECT_TRUE(event.has("dur"));
      EXPECT_GE(event.at("dur").number, 0.0);
      // Virtual-clock DES events live on the virtual lane of their PE.
      EXPECT_DOUBLE_EQ(event.at("tid").number, 0.0);
      EXPECT_EQ(event.at("cat").string, "des");
    }
  }
  EXPECT_EQ(task_events, 4u);  // one complete event per scheduled task
}

TEST(ChromeExport, ExportedBusySumsMatchSearchReport) {
  // Full pipeline: run a search, export the trace, re-parse the JSON, and
  // recover per-worker virtual busy time from the file alone.
  Rng rng(211);
  std::vector<seq::Sequence> queries;
  std::vector<seq::Sequence> db;
  for (std::size_t q = 0; q < 6; ++q) {
    queries.push_back(seq::random_protein(
        rng, "q" + std::to_string(q),
        static_cast<std::size_t>(rng.between(30, 90))));
  }
  for (std::size_t d = 0; d < 25; ++d) {
    db.push_back(seq::random_protein(
        rng, "d" + std::to_string(d),
        static_cast<std::size_t>(rng.between(20, 100))));
  }

  Tracer tracer;
  master::MasterConfig config;
  config.cpu_workers = 2;
  config.gpu_workers = 1;
  config.tracer = &tracer;
  const master::SearchReport report = master::run_search(queries, db, config);
  const std::string json = chrome_trace_json(tracer.flush());

  const testjson::Value root = testjson::parse(json);
  std::map<std::size_t, double> busy_micros;  // worker id → Σ dur (µs)
  for (const testjson::Value& event : root.at("traceEvents").array) {
    if (event.at("ph").string != "X") continue;
    if (event.at("tid").number != 0.0) continue;        // virtual lane only
    if (event.at("cat").string != "task") continue;     // worker task spans
    const auto pid = static_cast<std::size_t>(event.at("pid").number);
    busy_micros[pid - 1] += event.at("dur").number;
  }

  ASSERT_FALSE(report.worker_virtual_busy.empty());
  double report_total = 0.0;
  for (const auto& [worker_id, busy] : report.worker_virtual_busy) {
    report_total += busy;
    // format_micros keeps 3 decimals of a microsecond, so each span is exact
    // to 1e-9 s; allow that much per contributing span.
    EXPECT_NEAR(busy_micros[worker_id] * 1e-6, busy,
                1e-9 * static_cast<double>(queries.size() + 1))
        << "worker " << worker_id;
  }
  EXPECT_GT(report_total, 0.0);
}

}  // namespace
}  // namespace swdual::obs
