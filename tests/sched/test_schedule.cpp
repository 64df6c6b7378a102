// Unit tests for the schedule model, validator, and metrics.
#include <gtest/gtest.h>

#include "sched/schedule.h"
#include "util/error.h"

namespace swdual::sched {
namespace {

std::vector<Task> three_tasks() {
  return {{0, 10.0, 2.0}, {1, 20.0, 4.0}, {2, 6.0, 3.0}};
}

TEST(Schedule, EmptyScheduleZeroMakespan) {
  Schedule s;
  EXPECT_EQ(s.makespan(), 0.0);
  EXPECT_EQ(s.area(PeType::kCpu), 0.0);
}

TEST(Schedule, MakespanAndAreas) {
  Schedule s;
  s.add({0, {PeType::kCpu, 0}, 0.0, 10.0});
  s.add({1, {PeType::kGpu, 0}, 0.0, 4.0});
  s.add({2, {PeType::kCpu, 1}, 0.0, 6.0});
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);
  EXPECT_DOUBLE_EQ(s.area(PeType::kCpu), 16.0);
  EXPECT_DOUBLE_EQ(s.area(PeType::kGpu), 4.0);
  EXPECT_DOUBLE_EQ(s.pe_finish({PeType::kCpu, 0}), 10.0);
  EXPECT_DOUBLE_EQ(s.pe_finish({PeType::kGpu, 1}), 0.0);
}

TEST(Schedule, FindTask) {
  Schedule s;
  s.add({7, {PeType::kGpu, 1}, 1.0, 3.0});
  ASSERT_TRUE(s.find_task(7).has_value());
  EXPECT_EQ(s.find_task(7)->pe.index, 1u);
  EXPECT_FALSE(s.find_task(8).has_value());
}

TEST(Validate, AcceptsCorrectSchedule) {
  const auto tasks = three_tasks();
  const HybridPlatform platform{2, 1};
  Schedule s;
  s.add({0, {PeType::kCpu, 0}, 0.0, 10.0});
  s.add({1, {PeType::kGpu, 0}, 0.0, 4.0});
  s.add({2, {PeType::kCpu, 0}, 10.0, 16.0});
  EXPECT_NO_THROW(validate_schedule(s, tasks, platform));
}

TEST(Validate, DetectsMissingTask) {
  const auto tasks = three_tasks();
  Schedule s;
  s.add({0, {PeType::kCpu, 0}, 0.0, 10.0});
  EXPECT_THROW(validate_schedule(s, tasks, {2, 1}), Error);
}

TEST(Validate, DetectsDuplicatePlacement) {
  const auto tasks = three_tasks();
  Schedule s;
  s.add({0, {PeType::kCpu, 0}, 0.0, 10.0});
  s.add({0, {PeType::kCpu, 1}, 0.0, 10.0});
  s.add({1, {PeType::kGpu, 0}, 0.0, 4.0});
  s.add({2, {PeType::kCpu, 0}, 10.0, 16.0});
  EXPECT_THROW(validate_schedule(s, tasks, {2, 1}), Error);
}

TEST(Validate, DetectsWrongDuration) {
  const auto tasks = three_tasks();
  Schedule s;
  s.add({0, {PeType::kCpu, 0}, 0.0, 2.0});  // CPU time is 10, not 2
  s.add({1, {PeType::kGpu, 0}, 0.0, 4.0});
  s.add({2, {PeType::kCpu, 0}, 10.0, 16.0});
  EXPECT_THROW(validate_schedule(s, tasks, {2, 1}), Error);
}

TEST(Validate, DetectsOverlapOnSamePe) {
  const auto tasks = three_tasks();
  Schedule s;
  s.add({0, {PeType::kCpu, 0}, 0.0, 10.0});
  s.add({2, {PeType::kCpu, 0}, 5.0, 11.0});  // overlaps task 0
  s.add({1, {PeType::kGpu, 0}, 0.0, 4.0});
  EXPECT_THROW(validate_schedule(s, tasks, {2, 1}), Error);
}

TEST(Validate, DetectsNonexistentPe) {
  const auto tasks = three_tasks();
  Schedule s;
  s.add({0, {PeType::kCpu, 5}, 0.0, 10.0});  // only 2 CPUs
  s.add({1, {PeType::kGpu, 0}, 0.0, 4.0});
  s.add({2, {PeType::kCpu, 0}, 0.0, 6.0});
  EXPECT_THROW(validate_schedule(s, tasks, {2, 1}), Error);
}

TEST(Validate, DetectsUnknownTask) {
  Schedule s;
  s.add({99, {PeType::kCpu, 0}, 0.0, 1.0});
  EXPECT_THROW(validate_schedule(s, three_tasks(), {2, 1}), Error);
}

TEST(Validate, DetectsNegativeStart) {
  const auto tasks = three_tasks();
  Schedule s;
  s.add({0, {PeType::kCpu, 0}, -1.0, 9.0});
  s.add({1, {PeType::kGpu, 0}, 0.0, 4.0});
  s.add({2, {PeType::kCpu, 1}, 0.0, 6.0});
  EXPECT_THROW(validate_schedule(s, tasks, {2, 1}), Error);
}

TEST(Validate, DetectsCpuDurationUsedOnGpu) {
  // Task 0 placed on a GPU but given its CPU duration (10 instead of 2):
  // the validator must reject PE-type-mismatched spans.
  const auto tasks = three_tasks();
  Schedule s;
  s.add({0, {PeType::kGpu, 0}, 0.0, 10.0});
  s.add({1, {PeType::kGpu, 0}, 10.0, 14.0});
  s.add({2, {PeType::kCpu, 0}, 0.0, 6.0});
  EXPECT_THROW(validate_schedule(s, tasks, {2, 1}), Error);
}

TEST(Contracts, AddRejectsInvertedSpanWhenEnabled) {
  // Schedule::add checks that the span is not inverted.
  Schedule s;
  EXPECT_THROW(s.add({0, {PeType::kCpu, 0}, 5.0, 4.0}), Error);
}

TEST(Metrics, IdleAccounting) {
  const HybridPlatform platform{1, 1};
  Schedule s;
  s.add({0, {PeType::kCpu, 0}, 0.0, 10.0});
  s.add({1, {PeType::kGpu, 0}, 0.0, 4.0});
  const ScheduleMetrics metrics = compute_metrics(s, platform);
  EXPECT_DOUBLE_EQ(metrics.makespan, 10.0);
  EXPECT_DOUBLE_EQ(metrics.total_idle, 6.0);  // GPU idle 6
  EXPECT_DOUBLE_EQ(metrics.idle_fraction, 6.0 / 20.0);
  EXPECT_EQ(metrics.tasks_on_cpu, 1u);
  EXPECT_EQ(metrics.tasks_on_gpu, 1u);
}

TEST(Gantt, RendersEveryPeRow) {
  const HybridPlatform platform{2, 1};
  Schedule s;
  s.add({0, {PeType::kCpu, 0}, 0.0, 10.0});
  const std::string text = render_gantt(s, platform);
  EXPECT_NE(text.find("CPU0"), std::string::npos);
  EXPECT_NE(text.find("CPU1"), std::string::npos);
  EXPECT_NE(text.find("GPU0"), std::string::npos);
  EXPECT_NE(text.find("makespan"), std::string::npos);
}

TEST(PeName, Formats) {
  EXPECT_EQ(pe_name({PeType::kCpu, 3}), "CPU3");
  EXPECT_EQ(pe_name({PeType::kGpu, 0}), "GPU0");
}

}  // namespace
}  // namespace swdual::sched
