// Unit tests for the calibrated performance model.
#include <gtest/gtest.h>

#include "platform/perf_model.h"

namespace swdual::platform {
namespace {

TEST(WorkerClass, SecondsScaleLinearlyWithCells) {
  const WorkerClass w{2.0, 0.0};  // 2 GCUPS, no overhead
  EXPECT_DOUBLE_EQ(w.seconds_for(2'000'000'000ULL), 1.0);
  EXPECT_DOUBLE_EQ(w.seconds_for(4'000'000'000ULL), 2.0);
}

TEST(WorkerClass, OverheadAdds) {
  const WorkerClass w{1.0, 0.5};
  EXPECT_DOUBLE_EQ(w.seconds_for(0), 0.5);
  EXPECT_DOUBLE_EQ(w.seconds_for(1'000'000'000ULL), 1.5);
}

TEST(PerfModel, ClassOrderingMatchesTable2) {
  // Table II column 1: SWPS3 slowest, then STRIPED, SWIPE, CUDASW++ fastest.
  const PerfModel model;
  EXPECT_LT(model.swps3_cpu.gcups, model.striped_cpu.gcups);
  EXPECT_LT(model.striped_cpu.gcups, model.swipe_cpu.gcups);
  EXPECT_LT(model.swipe_cpu.gcups, model.cudasw_gpu.gcups);
}

TEST(PerfModel, SwdualUsesSwipeAndCudaswClasses) {
  const PerfModel model;
  EXPECT_EQ(&model.cpu_worker(), &model.swipe_cpu);
  EXPECT_EQ(&model.gpu_worker(), &model.cudasw_gpu);
}

TEST(PerfModel, MakeTaskDerivesBothTimes) {
  const PerfModel model;
  const sched::Task task = model.make_task(3, 83'000'000'000ULL);  // 83 Gcells
  EXPECT_EQ(task.id, 3u);
  EXPECT_NEAR(task.cpu_time, 83.0 / 8.3 + model.swipe_cpu.task_overhead, 1e-9);
  EXPECT_NEAR(task.gpu_time, 83.0 / 24.9 + model.cudasw_gpu.task_overhead,
              1e-9);
  EXPECT_GT(task.accel(), 1.0);  // sequence comparison is GPU-accelerated
}

TEST(PerfModel, Table2SingleWorkerTimesReproduced) {
  // The calibration promise: a 1.96e13-cell workload (paper estimate for 40
  // queries vs UniProt) lands near Table II's single-worker times.
  const PerfModel model;
  const std::uint64_t cells = 19'600'000'000'000ULL;
  EXPECT_NEAR(model.swps3_cpu.seconds_for(cells), 69208.2, 69208.2 * 0.05);
  EXPECT_NEAR(model.striped_cpu.seconds_for(cells), 7190.0, 7190.0 * 0.05);
  EXPECT_NEAR(model.swipe_cpu.seconds_for(cells), 2367.24, 2367.24 * 0.05);
  EXPECT_NEAR(model.cudasw_gpu.seconds_for(cells), 785.26, 785.26 * 0.05);
}

}  // namespace
}  // namespace swdual::platform
