#include "check/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.h"

namespace swdual::check {

namespace {

constexpr double kRelTol = 1e-12;

bool leq(double a, double b) { return a <= b * (1.0 + kRelTol) + kRelTol; }

/// The paper's λ-feasibility test in its fractional relaxation: mandatory
/// placements enforced, free tasks split by the continuous minimization
/// knapsack. True is a *necessary* condition for a schedule of makespan ≤ λ
/// to exist, so the smallest true λ lower-bounds the optimum.
bool fractional_feasible(const std::vector<sched::Task>& by_ratio,
                         const sched::HybridPlatform& platform,
                         double lambda) {
  const double m = static_cast<double>(platform.num_cpus);
  const double k = static_cast<double>(platform.num_gpus);

  double mandatory_gpu = 0.0;
  double cpu_area = 0.0;
  std::vector<const sched::Task*> free_tasks;
  free_tasks.reserve(by_ratio.size());
  for (const sched::Task& task : by_ratio) {
    const bool fits_cpu = platform.num_cpus > 0 && leq(task.cpu_time, lambda);
    const bool fits_gpu = platform.num_gpus > 0 && leq(task.gpu_time, lambda);
    if (!fits_cpu && !fits_gpu) return false;  // too long everywhere
    if (!fits_cpu) {
      mandatory_gpu += task.gpu_time;
    } else if (!fits_gpu) {
      cpu_area += task.cpu_time;
    } else {
      free_tasks.push_back(&task);
    }
  }
  if (!leq(mandatory_gpu, k * lambda)) return false;
  if (!leq(cpu_area, m * lambda)) return false;

  // Continuous knapsack: by_ratio is sorted by decreasing acceleration, so
  // filling in order minimizes the CPU workload left behind (Fig. 4).
  double gpu_budget = k * lambda - mandatory_gpu;
  for (const sched::Task* task : free_tasks) {
    if (gpu_budget >= task->gpu_time) {
      gpu_budget -= task->gpu_time;
    } else if (task->gpu_time > 0) {
      const double fraction_on_gpu =
          gpu_budget > 0 ? gpu_budget / task->gpu_time : 0.0;
      gpu_budget = 0.0;
      cpu_area += task->cpu_time * (1.0 - fraction_on_gpu);
    } else {
      gpu_budget = 0.0;
    }
  }
  return leq(cpu_area, m * lambda);
}

}  // namespace

LowerBounds schedule_lower_bounds(const std::vector<sched::Task>& tasks,
                                  const sched::HybridPlatform& platform) {
  SWDUAL_REQUIRE(platform.total() > 0, "platform has no PEs");
  LowerBounds bounds;
  if (tasks.empty()) return bounds;

  double fastest_sum = 0.0;
  for (const sched::Task& task : tasks) {
    double fastest = std::numeric_limits<double>::infinity();
    if (platform.num_cpus > 0) fastest = std::min(fastest, task.cpu_time);
    if (platform.num_gpus > 0) fastest = std::min(fastest, task.gpu_time);
    SWDUAL_REQUIRE(std::isfinite(fastest) && fastest >= 0,
                   "task " + std::to_string(task.id) +
                       " has no finite processing time on this platform");
    bounds.longest_task = std::max(bounds.longest_task, fastest);
    fastest_sum += fastest;
  }
  bounds.aggregate_area =
      fastest_sum / static_cast<double>(platform.total());

  // Knapsack bound: bisect the fractional λ-feasibility threshold. Both
  // simpler bounds are necessary conditions of the test, so start there.
  std::vector<sched::Task> by_ratio = tasks;
  std::stable_sort(by_ratio.begin(), by_ratio.end(),
                   [](const sched::Task& a, const sched::Task& b) {
                     return a.accel() > b.accel();
                   });
  double lo = std::max(bounds.longest_task, bounds.aggregate_area);
  double hi = std::max(lo, 1e-300);
  while (!fractional_feasible(by_ratio, platform, hi)) hi *= 2.0;
  if (fractional_feasible(by_ratio, platform, lo)) {
    hi = lo;
  } else {
    for (int iter = 0; iter < 100 && (hi - lo) > 1e-12 * hi; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (fractional_feasible(by_ratio, platform, mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
  }
  bounds.knapsack = hi;
  bounds.certified =
      std::max({bounds.longest_task, bounds.aggregate_area, bounds.knapsack});
  SWDUAL_CHECK(bounds.certified >= bounds.longest_task - 1e-12,
               "certified bound lost to the longest-task bound");
  return bounds;
}

BoundCheckReport check_approximation_bound(
    const sched::Schedule& schedule, const std::vector<sched::Task>& tasks,
    const sched::HybridPlatform& platform, double factor, double slack) {
  SWDUAL_REQUIRE(factor >= 1.0, "approximation factor below 1 is vacuous");
  SWDUAL_REQUIRE(slack >= 1.0, "slack must not tighten the guarantee");

  BoundCheckReport report;
  report.bounds = schedule_lower_bounds(tasks, platform);
  report.makespan = schedule.makespan();
  report.factor = factor;
  report.ratio = report.bounds.certified > 0
                     ? report.makespan / report.bounds.certified
                     : 0.0;

  const double limit = factor * report.bounds.certified * slack;
  if (report.makespan > limit + kRelTol) {
    std::ostringstream os;
    os << "approximation bound violated: makespan " << report.makespan
       << " > " << factor << " x certified lower bound "
       << report.bounds.certified << " (x" << slack << " slack = " << limit
       << "); bounds: longest_task " << report.bounds.longest_task
       << ", aggregate_area " << report.bounds.aggregate_area << ", knapsack "
       << report.bounds.knapsack << "; ratio " << report.ratio << " on m="
       << platform.num_cpus << " k=" << platform.num_gpus << " with "
       << tasks.size() << " task(s)";
    throw Error(os.str());
  }
  return report;
}

}  // namespace swdual::check
