// Schedule representation, validation, and metrics (Gantt-chart model).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sched/task.h"
#include "util/error.h"

namespace swdual::sched {

/// One placed task: where and when it runs.
struct Assignment {
  std::size_t task_id = 0;
  PeId pe;
  double start = 0.0;
  double end = 0.0;

  double duration() const { return end - start; }
};

/// A complete non-preemptive schedule.
class Schedule {
 public:
  void add(Assignment assignment) {
    SWDUAL_CHECK(assignment.end >= assignment.start,
                 "assignment ends before it starts");
    assignments_.push_back(assignment);
  }

  const std::vector<Assignment>& assignments() const { return assignments_; }
  bool empty() const { return assignments_.empty(); }
  std::size_t size() const { return assignments_.size(); }

  /// Global completion time (0 for an empty schedule).
  double makespan() const;

  /// Sum of processing time placed on PEs of the given type (the
  /// "computational area" W_C / W_G of §III).
  double area(PeType type) const;

  /// Completion time of the given PE (0 if unused).
  double pe_finish(const PeId& pe) const;

  /// Assignment holding a task, if present.
  std::optional<Assignment> find_task(std::size_t task_id) const;

 private:
  std::vector<Assignment> assignments_;
};

/// Aggregate quality metrics for a schedule on a platform.
struct ScheduleMetrics {
  double makespan = 0.0;
  double cpu_area = 0.0;
  double gpu_area = 0.0;
  double total_idle = 0.0;      ///< Σ over PEs of (makespan − busy time)
  double idle_fraction = 0.0;   ///< total_idle / (makespan · #PEs)
  std::size_t tasks_on_cpu = 0;
  std::size_t tasks_on_gpu = 0;
};

ScheduleMetrics compute_metrics(const Schedule& schedule,
                                const HybridPlatform& platform);

/// Structural validation: every task of `tasks` placed exactly once, on a PE
/// that exists, with duration equal to its processing time on that PE type,
/// start >= 0, and no two tasks overlapping on the same PE. Throws
/// swdual::Error with a diagnostic on the first violation.
void validate_schedule(const Schedule& schedule, const std::vector<Task>& tasks,
                       const HybridPlatform& platform);

/// Render a small ASCII Gantt chart (for examples and debugging).
std::string render_gantt(const Schedule& schedule,
                         const HybridPlatform& platform, std::size_t width = 72);

}  // namespace swdual::sched
