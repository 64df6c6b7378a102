// The SWDUAL master (Fig. 6): builds tasks, allocates them to workers with a
// pluggable policy, dispatches, collects and merges results.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "align/pipeline.h"
#include "align/profile_cache.h"
#include "align/search.h"
#include "master/protocol.h"
#include "platform/perf_model.h"
#include "sched/schedule.h"

namespace swdual::obs {
class MetricsRegistry;
class Tracer;
}  // namespace swdual::obs

namespace swdual::master {

/// Allocation policies the master can apply (paper's SWDUAL plus the
/// related-work baselines it is compared against).
enum class AllocationPolicy {
  kSwdual,          ///< dual-approximation (paper §III) — the contribution
  kSwdualRefined,   ///< + local-search refinement
  kSelfScheduling,  ///< dynamic, one task at a time [10]
  kEqualPower,      ///< round-robin deal [11]
  kProportional,    ///< static proportional split [12]
  kLpt,             ///< classical LPT/earliest-completion
};

const char* policy_name(AllocationPolicy policy);

struct MasterConfig {
  std::size_t cpu_workers = 1;   ///< m
  std::size_t gpu_workers = 1;   ///< k
  AllocationPolicy policy = AllocationPolicy::kSwdual;
  align::ScoringScheme scheme;
  platform::PerfModel model;

  /// Exact kernel of every host scan: CPU workers' and the GPU workers'
  /// (the virtual device computes real scores on the host). Both kernels
  /// return bit-identical scores and count a pair as |q|·|d| cells, and
  /// virtual time is charged from cells, so the choice moves wall time
  /// only. The default, the byte-striped kernel with its 16-bit
  /// inter-sequence tier, is the one SIMD path; kScalar is the 32-bit
  /// reference the tests compare it with, and the path for gap penalties
  /// outside striped8's limits (extend 0, or open + extend > 255).
  align::KernelKind cpu_kernel = align::KernelKind::kStriped8;
  std::size_t top_hits = 10;     ///< hits reported per query

  /// SIMD backend for the CPU kernels. kAuto picks the widest the host
  /// supports (AVX-512BW > AVX2 > SSE2 > scalar); SWDUAL_FORCE_BACKEND
  /// still overrides. Scores are bit-identical on every backend.
  align::Backend cpu_backend = align::Backend::kAuto;

  /// Two-stage filter (align/search.h). With mode kHeuristic every worker
  /// screens its task's database pass with the banded kernel and rescans
  /// only top_hits-derived candidates exactly; CPU workers screen inline,
  /// GPU workers screen on the host and ship only candidates to the device.
  /// Screens and selection are deterministic, so filtered results are
  /// identical across worker types, backends, and schedules. kOff (the
  /// default) is bit-identical to the unfiltered search.
  align::FilterConfig filter;

  /// Per-hit annotation (align/annotate.h). When enabled, each task's
  /// pipeline annotates its query's final top-k — GPU and CPU tasks alike —
  /// with e-value/bit score (and, stats+cigar, a validated traceback)
  /// computed against the full database view, so annotated hits are
  /// identical for every allocation policy, worker mix, and schedule.
  /// `stats` must then point to calibrated parameters (borrowed for the
  /// run): the master never calibrates itself — callers go through
  /// align::StatsCache so repeated runs share one deterministic calibration.
  align::AnnotateConfig annotate;
  const align::KarlinAltschulParams* stats = nullptr;

  /// Optional shared query-profile cache, borrowed for the run and forwarded
  /// to every worker: repeated queries (and one query fanned out across
  /// batches/retries) reuse one resident SearchProfiles instead of
  /// rebuilding per task. Without it (the query service passes none) each
  /// task builds its own. Scores are bit-identical with or without it.
  align::ProfileCache* profile_cache = nullptr;

  /// Allocation rounds (Fig. 6: the master may allocate "only once at the
  /// beginning of the execution or iteratively until all tasks are
  /// executed"). 1 = the paper's one-round mode; r > 1 partitions the task
  /// list into r batches, each scheduled with the policy and dispatched only
  /// after the previous batch completed. Ignored for self-scheduling, which
  /// is already fully iterative.
  std::size_t rounds = 1;

  /// Fault injection for robustness testing (forwarded to the workers): a
  /// task for which this returns true is reported failed and reassigned by
  /// the master to another worker, up to max_task_retries times.
  std::function<bool(std::size_t task_id, std::size_t worker_id)>
      fault_injector;
  std::size_t max_task_retries = 3;

  /// Debug contract checks on every allocation round (check/bounds.h,
  /// check/trace_check.h): the round plan is validated structurally, the
  /// dual-approximation policies are checked against their certified
  /// 2.OPT bound, and a DES replay of the plan is cross-validated against
  /// it before dispatch. Failures throw swdual::Error. Off by default —
  /// the checks re-run the lower-bound search per round.
  bool validate_contracts = false;

  /// Optional observability sinks (obs/trace.h, obs/metrics.h), borrowed for
  /// the duration of run_search. When set, the master traces its
  /// schedule/collect/merge phases and retry decisions on obs::kMasterTrack,
  /// each worker traces task spans (wall + virtual clock) on its own track,
  /// and counters/histograms (`tasks_dispatched`, `task_retries`,
  /// `task_virtual_seconds`, ...) accumulate in the registry.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// One query's merged result.
struct QueryResult {
  std::size_t query_index = 0;
  std::vector<align::SearchHit> hits;  ///< top_hits best database records
  align::FilterStats filter;           ///< the query's filter counters
};

/// End-to-end report of one database search run.
struct SearchReport {
  std::vector<QueryResult> results;      ///< one per query, query order
  double wall_seconds = 0.0;             ///< real elapsed time on this host
  double virtual_makespan = 0.0;         ///< modeled time on paper hardware
  double virtual_gcups = 0.0;            ///< cells / virtual_makespan
  std::uint64_t total_cells = 0;
  sched::Schedule planned;               ///< static plan (empty if dynamic)
  std::map<std::size_t, double> worker_virtual_busy;  ///< worker id → busy
  double virtual_idle_fraction = 0.0;

  /// Aggregated filter counters (all zero when MasterConfig::filter is off).
  align::FilterStats filter;
};

/// Run a complete search: `queries` against `db` on cpu+gpu workers.
/// Implements the paper's one-round flow for static policies (the master
/// sends every worker its full task list after scheduling) and the pull
/// loop for self-scheduling.
SearchReport run_search(const std::vector<seq::Sequence>& queries,
                        const std::vector<seq::Sequence>& db,
                        const MasterConfig& config);

/// View-based core: the database is borrowed as residue views, so callers
/// holding an mmap-backed seq::MappedSwdb (or any other zero-copy source)
/// search without ever materializing records. The viewed bytes must stay
/// alive for the duration of the call. The record overload above delegates
/// here.
SearchReport run_search(const std::vector<seq::Sequence>& queries,
                        const align::DbView& db,
                        const MasterConfig& config);

}  // namespace swdual::master
