// Shared pieces of the serve benchmark: the four workload presets, inputs
// generated from the seed, the closed-loop clients, and the
// correctness oracle.
//
// The end-to-end benchmark (servebench.cpp) touches the service only through
// serve::QueryService's public surface (ctor, submit, QueryResponse, stats,
// shutdown); the oracle adds serial align::search_database. Nothing here
// reaches into engine internals, so refactors below the service API leave
// the end-to-end numbers comparable across commits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "align/search.h"
#include "seq/sequence.h"
#include "seq/swdb.h"
#include "serve/service.h"
#include "util/rng.h"

namespace swdual::servebench {

/// Closed-loop client threads (= cores of the 4-core reference host). Each
/// waits for its reply before submitting again: the users are annotation
/// pipelines that block on every answer.
inline constexpr std::size_t kClients = 4;

/// Every kSampleEvery-th query id is checked bit-for-bit against serial
/// align::search_database after the timed phase.
inline constexpr std::uint64_t kSampleEvery = 8;

/// Set-ups per run; setup_s and the per-layer open/start times are medians.
inline constexpr std::size_t kSetups = 5;

/// One named workload: database shape, traffic shape and service config.
struct Workload {
  std::string name;

  // Database. Record lengths are uniform in [len/2, 3len/2) when db_zipf_s
  // is 0, else max(24, 3len/(rank+1)^db_zipf_s) over a seeded shuffle of
  // ranks (a few giant records, a long short tail).
  std::size_t records = 0;
  std::size_t len = 0;
  double db_zipf_s = 0.0;
  std::size_t plant = 0;  ///< mutated copies of each pool query appended

  // Traffic. pool == 0: every request carries a fresh random query. pool > 0
  // with zipf_s == 0: the pool is handed out in order, each query once.
  // pool > 0 with zipf_s > 0: Zipf-skewed picks over the pool.
  std::size_t query_len = 0;
  std::size_t pool = 0;
  double zipf_s = 0.0;
  std::size_t warmup = 0;  ///< untimed requests before the measured phase

  serve::ServiceConfig config;

  bool sharded() const { return config.shards > 0; }
  bool filtered() const { return config.master.filter.enabled(); }
};

/// The preset called `name`; `tiny` shrinks it for the smoke test. Throws
/// InvalidArgument naming the valid presets on an unknown name.
Workload find_workload(const std::string& name, bool tiny);

/// Everything the seed determines: database records, query pool, planted
/// homolog positions, and the per-client traffic streams.
class Inputs {
 public:
  Inputs(const Workload& workload, std::uint64_t seed);

  const Workload& workload() const { return workload_; }

  /// Query `id`: pool entry `id`, or a fresh random query derived from
  /// (seed, id) when the workload has no pool.
  seq::Sequence query(std::uint64_t id) const;

  /// Database indices of the homologs planted for query `id` (empty when
  /// the workload plants none).
  std::vector<std::uint32_t> planted(std::uint64_t id) const;

  /// A query outside the traffic, answered once at every set-up.
  seq::Sequence setup_query() const;

  /// Next query id for a client: a Zipf pick from `client_rng`, or the
  /// next id of the shared in-order stream (nullopt once an in-order pool
  /// is used up).
  std::optional<std::uint64_t> next_id(Rng& client_rng);

  /// Client `c`'s private traffic stream.
  Rng client_rng(std::size_t c) const;

  /// Write the database as SWDB v2 to `path` and release the in-memory
  /// records, so generation does not count toward the service's memory.
  void write_database(const std::string& path);

 private:
  Workload workload_;
  std::uint64_t seed_;
  std::vector<seq::Sequence> db_;
  std::vector<seq::Sequence> pool_;
  std::vector<double> cdf_;  ///< Zipf CDF over the pool (Zipf traffic only)
  std::atomic<std::uint64_t> next_{0};  ///< next in-order id
};

/// One response kept for the oracle.
struct Sample {
  std::uint64_t query_id = 0;
  std::vector<align::SearchHit> hits;
};

/// Client-side record of one closed-loop phase.
struct PhaseResult {
  double wall_seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;      ///< submit → future ready, answered
  std::vector<double> hit_latency_ms;  ///< the cache-hit subset
  std::vector<double> queue_ms;        ///< QueryResponse::queue_seconds
  std::vector<double> execute_ms;      ///< QueryResponse::execute_seconds
  std::vector<Sample> samples;
  std::vector<std::string> errors;  ///< first few failure reasons
  serve::QueryService::Stats before, after;

  /// One client span per answered request when the phase is traced; start
  /// and end are seconds since the phase started.
  struct ClientSpan {
    std::uint64_t request = 0;
    std::size_t client = 0;
    double start = 0.0, end = 0.0;
  };
  std::vector<ClientSpan> spans;
};

/// Structural check of one response: k hits (fewer only for a smaller
/// database), ranked, in range, not partial, every planted homolog present,
/// annotations attached when the workload annotates. Empty when it passes.
std::string check_response(const serve::QueryResponse& response,
                           const Workload& workload, std::size_t db_records,
                           const std::vector<std::uint32_t>& planted);

/// Drive `service` with kClients closed-loop clients until `seconds` have
/// passed (requests == 0) or exactly `requests` requests were sent, spread
/// over the clients with the remainder going to the first ones. A rejected
/// submit (never retried), a thrown future, or a response failing
/// check_response counts the request as failed.
PhaseResult run_phase(serve::QueryService& service, Inputs& inputs,
                      std::size_t db_records, double seconds,
                      std::size_t requests, bool trace_clients);

/// Oracle verdict on the sampled responses.
struct OracleResult {
  std::uint64_t failed = 0;   ///< sampled responses that disagreed
  double recall_at_k = 1.0;   ///< mean over the sampled responses
  std::vector<std::string> errors;
};

/// Compare every sample with the exact top-k of serial
/// align::search_database: bit-identical for exact workloads, recall@k
/// (index or score match, since score ties make the exact set non-unique)
/// for filtered ones. Runs the serial searches on kClients threads.
OracleResult check_samples(const std::vector<Sample>& samples,
                           const Inputs& inputs, const align::DbView& db);

/// Set-up timings of one run (medians over kSetups set-ups) and the service
/// left standing after the last one.
struct Setup {
  std::shared_ptr<const seq::MappedSwdb> db;
  std::unique_ptr<serve::QueryService> service;
  double open_ms = 0.0;    ///< MappedSwdb open
  double start_ms = 0.0;   ///< QueryService ctor
  double setup_s = 0.0;    ///< open + ctor + first request served
  std::uint64_t failed = 0;
};

/// Open `path` and start the service kSetups times, timing each; the last
/// service is kept for the measured phase.
Setup set_up(const std::string& path, const Inputs& inputs);

/// Median and linear-interpolated percentile of an unsorted sample
/// (0 for an empty one).
double median(std::vector<double> values);
double percentile(std::vector<double> values, double q);

/// Peak resident set of this process image (VmHWM) in MB.
double peak_rss_mb();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Print the run's result as the last line of stdout:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

/// Report up to a few failure reasons on stderr.
void report_errors(const std::vector<std::string>& errors);

}  // namespace swdual::servebench
