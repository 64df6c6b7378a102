// Per-layer replay of one workload: the benchmark's traced run.
//
// Sets the workload up like the end-to-end benchmark, then
//   1. runs two short closed-loop phases, one untraced and one recording a
//      client span per request, for the serve-layer numbers and the
//      tracing overhead;
//   2. replays a fixed sample of the workload's queries through each
//      layer's public entry point (SearchProfiles, search_database,
//      ParallelSearchEngine, ShardedSearchEngine, screen_range /
//      filter_select_candidates, annotate_hits, StatsCache,
//      master::run_search, sched::swdual_schedule), timing every call under
//      a span recorded from this file;
//   3. replays the sample through a fresh service one request at a time
//      (solo latency) and checks that the independently measured layer
//      times along the blocking path add up to it (trace.coverage).
// Spans are written as Chrome-trace JSON to --trace-out; the last stdout
// line is the JSON result with every per-layer metric.
//
//   ./servebench_layers --workload miss-exact --seed 1 --seconds 10
//                       [--work-dir D] [--trace-out PATH]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "align/annotate.h"
#include "align/parallel_search.h"
#include "align/profile_cache.h"
#include "align/sharded_search.h"
#include "harness.h"
#include "master/master.h"
#include "sched/dual_approx.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/timer.h"

namespace {

using namespace swdual;
using namespace swdual::servebench;

/// Queries replayed through every layer, and lone requests in the solo
/// replay behind trace.coverage.
constexpr std::size_t kReplayQueries = 8;
constexpr std::uint64_t kSoloQueries = 24;

/// In-memory span recorder. Deliberately not obs::Tracer: the benchmark
/// must not depend on the program's own instrumentation.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;  ///< seconds since the recorder started
    double end = 0.0;
    std::int64_t parent = -1;   ///< index of the enclosing span, -1 = none
    std::int64_t request = -1;  ///< query id, -1 = none
    std::size_t lane = 0;       ///< display row: 0 replay, 1+ clients
  };

  double now() const { return clock_.seconds(); }

  std::int64_t open(std::string name, std::string layer,
                    std::int64_t parent = -1) {
    const double t = now();
    spans_.push_back({std::move(name), std::move(layer), t, t, parent, -1, 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void close(std::int64_t span) {
    spans_[static_cast<std::size_t>(span)].end = now();
  }

  void add(Span span) { spans_.push_back(std::move(span)); }

  /// Run `fn` under a span; returns the span's duration in seconds.
  template <class Fn>
  double time(const char* name, const char* layer, std::int64_t parent,
              std::int64_t request, Fn&& fn) {
    Span span{name, layer, now(), 0.0, parent, request, 0};
    fn();
    span.end = now();
    const double seconds = span.end - span.start;
    spans_.push_back(std::move(span));
    return seconds;
  }

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  void write_chrome(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw IoError("cannot write " + path);
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %zu, "
                   "\"args\": {\"span\": %zu, \"parent\": %lld, "
                   "\"request\": %lld}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                   s.start * 1e6, (s.end - s.start) * 1e6, s.lane, i,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
    std::fprintf(out, "\n]}\n");
    if (std::fclose(out) != 0) throw IoError("cannot write " + path);
  }

 private:
  WallTimer clock_;
  std::vector<Span> spans_;
};

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::span<const std::uint8_t> residues(const seq::Sequence& sequence) {
  return {sequence.residues.data(), sequence.residues.size()};
}

double requests_per_second(const PhaseResult& phase) {
  return static_cast<double>(phase.latency_ms.size()) / phase.wall_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("servebench_layers", "per-layer replay of a serve workload");
  cli.add_option("workload",
                 "miss-exact | miss-filtered-annotated | hot-mixed | "
                 "miss-exact-sharded",
                 "miss-exact");
  cli.add_option("seed", "input seed", "1");
  cli.add_option("seconds",
                 "run length; each of the two closed-loop phases takes half",
                 "10");
  cli.add_option("work-dir", "directory for the generated database", ".");
  cli.add_option("trace-out", "Chrome-trace JSON output path",
                 "servebench-trace.json");
  cli.add_flag("tiny", "shrink the workload (smoke test)");
  try {
    cli.parse(argc, argv);
    if (cli.help_requested()) {
      std::printf("%s", cli.usage().c_str());
      return 0;
    }
    const Workload w = find_workload(cli.option("workload"), cli.flag("tiny"));
    const std::uint64_t seed = cli.option_uint("seed");
    const double seconds = cli.option_positive_double("seconds");
    Inputs inputs(w, seed);
    const std::string path = cli.option("work-dir") + "/" + w.name + "-" +
                             std::to_string(seed) + "-layers.swdb";
    inputs.write_database(path);
    SpanRecorder recorder;
    std::vector<std::string> errors;
    std::uint64_t attempted = kSetups, failed = 0;
    const auto absorb = [&](const PhaseResult& phase) {
      attempted += phase.attempted;
      failed += phase.failed;
      errors.insert(errors.end(), phase.errors.begin(), phase.errors.end());
    };

    // --- seq / serve set-up, then the closed-loop phases -------------------
    const std::int64_t setup_span = recorder.open("set-up", "seq");
    Setup setup = set_up(path, inputs);
    recorder.close(setup_span);
    failed += setup.failed;
    const seq::MappedSwdb& db = *setup.db;
    const align::DbView view = db.residue_views();
    const std::size_t records = db.size();
    const double n = static_cast<double>(db.total_residues());
    const double m = static_cast<double>(w.query_len);
    absorb(run_phase(*setup.service, inputs, records, 0.0, w.warmup, false));

    const std::int64_t plain_span = recorder.open("untraced phase", "client");
    const PhaseResult plain =
        run_phase(*setup.service, inputs, records, seconds / 2, 0, false);
    recorder.close(plain_span);
    absorb(plain);
    const std::int64_t traced_span = recorder.open("traced phase", "client");
    const double traced_start = recorder.now();
    const PhaseResult traced =
        run_phase(*setup.service, inputs, records, seconds / 2, 0, true);
    recorder.close(traced_span);
    absorb(traced);
    for (const PhaseResult::ClientSpan& span : traced.spans) {
      recorder.add({"request", "client", traced_start + span.start,
                    traced_start + span.end, traced_span,
                    static_cast<std::int64_t>(span.request), 1 + span.client});
    }
    setup.service->shutdown();
    std::vector<Sample> samples = plain.samples;
    samples.insert(samples.end(), traced.samples.begin(), traced.samples.end());
    const OracleResult oracle = check_samples(samples, inputs, view);
    failed += oracle.failed;
    errors.insert(errors.end(), oracle.errors.begin(), oracle.errors.end());

    const serve::QueryService::Stats& a = plain.before;
    const serve::QueryService::Stats& b = plain.after;
    const auto searches = static_cast<double>(b.searches - a.searches);
    const auto batches = static_cast<double>(b.batches - a.batches);
    const auto cache_hits =
        static_cast<double>(b.results.hits - a.results.hits);
    const auto lookups =
        cache_hits + static_cast<double>(b.results.misses - a.results.misses);
    const double mean_batch = batches > 0 ? searches / batches : 1.0;
    const double db_passes =
        w.sharded() && searches > 0
            ? static_cast<double>(b.shards.group_passes -
                                  a.shards.group_passes) /
                  searches
            : 1.0;  // the master path scans the whole database per search

    // --- layer replay ------------------------------------------------------
    const master::MasterConfig& mc = w.config.master;
    const std::size_t k = mc.top_hits;
    std::vector<seq::Sequence> queries;
    for (std::uint64_t id = 0; id < kReplayQueries; ++id) {
      queries.push_back(inputs.query(id));
    }
    const std::size_t group = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(mean_batch)), 1, queries.size());
    const auto request = [](std::size_t q) {
      return static_cast<std::int64_t>(q);
    };

    // profile: SearchProfiles ctor.
    std::int64_t layer = recorder.open("profile replay", "profile");
    std::vector<double> build_us;
    std::vector<std::unique_ptr<align::SearchProfiles>> profiles;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (int rep = 0; rep < 5; ++rep) {
        std::unique_ptr<align::SearchProfiles> built;
        build_us.push_back(
            1e6 * recorder.time("SearchProfiles", "profile", layer,
                                request(q), [&] {
                                  built =
                                      std::make_unique<align::SearchProfiles>(
                                          residues(queries[q]), mc.scheme,
                                          mc.cpu_kernel, mc.cpu_backend);
                                }));
        if (rep == 0) profiles.push_back(std::move(built));
      }
    }
    recorder.close(layer);

    // kernel: serial search_database over the whole database.
    layer = recorder.open("kernel replay", "kernel");
    std::vector<double> scan_s, cells, overflow;
    std::vector<std::vector<align::SearchHit>> exact_hits;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      align::SearchResult result;
      const double s = recorder.time(
          "search_database", "kernel", layer, request(q),
          [&] { result = align::search_database(*profiles[q], view); });
      scan_s.push_back(s);
      cells.push_back(static_cast<double>(result.cells));
      overflow.push_back(static_cast<double>(result.overflow_rescans));
      exact_hits.push_back(result.top(k));
    }
    recorder.close(layer);

    // engine: ParallelSearchEngine::search at 1, 2 and 4 threads.
    layer = recorder.open("engine replay", "engine");
    double engine_gcups[3] = {0.0, 0.0, 0.0};
    for (std::size_t t = 0; t < 3; ++t) {
      align::ParallelSearchOptions options;
      options.threads = std::size_t{1} << t;
      const align::ParallelSearchEngine engine(db, options);
      (void)engine.search(*profiles[0]);  // spin the pool up
      std::vector<double> gcups;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        align::SearchResult result;
        const double s = recorder.time(
            "ParallelSearchEngine::search", "engine", layer, request(q),
            [&] { result = engine.search(*profiles[q]); });
        gcups.push_back(static_cast<double>(result.cells) / s / 1e9);
      }
      engine_gcups[t] = median(gcups);
    }
    recorder.close(layer);

    // shards: plan, then one group pass vs the chunked engine's group pass
    // at equal total threads. Master-path workloads measure 4 x 1.
    layer = recorder.open("shard replay", "shard");
    const std::size_t shard_count = w.sharded() ? w.config.shards : 4;
    const std::size_t shard_threads =
        w.sharded() ? w.config.threads_per_shard : 1;
    const double imbalance =
        align::plan_shards(db.lengths(), shard_count).imbalance();
    std::vector<std::span<const std::uint8_t>> group_queries;
    std::vector<const align::SearchProfiles*> group_profiles;
    for (std::size_t q = 0; q < group; ++q) {
      group_queries.push_back(residues(queries[q]));
      group_profiles.push_back(profiles[q].get());
    }
    align::ShardedSearchOptions shard_options;
    shard_options.num_shards = shard_count;
    shard_options.threads_per_shard = shard_threads;
    std::vector<double> sharded_ms, chunked_ms;
    {
      const align::ShardedSearchEngine sharded(setup.db, shard_options);
      align::ParallelSearchOptions options;
      options.threads = shard_count * shard_threads;
      const align::ParallelSearchEngine chunked(db, options);
      (void)sharded.search_many(group_queries, mc.scheme, mc.cpu_kernel, k);
      (void)chunked.search_ranked_many(group_profiles, k);
      for (int rep = 0; rep < 5; ++rep) {
        sharded_ms.push_back(1e3 * recorder.time(
                                       "ShardedSearchEngine::search_many",
                                       "shard", layer, -1, [&] {
                                         (void)sharded.search_many(
                                             group_queries, mc.scheme,
                                             mc.cpu_kernel, k);
                                       }));
        chunked_ms.push_back(
            1e3 * recorder.time("ParallelSearchEngine::search_ranked_many",
                                "engine", layer, -1, [&] {
                                  (void)chunked.search_ranked_many(
                                      group_profiles, k);
                                }));
      }
    }
    recorder.close(layer);

    // filter: screen, select, rescan the uncertified candidates. Workloads
    // without the filter replay the filtered workload's settings.
    layer = recorder.open("filter replay", "filter");
    align::FilterConfig filter = mc.filter;
    if (!filter.enabled()) {
      filter = find_workload("miss-filtered-annotated", false)
                   .config.master.filter;
    }
    std::vector<double> screen_ms, screen_gcups, rescan_ms;
    double screen_cells = 0, rescan_cells = 0, rescans = 0, uncertain = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      align::ScreenResult screen;
      const double s = recorder.time(
          "screen_range", "filter", layer, request(q), [&] {
            screen = align::screen_range(*profiles[q], view, 0, view.size(),
                                         filter.band);
          });
      screen_ms.push_back(s * 1e3);
      screen_gcups.push_back(static_cast<double>(screen.cells) / s / 1e9);
      screen_cells += static_cast<double>(screen.cells);
      align::FilterStats stats;
      std::vector<std::uint32_t> candidates;
      recorder.time("filter_select_candidates", "filter", layer, request(q),
                    [&] {
                      candidates = align::filter_select_candidates(
                          screen, k, filter, &stats);
                    });
      align::DbView rescan;
      for (const std::uint32_t c : candidates) {
        if (!screen.exact[c]) rescan.push_back(view[c]);
      }
      align::SearchResult result;
      rescan_ms.push_back(
          1e3 * recorder.time("search_database(candidates)", "filter", layer,
                              request(q), [&] {
                                result =
                                    align::search_database(*profiles[q], rescan);
                              }));
      rescan_cells += static_cast<double>(result.cells);
      rescans += static_cast<double>(rescan.size());
      uncertain += static_cast<double>(stats.band_uncertain);
    }
    recorder.close(layer);

    // annotate: fresh calibration, then stats and stats+cigar on the top-k.
    layer = recorder.open("annotate replay", "annotate");
    std::shared_ptr<const align::KarlinAltschulParams> params;
    std::vector<double> calibrate_ms;
    for (int rep = 0; rep < 3; ++rep) {
      align::StatsCache cache;
      calibrate_ms.push_back(
          1e3 * recorder.time("StatsCache::acquire", "annotate", layer, -1,
                              [&] {
                                params = cache.acquire(
                                    mc.scheme,
                                    seq::Alphabet::get(db.alphabet()), w.name);
                              }));
    }
    std::vector<double> annotate_ms[2];
    const align::AnnotateMode modes[2] = {align::AnnotateMode::kStats,
                                          align::AnnotateMode::kStatsCigar};
    for (std::size_t mode = 0; mode < 2; ++mode) {
      align::AnnotateConfig annotate;
      annotate.mode = modes[mode];
      for (std::size_t q = 0; q < queries.size(); ++q) {
        std::vector<align::SearchHit> hits = exact_hits[q];
        annotate_ms[mode].push_back(
            1e3 * recorder.time("annotate_hits", "annotate", layer,
                                request(q), [&] {
                                  align::annotate_hits(
                                      hits, residues(queries[q]), view,
                                      mc.scheme, annotate, *params,
                                      db.total_residues());
                                }));
      }
    }
    recorder.close(layer);

    // master / sched: one batch of the observed mean size, the same batch
    // against a 1-record view (fixed cost, warm profiles), and the plan.
    layer = recorder.open("master replay", "master");
    master::MasterConfig engine = mc;
    engine.stats = params.get();
    const std::vector<seq::Sequence> batch(queries.begin(),
                                           queries.begin() + group);
    std::vector<double> batch_ms;
    for (int rep = 0; rep < 3; ++rep) {
      batch_ms.push_back(1e3 * recorder.time("run_search", "master", layer, -1,
                                             [&] {
                                               (void)master::run_search(
                                                   batch, view, engine);
                                             }));
    }
    const align::DbView one_record(view.begin(), view.begin() + 1);
    align::ProfileCache warm(2 * kReplayQueries);
    engine.profile_cache = &warm;
    (void)master::run_search(queries, one_record, engine);
    std::vector<double> fixed_ms, solo_fixed_ms;
    for (int rep = 0; rep < 5; ++rep) {
      fixed_ms.push_back(
          1e3 * recorder.time("run_search(1 record)", "master", layer, -1,
                              [&] {
                                (void)master::run_search(batch, one_record,
                                                         engine);
                              }));
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::vector<seq::Sequence> one_query = {queries[q]};
      solo_fixed_ms.push_back(
          1e3 * recorder.time("run_search(1 record)", "master", layer,
                              request(q), [&] {
                                (void)master::run_search(one_query, one_record,
                                                         engine);
                              }));
    }
    std::vector<sched::Task> tasks;
    for (std::size_t q = 0; q < group; ++q) {
      tasks.push_back(mc.model.make_task(q, static_cast<std::uint64_t>(m * n)));
    }
    const sched::HybridPlatform platform{mc.cpu_workers, mc.gpu_workers};
    std::vector<double> plan_us;
    for (int rep = 0; rep < 200; ++rep) {
      plan_us.push_back(1e6 * recorder.time("swdual_schedule", "sched", layer,
                                            -1, [&] {
                                              (void)sched::swdual_schedule(
                                                  tasks, platform);
                                            }));
    }
    recorder.close(layer);

    // Solo replay: lone requests to a fresh service (all misses), each
    // preceded by the same query through the layers below serve along its
    // blocking path, so both see the same host conditions. Master path: the
    // profile build and kernel scan on a freshly started thread, as a master
    // task runs on a freshly started worker (on this class of host a fresh
    // thread scans ~10% slower than a warm one), plus the master's fixed
    // cost. Sharded path: one cold group pass, then the post-gather
    // annotation. The sample queries are then resubmitted as cache hits.
    layer = recorder.open("solo replay", "serve");
    std::vector<double> solo_ms, solo_hit_ms, coverage;
    {
      serve::QueryService service(setup.db, w.config);
      std::unique_ptr<align::ShardedSearchEngine> sharded;
      if (w.sharded()) {
        sharded = std::make_unique<align::ShardedSearchEngine>(setup.db,
                                                               shard_options);
      }
      const double fixed_s = median(solo_fixed_ms) / 1e3;
      // Submit one request; returns (latency, queue) seconds.
      const auto submit = [&](const seq::Sequence& query, std::uint64_t id) {
        ++attempted;
        serve::QueryResponse response;
        const double s = recorder.time(
            "QueryService::submit", "serve", layer,
            static_cast<std::int64_t>(id),
            [&] { response = service.submit(query).result.get(); });
        const std::string error =
            check_response(response, w, records, inputs.planted(id));
        if (!error.empty()) {
          ++failed;
          errors.push_back("solo query " + std::to_string(id) + ": " + error);
        }
        return std::pair{s, response.queue_seconds};
      };
      for (std::uint64_t id = 0; id < kSoloQueries; ++id) {
        const seq::Sequence query = inputs.query(id);
        const auto r = static_cast<std::int64_t>(id);
        double below = 0.0;
        if (sharded) {
          std::vector<align::ShardedSearchResult> result;
          const std::span<const std::uint8_t> one[] = {residues(query)};
          below += recorder.time(
              "ShardedSearchEngine::search_many_filtered", "shard", layer, r,
              [&] {
                result = sharded->search_many_filtered(
                    one, mc.scheme, mc.cpu_kernel, k, mc.filter);
              });
          if (mc.annotate.enabled()) {
            below += recorder.time("annotate_hits", "annotate", layer, r, [&] {
              align::annotate_hits(result[0].ranked.hits, residues(query),
                                   view, mc.scheme, mc.annotate, *params,
                                   db.total_residues());
            });
          }
        } else {
          std::thread([&] {
            std::unique_ptr<align::SearchProfiles> built;
            below += recorder.time("SearchProfiles", "profile", layer, r, [&] {
              built = std::make_unique<align::SearchProfiles>(
                  residues(query), mc.scheme, mc.cpu_kernel, mc.cpu_backend);
            });
            below += recorder.time("search_database", "kernel", layer, r,
                                   [&] {
                                     (void)align::search_database(*built,
                                                                  view);
                                   });
          }).join();
          below += fixed_s;
        }
        const auto [latency, queue] = submit(query, id);
        solo_ms.push_back(latency * 1e3);
        coverage.push_back((queue + below) / latency);
      }
      for (std::size_t q = 0; q < queries.size(); ++q) {
        solo_hit_ms.push_back(submit(queries[q], q).first * 1e3);
      }
    }
    recorder.close(layer);

    const double kernel_cells = mean(cells);
    const double scan_rate = kernel_cells / median(scan_s) / 1e9;
    const std::vector<Metric> metrics = {
        {"seq.open_ms", setup.open_ms, "ms"},
        {"serve.start_ms", setup.start_ms, "ms"},
        {"profile.build_us", median(build_us), "us"},
        {"kernel.scan_gcups", scan_rate, "GCUPS"},
        {"kernel.cells_per_query", kernel_cells, "count"},
        {"kernel.overflow_rescans", mean(overflow), "count"},
        {"engine.gcups_t1", engine_gcups[0], "GCUPS"},
        {"engine.gcups_t2", engine_gcups[1], "GCUPS"},
        {"engine.gcups_t4", engine_gcups[2], "GCUPS"},
        {"engine.efficiency_t4", engine_gcups[2] / (4.0 * engine_gcups[0]),
         "ratio"},
        {"shard.imbalance", imbalance, "ratio"},
        {"shard.group_ms", median(sharded_ms), "ms"},
        {"shard.overhead_frac", median(sharded_ms) / median(chunked_ms) - 1.0,
         "ratio"},
        {"serve.db_passes_per_query", db_passes, "ratio"},
        {"filter.screen_ms", median(screen_ms), "ms"},
        {"filter.screen_gcups", median(screen_gcups), "GCUPS"},
        {"filter.rescan_ms", median(rescan_ms), "ms"},
        {"filter.rescans_per_query",
         rescans / static_cast<double>(queries.size()), "count"},
        {"filter.band_uncertain_per_query",
         uncertain / static_cast<double>(queries.size()), "count"},
        {"filter.useful_frac",
         rescans > 0 ? static_cast<double>(k * queries.size()) / rescans
                     : 1.0,
         "ratio"},
        {"filter.cell_frac",
         (screen_cells + rescan_cells) /
             (kernel_cells * static_cast<double>(queries.size())),
         "ratio"},
        {"annotate.stats_ms", median(annotate_ms[0]), "ms"},
        {"annotate.cigar_ms", median(annotate_ms[1]), "ms"},
        {"annotate.calibrate_ms", median(calibrate_ms), "ms"},
        {"master.batch_ms", median(batch_ms), "ms"},
        {"master.batch_gcups",
         static_cast<double>(group) * m * n / median(batch_ms) / 1e6, "GCUPS"},
        {"master.fixed_ms", median(fixed_ms), "ms"},
        {"sched.plan_us", median(plan_us), "us"},
        {"serve.cache_hit_rate", lookups > 0 ? cache_hits / lookups : 0.0, "ratio"},
        {"serve.hit_latency_ms_p50",
         median(plain.hit_latency_ms.size() >= 10 ? plain.hit_latency_ms
                                                  : solo_hit_ms),
         "ms"},
        {"serve.queue_ms_p50", median(plain.queue_ms), "ms"},
        {"serve.execute_ms_p50", median(plain.execute_ms), "ms"},
        {"serve.mean_batch", mean_batch, "count"},
        {"trace.solo_latency_ms", median(solo_ms), "ms"},
        {"trace.coverage", median(coverage), "ratio"},
        {"trace.overhead_frac",
         1.0 - requests_per_second(traced) / requests_per_second(plain),
         "ratio"},
    };

    recorder.write_chrome(cli.option("trace-out"));
    std::fprintf(stderr,
                 "%s seed %llu: solo %.3f ms, coverage %.3f, mean batch "
                 "%.2f, %llu requests, %llu failed\n",
                 w.name.c_str(), static_cast<unsigned long long>(seed),
                 median(solo_ms), median(coverage), mean_batch,
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    report_errors(errors);
    setup.service.reset();
    setup.db.reset();
    std::remove(path.c_str());
    print_result(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
