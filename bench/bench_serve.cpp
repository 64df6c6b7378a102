// Closed-loop traffic driver for the concurrent query service (src/serve).
//
// Simulates a deployment day-in-the-life: N client threads submit queries
// drawn Zipf-skewed from a fixed pool (real annotation traffic repeats hot
// queries), each waiting for its answer before submitting the next (closed
// loop, so admission backpressure throttles clients instead of dropping
// work). Reports sustained throughput, end-to-end latency percentiles
// (p50/p95/p99 from the service's own serve_latency_seconds histogram),
// result-cache hit rate, batching effectiveness, and a bit-identity check of
// every response against the direct align::search_database path.
//
// With --shards N the service runs the sharded scatter-gather engine
// (src/align/sharded_search.h): N residue-balanced shards, each batch's
// distinct queries sharing ONE pass over every shard chunk. The JSON output
// (--json) records the amortized per-query DB scan cost
// (db_passes_per_query = shard group passes / distinct searches — below 1.0
// whenever micro-batching collapses concurrent queries into shared passes)
// plus the planner's residue imbalance, which --db-zipf-s stresses with a
// Zipf-skewed record-length distribution (the hot-shard scenario).
//
//   ./bench_serve [--records N] [--len L] [--db-zipf-s S] [--pool P]
//                 [--query-len Q] [--requests R] [--clients C] [--zipf-s S]
//                 [--max-batch B] [--admission A] [--cache K]
//                 [--cpu-workers M] [--gpu-workers G] [--shards N]
//                 [--threads-per-shard T] [--annotate MODE] [--evalue E]
//                 [--seed S] [--out CSV] [--json PATH] [--scenario NAME]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "align/annotate.h"
#include "align/search.h"
#include "align/sharded_search.h"
#include "bench_common.h"
#include "obs/metrics.h"
#include "seq/dbgen.h"
#include "serve/service.h"
#include "util/cli.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace swdual;

/// Sample an index in [0, weights.size()) from the precomputed Zipf CDF.
std::size_t sample_cdf(Rng& rng, const std::vector<double>& cdf) {
  const double u = rng.uniform() * cdf.back();
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    if (u < cdf[i]) return i;
  }
  return cdf.size() - 1;
}

/// Minimal JSON string escaping (quotes and backslashes; bench strings
/// contain nothing fancier).
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_serve",
                "closed-loop Zipf traffic against the query service");
  cli.add_option("records", "database records", "400");
  cli.add_option("len", "residues per record", "150");
  cli.add_option("db-zipf-s",
                 "Zipf skew of DB record lengths (0 = uniform jitter)", "0");
  cli.add_option("pool", "distinct queries in the traffic pool", "24");
  cli.add_option("query-len", "query length", "120");
  cli.add_option("requests", "total requests across all clients", "600");
  cli.add_option("clients", "closed-loop client threads", "6");
  cli.add_option("zipf-s", "Zipf skew exponent (0 = uniform)", "1.1");
  cli.add_option("max-batch", "service micro-batch limit", "8");
  cli.add_option("admission", "admission queue capacity", "64");
  cli.add_option("cache", "result cache capacity", "256");
  cli.add_option("cpu-workers", "CPU workers", "2");
  cli.add_option("gpu-workers", "GPU workers", "1");
  cli.add_option("shards", "scatter-gather shards (0 = master path)", "0");
  cli.add_option("threads-per-shard", "scan threads inside each shard", "1");
  cli.add_option("filter-mode",
                 "two-stage search filter: off (exact full scan) | heuristic "
                 "(banded screen + exact candidate rescan)",
                 "off");
  cli.add_option("band", "screening band half-width (heuristic filter)",
                 "32");
  cli.add_option("keep-factor",
                 "screened candidates kept per requested hit (heuristic "
                 "filter)",
                 "4.0");
  cli.add_option("annotate",
                 "per-hit annotation: off | stats (e-value + bit score) | "
                 "stats+cigar (adds a traceback CIGAR)",
                 "off");
  cli.add_option("evalue",
                 "drop hits with e-value above this cutoff (--annotate; "
                 "inf = keep all, preserving the bit-identity oracle)",
                 "inf");
  cli.add_option("plant",
                 "homologs planted per pool query (mutated query copies "
                 "appended to the database; enables the recall oracle's "
                 "hard targets)",
                 "0");
  cli.add_option("seed", "traffic RNG seed", "7");
  cli.add_option("out", "CSV output path", "serve_bench.csv");
  cli.add_option("json", "JSON scenario output path (empty = none)", "");
  cli.add_option("scenario", "scenario label for the JSON record", "default");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }

  std::size_t records = 0, len = 0, pool_size = 0, query_len = 0;
  std::size_t requests = 0, clients = 0, plant = 0;
  double zipf_s = 0.0, db_zipf_s = 0.0;
  serve::ServiceConfig config;
  std::uint64_t seed = 0;
  try {
    records = cli.option_uint("records");
    len = cli.option_uint("len");
    db_zipf_s = cli.option_double("db-zipf-s");
    pool_size = cli.option_uint("pool");
    query_len = cli.option_uint("query-len");
    requests = cli.option_uint("requests");
    clients = cli.option_uint("clients");
    zipf_s = cli.option_double("zipf-s");
    config.max_batch = cli.option_uint("max-batch");
    config.admission_capacity = cli.option_uint("admission");
    config.result_cache_capacity = cli.option_uint("cache");
    config.master.cpu_workers = cli.option_uint("cpu-workers");
    config.master.gpu_workers = cli.option_uint("gpu-workers");
    config.shards = cli.option_uint("shards");
    config.threads_per_shard =
        std::max<std::size_t>(1, cli.option_uint("threads-per-shard"));
    if (!align::parse_filter_mode(cli.option("filter-mode"),
                                  config.master.filter.mode)) {
      throw InvalidArgument("unknown filter mode: " +
                            cli.option("filter-mode") +
                            " (want off|heuristic)");
    }
    config.master.filter.band = cli.option_uint("band");
    config.master.filter.keep_factor = cli.option_double("keep-factor");
    config.master.filter.validate();
    if (!align::parse_annotate_mode(cli.option("annotate"),
                                    config.master.annotate.mode)) {
      throw InvalidArgument("unknown annotate mode: " + cli.option("annotate") +
                            " (want off|stats|stats+cigar)");
    }
    config.master.annotate.evalue_cutoff = cli.option_positive_double("evalue");
    config.master.annotate.validate();
    plant = cli.option_uint("plant");
    seed = static_cast<std::uint64_t>(cli.option_uint("seed"));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  bench::banner(
      "query service under closed-loop Zipf traffic",
      std::to_string(clients) + " clients, " + std::to_string(requests) +
          " requests, pool " + std::to_string(pool_size) + ", zipf-s " +
          cli.option("zipf-s"));

  Rng rng(seed);
  std::vector<seq::Sequence> db;
  db.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    std::size_t record_len;
    if (db_zipf_s > 0.0) {
      // Hot-shard skew: record lengths follow a Zipf rank distribution (a
      // few giant records, a long tail of short ones), the worst case for a
      // residue-balancing shard planner. Ranks are assigned by shuffled
      // index so the giants land at arbitrary database positions.
      const std::size_t rank = (i * 0x9e3779b9u) % records;
      record_len = std::max<std::size_t>(
          24, static_cast<std::size_t>(
                  3.0 * static_cast<double>(len) /
                  std::pow(static_cast<double>(rank + 1), db_zipf_s)));
    } else {
      record_len = len / 2 + rng.below(len);
    }
    db.push_back(
        seq::random_protein(rng, "d" + std::to_string(i), record_len));
  }

  std::vector<seq::Sequence> pool;
  pool.reserve(pool_size);
  for (std::size_t q = 0; q < pool_size; ++q) {
    pool.push_back(
        seq::random_protein(rng, "q" + std::to_string(q), query_len));
  }

  // Homolog planting: append `plant` mutated copies of every pool query to
  // the database (point substitutions every ~20 residues). The planted
  // records dominate their query's exact top-k, so the recall oracle below
  // measures whether the two-stage filter keeps precisely the hits that
  // matter in a homology workload.
  for (std::size_t q = 0; q < pool.size() && plant > 0; ++q) {
    for (std::size_t p = 0; p < plant; ++p) {
      std::vector<std::uint8_t> h = pool[q].residues;
      for (std::size_t i = 0; i < h.size(); i += 17 + p % 5) {
        h[i] = static_cast<std::uint8_t>(rng.below(20));
      }
      db.emplace_back("h" + std::to_string(q) + "_" + std::to_string(p), "",
                      seq::AlphabetKind::kProtein, std::move(h));
    }
  }

  // Shard plan diagnostics (the service builds the same plan internally —
  // align::plan_shards is deterministic on the record lengths).
  double plan_imbalance = 0.0;
  std::uint64_t plan_residues = 0;
  if (config.shards > 0) {
    std::vector<std::uint32_t> lengths;
    lengths.reserve(db.size());
    for (const seq::Sequence& record : db) {
      lengths.push_back(static_cast<std::uint32_t>(record.residues.size()));
    }
    const align::ShardPlan plan = align::plan_shards(
        std::span<const std::uint32_t>(lengths), config.shards);
    plan_imbalance = plan.imbalance();
    plan_residues = plan.total_residues;
  }

  // Zipf CDF over the pool: weight(rank i) = 1 / (i+1)^s.
  std::vector<double> cdf(pool.size());
  double cumulative = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    cumulative += 1.0 / std::pow(static_cast<double>(i + 1), zipf_s);
    cdf[i] = cumulative;
  }

  // Ground truth per pool query: the exact top-k, used as the bit-identity
  // oracle when the filter is off and as the recall@k oracle when it is on.
  config.db_id = "bench";
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  const std::size_t top = config.master.top_hits;
  const align::ScoringScheme scheme = config.master.scheme;
  const align::KernelKind kernel = config.master.cpu_kernel;
  std::vector<std::vector<align::SearchHit>> expected(pool.size());
  for (std::size_t q = 0; q < pool.size(); ++q) {
    expected[q] = align::search_database(pool[q], db, scheme, kernel).top(top);
  }

  const std::size_t shards = config.shards;
  const std::size_t threads_per_shard = config.threads_per_shard;
  const align::FilterConfig filter_config = config.master.filter;
  const align::AnnotateConfig annotate_config = config.master.annotate;
  serve::QueryService service(db, std::move(config));

  util::Mutex stats_mutex;
  std::uint64_t mismatches = 0;
  std::uint64_t backpressure_retries = 0;
  double recall_sum = 0.0;
  double recall_min = 1.0;
  std::uint64_t recall_count = 0;
  const std::size_t per_client = requests / clients;

  WallTimer wall;
  std::vector<std::thread> client_threads;
  for (std::size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      Rng traffic(seed ^ (0x9e3779b97f4a7c15ull * (c + 1)));
      std::uint64_t local_retries = 0;
      std::uint64_t local_mismatches = 0;
      double local_recall_sum = 0.0;
      double local_recall_min = 1.0;
      std::uint64_t local_recall_count = 0;
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t pick = sample_cdf(traffic, cdf);
        serve::Submission ticket;
        for (;;) {
          ticket = service.submit(pool[pick]);
          if (ticket.accepted()) break;
          ++local_retries;  // closed loop: back off and retry on full queue
          std::this_thread::yield();
        }
        const serve::QueryResponse response = ticket.result.get();
        if (filter_config.enabled()) {
          // Recall@k against the exact oracle. An expected hit counts as
          // recalled on an index match or a score match: under score ties
          // the exact top-k set is not unique, and a tie-equivalent record
          // is exactly as good an answer.
          std::size_t recalled = 0;
          for (const align::SearchHit& want : expected[pick]) {
            for (const align::SearchHit& got : response.hits) {
              if (got.db_index == want.db_index || got.score == want.score) {
                ++recalled;
                break;
              }
            }
          }
          const double recall =
              expected[pick].empty()
                  ? 1.0
                  : static_cast<double>(recalled) /
                        static_cast<double>(expected[pick].size());
          local_recall_sum += recall;
          local_recall_min = std::min(local_recall_min, recall);
          ++local_recall_count;
          continue;
        }
        if (annotate_config.enabled() &&
            std::isfinite(annotate_config.evalue_cutoff)) {
          // A finite cutoff legitimately drops hits, so the bit-identity
          // oracle (computed without annotation) no longer applies.
          continue;
        }
        if (response.hits.size() != expected[pick].size()) {
          ++local_mismatches;
          continue;
        }
        for (std::size_t h = 0; h < response.hits.size(); ++h) {
          if (response.hits[h].db_index != expected[pick][h].db_index ||
              response.hits[h].score != expected[pick][h].score) {
            ++local_mismatches;
            break;
          }
        }
      }
      util::MutexLock lock(stats_mutex);
      backpressure_retries += local_retries;
      mismatches += local_mismatches;
      recall_sum += local_recall_sum;
      recall_min = std::min(recall_min, local_recall_min);
      recall_count += local_recall_count;
    });
  }
  for (auto& thread : client_threads) thread.join();
  const double elapsed = wall.seconds();
  service.shutdown();

  const std::uint64_t completed = per_client * clients;
  const auto stats = service.stats();
  const double hit_rate =
      stats.results.hits + stats.results.misses > 0
          ? static_cast<double>(stats.results.hits) /
                static_cast<double>(stats.results.hits + stats.results.misses)
          : 0.0;
  const double throughput =
      elapsed > 0 ? static_cast<double>(completed) / elapsed : 0.0;
  const double p50 = metrics.percentile("serve_latency_seconds", 0.50) * 1e3;
  const double p95 = metrics.percentile("serve_latency_seconds", 0.95) * 1e3;
  const double p99 = metrics.percentile("serve_latency_seconds", 0.99) * 1e3;
  const double mean_batch =
      metrics.histogram("serve_batch_size").mean();

  TextTable table;
  table.set_header({"metric", "value"});
  table.add_row({"requests completed", std::to_string(completed)});
  table.add_row({"wall seconds", TextTable::fmt(elapsed, 3)});
  table.add_row({"throughput (req/s)", TextTable::fmt(throughput, 1)});
  table.add_row({"latency p50 (ms)", TextTable::fmt(p50, 3)});
  table.add_row({"latency p95 (ms)", TextTable::fmt(p95, 3)});
  table.add_row({"latency p99 (ms)", TextTable::fmt(p99, 3)});
  table.add_row({"cache hit rate", TextTable::fmt(hit_rate, 3)});
  table.add_row({"distinct searches", std::to_string(stats.searches)});
  table.add_row({"batches", std::to_string(stats.batches)});
  table.add_row({"mean batch size", TextTable::fmt(mean_batch, 2)});
  table.add_row(
      {"backpressure retries", std::to_string(backpressure_retries)});
  // Amortized DB scan cost per distinct query: on the sharded path every
  // group pass scans the whole database once for ALL of a batch's distinct
  // queries, so this falls below 1.0 exactly when micro-batching collapses
  // concurrent traffic into shared passes.
  const double db_passes_per_query =
      stats.searches > 0
          ? static_cast<double>(stats.shards.group_passes) /
                static_cast<double>(stats.searches)
          : 0.0;
  if (shards > 0) {
    table.add_row({"shards", std::to_string(shards)});
    table.add_row({"plan imbalance", TextTable::fmt(plan_imbalance, 4)});
    table.add_row({"group passes",
                   std::to_string(stats.shards.group_passes)});
    table.add_row({"db passes / query", TextTable::fmt(db_passes_per_query,
                                                       3)});
    table.add_row({"shard scans", std::to_string(stats.shards.scans)});
    table.add_row({"shard retries", std::to_string(stats.shards.retries)});
  }
  const double recall_mean =
      recall_count > 0 ? recall_sum / static_cast<double>(recall_count) : 1.0;
  if (filter_config.enabled()) {
    table.add_row({"filter mode",
                   align::filter_mode_name(filter_config.mode)});
    table.add_row({"filter band", std::to_string(filter_config.band)});
    table.add_row({"filter keep-factor",
                   TextTable::fmt(filter_config.keep_factor, 2)});
    table.add_row({"planted homologs / query", std::to_string(plant)});
    table.add_row({"filter candidates",
                   std::to_string(stats.filter.candidates)});
    table.add_row({"filter rescans", std::to_string(stats.filter.rescans)});
    table.add_row({"filter band-uncertain",
                   std::to_string(stats.filter.band_uncertain)});
    table.add_row({"recall@k mean", TextTable::fmt(recall_mean, 4)});
    table.add_row({"recall@k min", TextTable::fmt(recall_min, 4)});
  } else if (annotate_config.enabled() &&
             std::isfinite(annotate_config.evalue_cutoff)) {
    table.add_row({"scores==direct", "skipped (finite e-value cutoff)"});
  } else {
    table.add_row({"scores==direct", mismatches == 0 ? "yes" : "NO"});
  }
  if (annotate_config.enabled()) {
    table.add_row({"annotate mode",
                   align::annotate_mode_name(annotate_config.mode)});
    table.add_row({"annotate e-value cutoff", cli.option("evalue")});
  }
  std::printf("%s", table.render().c_str());
  bench::emit_csv(table, cli.option("out"));

  const std::string json_path = cli.option("json");
  if (!json_path.empty()) {
    std::FILE* json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"scenario\": \"%s\",\n",
                 json_escape(cli.option("scenario")).c_str());
    std::fprintf(json,
                 "  \"config\": {\"records\": %zu, \"len\": %zu, "
                 "\"db_zipf_s\": %g, \"pool\": %zu, \"query_len\": %zu, "
                 "\"requests\": %llu, \"clients\": %zu, \"zipf_s\": %g, "
                 "\"max_batch\": %s, \"shards\": %zu, "
                 "\"threads_per_shard\": %zu},\n",
                 records, len, db_zipf_s, pool_size, query_len,
                 static_cast<unsigned long long>(completed), clients, zipf_s,
                 cli.option("max-batch").c_str(), shards, threads_per_shard);
    std::fprintf(json,
                 "  \"plan\": {\"shards\": %zu, \"imbalance\": %.4f, "
                 "\"total_residues\": %llu},\n",
                 shards, plan_imbalance,
                 static_cast<unsigned long long>(plan_residues));
    std::fprintf(
        json,
        "  \"filter\": {\"mode\": \"%s\", \"band\": %zu, "
        "\"keep_factor\": %g, \"plant\": %zu, \"candidates\": %llu, "
        "\"rescans\": %llu, \"band_uncertain\": %llu, "
        "\"recall_mean\": %.4f, \"recall_min\": %.4f},\n",
        align::filter_mode_name(filter_config.mode), filter_config.band,
        filter_config.keep_factor, plant,
        static_cast<unsigned long long>(stats.filter.candidates),
        static_cast<unsigned long long>(stats.filter.rescans),
        static_cast<unsigned long long>(stats.filter.band_uncertain),
        recall_mean, recall_min);
    std::fprintf(json,
                 "  \"annotate\": {\"mode\": \"%s\", "
                 "\"evalue_cutoff\": \"%s\"},\n",
                 align::annotate_mode_name(annotate_config.mode),
                 json_escape(cli.option("evalue")).c_str());
    std::fprintf(
        json,
        "  \"results\": {\"wall_seconds\": %.4f, \"throughput_rps\": %.1f, "
        "\"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}, "
        "\"cache_hit_rate\": %.4f, \"distinct_searches\": %llu, "
        "\"batches\": %llu, \"mean_batch\": %.2f, "
        "\"group_passes\": %llu, \"db_passes_per_query\": %.4f, "
        "\"shard_scans\": %llu, \"shard_retries\": %llu, "
        "\"partial_responses\": %llu, "
        "\"backpressure_retries\": %llu, \"scores_identical\": %s}\n",
        elapsed, throughput, p50, p95, p99, hit_rate,
        static_cast<unsigned long long>(stats.searches),
        static_cast<unsigned long long>(stats.batches), mean_batch,
        static_cast<unsigned long long>(stats.shards.group_passes),
        db_passes_per_query,
        static_cast<unsigned long long>(stats.shards.scans),
        static_cast<unsigned long long>(stats.shards.retries),
        static_cast<unsigned long long>(stats.partial_responses),
        static_cast<unsigned long long>(backpressure_retries),
        mismatches == 0 ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
  }

  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %llu responses differed from direct search\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  // Planted homologs are unambiguous top-k mass; losing any of them means
  // the filter is misconfigured for the workload, so fail loudly.
  if (filter_config.enabled() && plant > 0 && recall_min < 1.0) {
    std::fprintf(stderr,
                 "FAIL: recall@k fell below 1.0 on the planted corpus "
                 "(min %.4f, mean %.4f)\n",
                 recall_min, recall_mean);
    return 1;
  }
  return 0;
}
