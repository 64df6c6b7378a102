// Serial vs chunked-parallel database search: measured GCUPS per kernel,
// SIMD backend, and thread count on this host, with a scores-equality check
// against the serial scalar-free reference on every configuration. Emits
// BENCH_parallel_search.json so later changes have a recorded perf
// trajectory, and exits 1 with a FAIL line on stderr when any
// configuration's scores differ from the reference (the scores==ref column
// reads NO there). The filtered rows report recall@k against the exact
// top-k in their own column; the heuristic filter may lose recall, so
// recall does not fail the run. They also report the filter's funnel per
// query from SearchOutcome::filter: exact rescans, and the records kept
// only because their best banded cell is still on the edge of the
// cascade's widest band.
//
//   ./bench_parallel_search [--records N] [--len L] [--query-len Q]
//                           [--threads-list 1,2,4] [--backend-list all]
//                           [--reps R] [--db-zipf-s S] [--shards N]
//
// Kernel rows report their best, median and worst GCUPS over --reps, the
// filtered rows their best.
// --db-zipf-s S > 0 draws the record lengths from a Zipf rank distribution,
// max(24, 3·len / rank^S), the length skew of the sharded serve workloads.
// --shards N > 0 adds, per backend and exact kernel, the sharded layer: a
// group pass of two queries through N shards × t threads per shard against
// the chunked engine at N·t threads, for every t in --threads-list (median,
// min and max wall time over --reps, GCUPS from the median, and score
// identity with the serial scan).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "align/backend.h"
#include "align/parallel_search.h"
#include "align/pipeline.h"
#include "align/search.h"
#include "align/sharded_search.h"
#include "bench_common.h"
#include "seq/dbgen.h"
#include "seq/swdb.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace swdual;

std::vector<std::size_t> parse_list(const std::string& csv) {
  std::vector<std::size_t> out;
  for (const std::string& item : split(csv, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const unsigned long value = std::strtoul(item.c_str(), &end, 10);
    SWDUAL_REQUIRE(end != nullptr && *end == '\0' && value > 0,
                   "--threads-list entry is not a positive integer: " + item);
    out.push_back(static_cast<std::size_t>(value));
  }
  return out;
}

/// Median, min and max of `samples` (sorted in place; non-empty).
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread_of(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

/// One-line roofline characterization per kernel, recorded in the JSON so a
/// perf trajectory reader knows what bound each number sits against.
const char* roofline_note(swdual::align::KernelKind kernel) {
  switch (kernel) {
    case swdual::align::KernelKind::kStriped8:
      return "8-bit striped lazy-F: register-resident query profile, ~12 "
             "SIMD ops/cell, no per-cell memory traffic; compute-bound";
    case swdual::align::KernelKind::kStriped:
      return "16-bit striped lazy-F: same op mix at half the lanes; "
             "compute-bound";
    case swdual::align::KernelKind::kInterSeq:
      return "16-bit inter-sequence: dprofile rebuild is asize*lanes "
             "stores per DB column, inner loop one aligned load/cell; "
             "compute-bound at full lanes (longest-first batches remove "
             "tail idle)";
    default:
      return "scalar reference";
  }
}

/// "all" → every backend the host can run, otherwise a comma-separated list
/// of backend names, each validated as available.
std::vector<align::Backend> parse_backends(const std::string& csv) {
  if (csv == "all") return align::available_backends();
  std::vector<align::Backend> out;
  for (const std::string& item : split(csv, ',')) {
    if (item.empty()) continue;
    align::Backend backend = align::Backend::kAuto;
    SWDUAL_REQUIRE(align::parse_backend(item, backend) &&
                       backend != align::Backend::kAuto,
                   "--backend-list entry is not a backend name: " + item);
    SWDUAL_REQUIRE(align::backend_available(backend),
                   "backend not available on this host: " + item);
    out.push_back(backend);
  }
  SWDUAL_REQUIRE(!out.empty(), "--backend-list is empty");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_parallel_search",
                "serial vs chunked-parallel search GCUPS");
  cli.add_option("records", "database records", "1500");
  cli.add_option("len", "residues per record", "220");
  cli.add_option("query-len", "query length", "360");
  cli.add_option("threads-list", "thread counts to measure", "1,2,4");
  cli.add_option("backend-list",
                 "SIMD backends to measure ('all' = every available)", "all");
  cli.add_option("reps", "repetitions (best, median and worst reported)",
                 "3");
  cli.add_option("plant", "mutated query homologs planted in the database",
                 "12");
  cli.add_option("filter-band", "banded-screen half-width for the filtered "
                 "rows", "16");
  cli.add_option("top-k", "hits requested from the filtered search", "10");
  cli.add_option("db-zipf-s",
                 "Zipf skew of record lengths (0 = uniform jitter)", "0");
  cli.add_option("shards", "shards of the sharded group-pass rows (0 = none)",
                 "0");
  cli.add_option("out", "JSON output path", "BENCH_parallel_search.json");
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

  std::size_t records = 0, len = 0, query_len = 0, reps = 0;
  std::size_t plant = 0, filter_band = 0, top_k = 0, shards = 0;
  double db_zipf_s = 0.0;
  std::vector<std::size_t> thread_counts;
  std::vector<align::Backend> backends;
  try {
    records = cli.option_uint("records");
    len = cli.option_uint("len");
    query_len = cli.option_uint("query-len");
    reps = cli.option_uint("reps");
    SWDUAL_REQUIRE(reps > 0, "--reps must be >= 1");
    plant = cli.option_uint("plant");
    filter_band = cli.option_uint("filter-band");
    top_k = cli.option_uint("top-k");
    shards = cli.option_uint("shards");
    db_zipf_s = cli.option_double("db-zipf-s");
    SWDUAL_REQUIRE(db_zipf_s >= 0.0, "--db-zipf-s must be >= 0");
    SWDUAL_REQUIRE(filter_band > 0, "--filter-band must be >= 1");
    SWDUAL_REQUIRE(top_k > 0, "--top-k must be >= 1");
    thread_counts = parse_list(cli.option("threads-list"));
    backends = parse_backends(cli.option("backend-list"));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  bench::banner("parallel search engine: serial vs chunked multithreaded scan",
                "host threads: " +
                    std::to_string(std::thread::hardware_concurrency()));

  Rng rng(4242);
  std::vector<seq::Sequence> db;
  db.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    // Mild length skew so chunk balancing has something to balance, or a
    // Zipf rank skew (a few giants, a long tail of short records) with the
    // ranks scattered over the database.
    std::size_t record_len = 0;
    if (db_zipf_s > 0.0) {
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
  const seq::Sequence query = seq::random_protein(rng, "q", query_len);
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  // The sharded rows' second query, drawn apart so the database does not
  // depend on --shards.
  Rng second_rng(4243);
  const seq::Sequence second_query =
      seq::random_protein(second_rng, "q2", query_len);
  const std::span<const std::uint8_t> second_view(
      second_query.residues.data(), second_query.residues.size());
  // Planted homologs (point substitutions every ~20 residues) give the
  // filtered rows a realistic top-k: without them the exact top-k is
  // off-diagonal noise, the screen's documented miss class.
  for (std::size_t p = 0; p < plant; ++p) {
    seq::Sequence h = query;
    h.id = "plant" + std::to_string(p);
    for (std::size_t i = p % 7; i < h.residues.size(); i += 19 + p % 5) {
      h.residues[i] = static_cast<std::uint8_t>(rng.below(20));
    }
    db.push_back(std::move(h));
  }

  // Measure what production runs: an SWDB v2 pre-encoded database served
  // zero-copy out of one shared mapping. The serial reference and every
  // engine read the same 64-byte-aligned residue spans.
  const std::string swdb_path = cli.option("out") + ".tmp.swdb";
  seq::write_swdb(swdb_path, db, seq::AlphabetKind::kProtein,
                  seq::kSwdbVersion2);
  const seq::MappedSwdb mapped(swdb_path);
  const align::DbView views = mapped.residue_views();
  const align::ScoringScheme scheme;

  const auto measure = [&](const auto& search_fn) {
    std::vector<double> rates;
    for (std::size_t r = 0; r < reps; ++r) {
      WallTimer timer;
      const align::SearchResult result = search_fn();
      const double seconds = timer.seconds();
      rates.push_back(seconds > 0 ? static_cast<double>(result.cells) /
                                        seconds / 1e9
                                  : 0.0);
    }
    return spread_of(rates);  // GCUPS: max is the best
  };

  const std::vector<align::KernelKind> kernels = {
      align::KernelKind::kStriped8, align::KernelKind::kStriped,
      align::KernelKind::kInterSeq};

  TextTable table;
  table.set_header({"kernel", "backend", "threads", "chunks", "GCUPS",
                    "speedup", "scores==ref", "recall", "rescans/q",
                    "uncertain/q"});
  // Appends `row` with its scores==ref, recall and filter-funnel cells. A
  // row whose scores differ from the reference reads NO and fails the run,
  // named by its first three cells.
  std::vector<std::string> mismatches;
  const auto add_checked_row = [&](std::vector<std::string> row,
                                   bool identical, std::string recall,
                                   std::string rescans = "-",
                                   std::string uncertain = "-") {
    if (!identical) mismatches.push_back(row[0] + " " + row[1] + " " + row[2]);
    row.push_back(identical ? "yes" : "NO");
    row.push_back(std::move(recall));
    row.push_back(std::move(rescans));
    row.push_back(std::move(uncertain));
    table.add_row(std::move(row));
  };

  std::string json = "{\n";
  json += "  \"bench\": \"parallel_search\",\n";
  json += "  \"host_threads\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"records\": " + std::to_string(records) + ",\n";
  json += "  \"len\": " + std::to_string(len) + ",\n";
  json += "  \"db_zipf_s\": " + TextTable::fmt(db_zipf_s, 2) + ",\n";
  json += "  \"query_len\": " + std::to_string(query_len) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"db_format\": \"swdb v2 (pre-encoded, mmap zero-copy)\",\n";
  json += "  \"backends\": {\n";

  // Reference scores: the narrowest requested backend, serial. Every other
  // (backend, kernel, threads) cell must reproduce them bit for bit.
  std::vector<std::vector<int>> reference(kernels.size());
  for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
    reference[ki] = align::search_database(query_view, views, scheme,
                                           kernels[ki], backends.front())
                        .scores;
  }

  for (std::size_t bi = 0; bi < backends.size(); ++bi) {
    const align::Backend backend = backends[bi];
    const char* bname = align::backend_name(backend);
    json += std::string("    \"") + bname + "\": {\n";
    json += "      \"lanes8\": " +
            std::to_string(align::backend_lanes8(backend)) + ",\n";
    json += "      \"lanes16\": " +
            std::to_string(align::backend_lanes16(backend)) + ",\n";
    json += "      \"kernels\": {\n";

    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const align::KernelKind kernel = kernels[ki];
      const align::SearchResult serial = align::search_database(
          query_view, views, scheme, kernel, backend);
      const bool serial_identical = serial.scores == reference[ki];
      const Spread serial_gcups = measure([&] {
        return align::search_database(query_view, views, scheme, kernel,
                                      backend);
      });
      add_checked_row({align::kernel_name(kernel), bname, "serial", "1",
                       TextTable::fmt(serial_gcups.max, 3), "1.00"},
                      serial_identical, "-");
      json += std::string("        \"") + align::kernel_name(kernel) +
              "\": {\n";
      json += "          \"serial_gcups\": " +
              TextTable::fmt(serial_gcups.max, 4) + ",\n";
      json += "          \"serial_gcups_median\": " +
              TextTable::fmt(serial_gcups.median, 4) + ",\n";
      json += "          \"serial_gcups_min\": " +
              TextTable::fmt(serial_gcups.min, 4) + ",\n";
      json += std::string("          \"serial_scores_identical\": ") +
              (serial_identical ? "true" : "false") + ",\n";
      json += std::string("          \"roofline\": \"") +
              roofline_note(kernel) + "\",\n";
      json += "          \"parallel\": [\n";

      for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
        const std::size_t threads = thread_counts[ti];
        align::ParallelSearchOptions options;
        options.threads = threads;
        // Engines share the mapping and its precomputed lane-batch index.
        const align::ParallelSearchEngine engine(mapped, options);
        const auto parallel_search = [&] {
          const align::SearchProfiles profiles(query_view, scheme, kernel,
                                               backend);
          return engine.search(profiles);
        };
        const bool identical = parallel_search().scores == reference[ki];
        const Spread parallel_gcups = measure(parallel_search);
        const double speedup = serial_gcups.max > 0
                                   ? parallel_gcups.max / serial_gcups.max
                                   : 0.0;
        add_checked_row({align::kernel_name(kernel), bname,
                         std::to_string(threads),
                         std::to_string(engine.num_chunks()),
                         TextTable::fmt(parallel_gcups.max, 3),
                         TextTable::fmt(speedup, 2)},
                        identical, "-");
        json += "            {\"threads\": " + std::to_string(threads) +
                ", \"chunks\": " + std::to_string(engine.num_chunks()) +
                ", \"gcups\": " + TextTable::fmt(parallel_gcups.max, 4) +
                ", \"gcups_median\": " +
                TextTable::fmt(parallel_gcups.median, 4) +
                ", \"gcups_min\": " +
                TextTable::fmt(parallel_gcups.min, 4) +
                ", \"speedup\": " + TextTable::fmt(speedup, 3) +
                ", \"scores_identical\": " + (identical ? "true" : "false") +
                "}";
        json += ti + 1 < thread_counts.size() ? ",\n" : "\n";
      }
      json += "          ]\n";
      json += ki + 1 < kernels.size() ? "        },\n" : "        }\n";
    }
    json += "      },\n";

    // The sharded layer, per exact kernel: one group pass of two queries
    // through `shards` shards × t threads each, against the chunked
    // engine's pass at the same shards·t threads. Both must score like the
    // serial scan.
    if (shards > 0) {
      // Median, min and max wall time of the group pass over `reps` passes,
      // after one untimed pass that also checks the scores.
      const auto group_pass =
          [&](const align::ParallelSearchEngine& engine,
              std::span<const align::SearchProfiles* const> group,
              const align::SearchResult (&expected)[2], bool& identical) {
            const auto results = engine.search_ranked_many(group, top_k);
            identical = results[0].result.scores == expected[0].scores &&
                        results[1].result.scores == expected[1].scores;
            std::vector<double> seconds;
            for (std::size_t r = 0; r < reps; ++r) {
              WallTimer timer;
              (void)engine.search_ranked_many(group, top_k);
              seconds.push_back(timer.seconds());
            }
            return spread_of(seconds);
          };
      const auto ms = [](double seconds) {
        return TextTable::fmt(seconds * 1e3, 3);
      };
      json += "      \"sharded\": {\"group\": 2, \"shards\": " +
              std::to_string(shards) + ", \"rows\": [\n";
      for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const align::KernelKind kernel = kernels[ki];
        const char* kname = align::kernel_name(kernel);
        const align::SearchProfiles first(query_view, scheme, kernel, backend);
        const align::SearchProfiles second(second_view, scheme, kernel,
                                           backend);
        const align::SearchProfiles* group[] = {&first, &second};
        const align::SearchResult expected[] = {
            align::search_database(first, views),
            align::search_database(second, views)};
        const double cells =
            static_cast<double>(expected[0].cells + expected[1].cells);
        for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
          const std::size_t per_shard = thread_counts[ti];
          align::ParallelSearchOptions chunked_options;
          chunked_options.threads = shards * per_shard;
          const align::ParallelSearchEngine chunked(mapped, chunked_options);
          align::ShardedSearchOptions sharded_options;
          sharded_options.num_shards = shards;
          sharded_options.threads_per_shard = per_shard;
          const align::ShardedSearchEngine sharded(views, sharded_options);
          bool chunked_identical = false;
          bool sharded_identical = false;
          const Spread chunked_s =
              group_pass(chunked, group, expected, chunked_identical);
          const Spread sharded_s =
              group_pass(sharded, group, expected, sharded_identical);
          const bool identical = chunked_identical && sharded_identical;
          const double chunked_gcups = cells / chunked_s.median / 1e9;
          const double sharded_gcups = cells / sharded_s.median / 1e9;
          const std::string topology =
              std::to_string(shards) + "x" + std::to_string(per_shard);
          add_checked_row({std::string(kname) + " group2 chunked", bname,
                           std::to_string(chunked_options.threads),
                           std::to_string(chunked.num_chunks()),
                           TextTable::fmt(chunked_gcups, 3), "1.00"},
                          chunked_identical, "-");
          add_checked_row({std::string(kname) + " group2 sharded", bname,
                           topology, std::to_string(sharded.num_chunks()),
                           TextTable::fmt(sharded_gcups, 3),
                           TextTable::fmt(chunked_s.median / sharded_s.median,
                                          2)},
                          sharded_identical, "-");
          json += std::string("        {\"kernel\": \"") + kname +
                  "\", \"threads_per_shard\": " + std::to_string(per_shard) +
                  ", \"threads\": " +
                  std::to_string(chunked_options.threads) +
                  ", \"imbalance\": " +
                  TextTable::fmt(sharded.plan().imbalance(), 4) +
                  ", \"chunked_ms\": " + ms(chunked_s.median) +
                  ", \"chunked_ms_min\": " + ms(chunked_s.min) +
                  ", \"chunked_ms_max\": " + ms(chunked_s.max) +
                  ", \"sharded_ms\": " + ms(sharded_s.median) +
                  ", \"sharded_ms_min\": " + ms(sharded_s.min) +
                  ", \"sharded_ms_max\": " + ms(sharded_s.max) +
                  ", \"chunked_gcups\": " + TextTable::fmt(chunked_gcups, 4) +
                  ", \"sharded_gcups\": " + TextTable::fmt(sharded_gcups, 4) +
                  ", \"overhead_frac\": " +
                  TextTable::fmt(sharded_s.median / chunked_s.median - 1.0, 4) +
                  ", \"scores_identical\": " +
                  (identical ? "true" : "false") + "}";
          json += ki + 1 < kernels.size() || ti + 1 < thread_counts.size()
                      ? ",\n"
                      : "\n";
        }
      }
      json += "      ]},\n";
    }

    // Two-stage filtered search at this backend: banded screen + interseq
    // candidate rescan, scored as *effective* GCUPS — exact-scan cells over
    // filtered wall time, so the speedup column reads "how much faster the
    // same question is answered", with recall@k against the exact top-k.
    const align::SearchResult exact = align::search_database(
        query_view, views, scheme, align::KernelKind::kInterSeq, backend);
    const std::vector<align::SearchHit> exact_top = exact.top(top_k);
    const double exact_cells = static_cast<double>(exact.cells);
    // One query through the search pipeline on `engine`.
    const auto filtered_search = [&](const align::SearchEngine& engine,
                                     const align::FilterConfig& filter) {
      const align::SearchProfiles profiles(
          query_view, scheme, align::KernelKind::kInterSeq, backend);
      const align::SearchProfiles* group[] = {&profiles};
      align::SearchRequest request;
      request.k = top_k;
      request.filter = filter;
      return std::move(align::search(engine, group, request).front());
    };
    const align::SerialSearchEngine serial_engine(views);
    const align::SearchOutcome off_result =
        filtered_search(serial_engine, align::FilterConfig{});
    const bool off_identical = off_result.ranked.result.scores == exact.scores;
    align::FilterConfig heuristic;
    heuristic.mode = align::FilterMode::kHeuristic;
    heuristic.band = filter_band;
    const auto recall_of = [&](const std::vector<align::SearchHit>& hits) {
      std::size_t found = 0;
      for (const align::SearchHit& want : exact_top) {
        for (const align::SearchHit& hit : hits) {
          if (hit.db_index == want.db_index || hit.score == want.score) {
            ++found;
            break;
          }
        }
      }
      return exact_top.empty()
                 ? 1.0
                 : static_cast<double>(found) /
                       static_cast<double>(exact_top.size());
    };
    // Best effective GCUPS over --reps, plus the (deterministic) recall
    // and filter counters of one query's outcome.
    struct Filtered {
      double best = 0.0;
      double recall = 1.0;
      align::FilterStats stats;
    };
    const auto measure_filtered = [&](const auto& filtered_fn) {
      Filtered out;
      for (std::size_t r = 0; r < reps; ++r) {
        WallTimer timer;
        const align::SearchOutcome result = filtered_fn();
        const double seconds = timer.seconds();
        const double gcups = seconds > 0 ? exact_cells / seconds / 1e9 : 0.0;
        out.best = std::max(out.best, gcups);
        out.recall = recall_of(result.ranked.hits);
        out.stats = result.filter;
      }
      return out;
    };
    const auto count = [](std::uint64_t n) { return std::to_string(n); };
    const double serial_exact_gcups = [&] {
      return measure([&] {
               return align::search_database(query_view, views, scheme,
                                             align::KernelKind::kInterSeq,
                                             backend);
             }).max;
    }();
    const Filtered serial_filtered = measure_filtered(
        [&] { return filtered_search(serial_engine, heuristic); });
    const double filtered_serial = serial_filtered.best;
    add_checked_row({"filtered", bname, "serial", "1",
                     TextTable::fmt(filtered_serial, 3),
                     TextTable::fmt(serial_exact_gcups > 0
                                        ? filtered_serial /
                                              serial_exact_gcups
                                        : 0.0, 2)},
                    off_identical, TextTable::fmt(serial_filtered.recall, 2),
                    count(serial_filtered.stats.rescans),
                    count(serial_filtered.stats.band_uncertain));
    json += "      \"filtered\": {\n";
    json += "        \"band\": " + std::to_string(filter_band) +
            ", \"keep_factor\": 4, \"top_k\": " + std::to_string(top_k) +
            ", \"plant\": " + std::to_string(plant) + ",\n";
    json += std::string("        \"off_scores_identical\": ") +
            (off_identical ? "true" : "false") + ",\n";
    json += "        \"roofline\": \"banded screen: len/(2*band+1)x fewer "
            "cells than the exact scan at a measured per-cell masking "
            "penalty (BM_BandedScreenBackend vs BM_InterSeqBackend); "
            "effective_gcups divides exact-scan cells by filtered wall "
            "time\",\n";
    json += "        \"serial\": {\"effective_gcups\": " +
            TextTable::fmt(filtered_serial, 4) +
            ", \"speedup_vs_exact\": " +
            TextTable::fmt(serial_exact_gcups > 0
                               ? filtered_serial / serial_exact_gcups
                               : 0.0, 3) +
            ", \"recall\": " + TextTable::fmt(serial_filtered.recall, 4) +
            ", \"rescans_per_query\": " +
            count(serial_filtered.stats.rescans) +
            ", \"band_uncertain_per_query\": " +
            count(serial_filtered.stats.band_uncertain) + "},\n";
    json += "        \"parallel\": [\n";
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
      const std::size_t threads = thread_counts[ti];
      align::ParallelSearchOptions options;
      options.threads = threads;
      const align::ParallelSearchEngine engine(mapped, options);
      const Filtered filtered = measure_filtered(
          [&] { return filtered_search(engine, heuristic); });
      const double best = filtered.best;
      table.add_row({"filtered", bname, std::to_string(threads),
                     std::to_string(engine.num_chunks()),
                     TextTable::fmt(best, 3),
                     TextTable::fmt(serial_exact_gcups > 0
                                        ? best / serial_exact_gcups
                                        : 0.0, 2),
                     "-", TextTable::fmt(filtered.recall, 2),
                     count(filtered.stats.rescans),
                     count(filtered.stats.band_uncertain)});
      json += "          {\"threads\": " + std::to_string(threads) +
              ", \"chunks\": " + std::to_string(engine.num_chunks()) +
              ", \"effective_gcups\": " + TextTable::fmt(best, 4) +
              ", \"speedup_vs_exact\": " +
              TextTable::fmt(serial_exact_gcups > 0
                                 ? best / serial_exact_gcups
                                 : 0.0, 3) +
              ", \"recall\": " + TextTable::fmt(filtered.recall, 4) +
              ", \"rescans_per_query\": " + count(filtered.stats.rescans) +
              ", \"band_uncertain_per_query\": " +
              count(filtered.stats.band_uncertain) + "}";
      json += ti + 1 < thread_counts.size() ? ",\n" : "\n";
    }
    json += "        ]\n";
    json += "      }\n";
    json += bi + 1 < backends.size() ? "    },\n" : "    }\n";
  }
  json += "  }\n}\n";

  std::printf("%s", table.render().c_str());

  std::FILE* out = std::fopen(cli.option("out").c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cli.option("out").c_str());
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::remove(swdb_path.c_str());
  std::printf("\n[json written to %s]\n", cli.option("out").c_str());
  if (!mismatches.empty()) {
    std::string rows;
    for (const std::string& row : mismatches) rows += "\n  " + row;
    std::fprintf(stderr,
                 "FAIL: %zu configuration(s) scored differently from the "
                 "serial reference:%s\n",
                 mismatches.size(), rows.c_str());
    return 1;
  }
  return 0;
}
