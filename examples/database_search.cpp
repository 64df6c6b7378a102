// database_search: a small but complete protein-search tool in the spirit of
// the paper's SWDUAL binary.
//
// Searches query sequences against a database on a hybrid (CPU + virtual
// GPU) platform with a selectable allocation policy, and prints ranked hits
// with timing. Inputs may be FASTA or SWDB; with --generate a synthetic
// Table III database is created on the fly.
//
// Examples:
//   ./database_search --generate ensembl_dog --scale 200 --queries 5
//   ./database_search --db db.fa --query-file queries.fa --cpus 2 --gpus 2
//   ./database_search --generate uniprot --scale 500 --policy self-scheduling
#include <fstream>
#include <iostream>

#include "master/master.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/dbgen.h"
#include "seq/fasta.h"
#include "seq/queryset.h"
#include "seq/swdb.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/strings.h"

namespace {

using namespace swdual;

master::AllocationPolicy parse_policy(const std::string& name) {
  if (name == "swdual") return master::AllocationPolicy::kSwdual;
  if (name == "swdual-refined") return master::AllocationPolicy::kSwdualRefined;
  if (name == "self-scheduling") {
    return master::AllocationPolicy::kSelfScheduling;
  }
  if (name == "equal-power") return master::AllocationPolicy::kEqualPower;
  if (name == "proportional") return master::AllocationPolicy::kProportional;
  if (name == "lpt") return master::AllocationPolicy::kLpt;
  throw InvalidArgument("unknown policy: " + name);
}

std::vector<seq::Sequence> load_sequences(const std::string& path) {
  if (ends_with(path, ".swdb")) {
    const seq::MappedSwdb db(path);
    std::vector<seq::Sequence> records;
    records.reserve(db.size());
    for (std::size_t i = 0; i < db.size(); ++i) records.push_back(db.record(i));
    return records;
  }
  return seq::read_fasta_file(path, seq::AlphabetKind::kProtein);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("database_search",
                "hybrid Smith-Waterman database search (SWDUAL)");
  cli.add_option("db", "database file (.fa/.fasta or .swdb)", "");
  cli.add_option("query-file", "query FASTA file ('' = sample from db)", "");
  cli.add_option("generate",
                 "generate a synthetic Table III database instead of --db "
                 "(uniprot, ensembl_dog, ensembl_rat, refseq_human, "
                 "refseq_mouse)",
                 "");
  cli.add_option("scale", "database scale denominator for --generate", "200");
  cli.add_option("queries", "number of sampled queries", "5");
  cli.add_option("cpus", "CPU workers (m)", "1");
  cli.add_option("gpus", "virtual GPU workers (k)", "1");
  cli.add_option("policy",
                 "swdual | swdual-refined | self-scheduling | equal-power | "
                 "proportional | lpt",
                 "swdual");
  cli.add_option("backend",
                 "SIMD backend for the CPU kernels: auto | scalar | sse2 | "
                 "avx2 | avx512 (auto = widest the host supports)",
                 "auto");
  cli.add_option("top", "hits reported per query", "5");
  cli.add_option("filter-mode",
                 "two-stage search filter: off (exact full scan) | heuristic "
                 "(banded screen, exact rescan of candidates)",
                 "off");
  cli.add_option("band",
                 "half-width of the screening band (--filter-mode heuristic)",
                 "32");
  cli.add_option("keep-factor",
                 "screened candidates kept per requested hit "
                 "(--filter-mode heuristic)",
                 "4.0");
  cli.add_option("annotate",
                 "per-hit annotation: off | stats (e-value + bit score) | "
                 "stats+cigar (adds a traceback CIGAR)",
                 "off");
  cli.add_option("evalue",
                 "drop hits with e-value above this cutoff "
                 "(--annotate stats or stats+cigar; inf = keep all)",
                 "10");
  cli.add_flag("gantt", "print the planned Gantt chart");
  cli.add_option("trace",
                 "write a Chrome trace-event JSON timeline (open with "
                 "chrome://tracing or ui.perfetto.dev) to this file",
                 "");
  cli.add_flag("metrics", "print the runtime metrics registry after the run");

  try {
    cli.parse(argc, argv);
    if (cli.help_requested()) {
      std::cout << cli.usage();
      return 0;
    }

    std::vector<seq::Sequence> db;
    if (!cli.option("generate").empty()) {
      seq::DatabaseProfile profile = seq::table3_profile(
          cli.option("generate"),
          cli.option_uint("scale"));
      std::cerr << "generating " << profile.num_sequences
                << " synthetic sequences for " << profile.name << "...\n";
      db = seq::generate_database(profile);
    } else if (!cli.option("db").empty()) {
      db = load_sequences(cli.option("db"));
    } else {
      std::cerr << "need --db or --generate (see --help)\n";
      return 2;
    }

    std::vector<seq::Sequence> queries;
    if (!cli.option("query-file").empty()) {
      queries = seq::read_fasta_file(cli.option("query-file"),
                                     seq::AlphabetKind::kProtein);
    } else {
      queries = seq::sample_query_set(
          db, cli.option_uint("queries"), 100, 5000,
          42);
    }

    master::MasterConfig config;
    config.cpu_workers = cli.option_uint("cpus");
    config.gpu_workers = cli.option_uint("gpus");
    config.policy = parse_policy(cli.option("policy"));
    config.top_hits = cli.option_uint("top");
    if (!align::parse_backend(cli.option("backend"), config.cpu_backend)) {
      throw InvalidArgument("unknown backend: " + cli.option("backend") +
                            " (want auto|scalar|sse2|avx2|avx512)");
    }
    if (!align::parse_filter_mode(cli.option("filter-mode"),
                                  config.filter.mode)) {
      throw InvalidArgument("unknown filter mode: " +
                            cli.option("filter-mode") +
                            " (want off|heuristic)");
    }
    config.filter.band = cli.option_uint("band");
    config.filter.keep_factor = cli.option_double("keep-factor");
    config.filter.validate();
    if (!align::parse_annotate_mode(cli.option("annotate"),
                                    config.annotate.mode)) {
      throw InvalidArgument("unknown annotate mode: " + cli.option("annotate") +
                            " (want off|stats|stats+cigar)");
    }
    config.annotate.evalue_cutoff = cli.option_positive_double("evalue");
    config.annotate.validate();
    align::StatsCache stats_cache;
    std::shared_ptr<const align::KarlinAltschulParams> stats;
    if (config.annotate.enabled()) {
      std::cerr << "calibrating Karlin-Altschul parameters...\n";
      stats = stats_cache.acquire(config.scheme, seq::Alphabet::protein(),
                                  cli.option("db").empty()
                                      ? cli.option("generate")
                                      : cli.option("db"));
      config.stats = stats.get();
    }
    // Fail fast with a clear message (resolve_backend would also throw, but
    // only once the first CPU task runs).
    if (config.cpu_backend != align::Backend::kAuto &&
        !align::backend_available(config.cpu_backend)) {
      throw InvalidArgument(
          std::string("backend not available on this host: ") +
          align::backend_name(config.cpu_backend));
    }

    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    const std::string trace_path = cli.option("trace");
    if (!trace_path.empty() || cli.flag("metrics")) {
      config.tracer = &tracer;
      config.metrics = &metrics;
    }

    std::cerr << "searching " << queries.size() << " queries against "
              << db.size() << " records with policy "
              << master::policy_name(config.policy) << " on "
              << config.cpu_workers << " CPU ("
              << align::backend_name(align::resolve_backend(
                     config.cpu_backend, config.cpu_kernel))
              << " backend) + " << config.gpu_workers << " GPU workers...\n";
    const master::SearchReport report =
        master::run_search(queries, db, config);

    for (const auto& result : report.results) {
      const auto& query = queries[result.query_index];
      std::cout << "query " << query.id << " (" << query.length() << " aa)\n";
      for (const auto& hit : result.hits) {
        std::cout << "  score " << hit.score << "  " << db[hit.db_index].id;
        if (hit.annotation) {
          std::cout << "  E=" << hit.annotation->evalue
                    << "  bits=" << hit.annotation->bits;
          if (!hit.annotation->cigar.empty()) {
            std::cout << "  cigar=" << hit.annotation->cigar;
          }
        }
        std::cout << '\n';
      }
    }
    std::cout << "\ncells:            " << report.total_cells
              << "\nwall time:        " << report.wall_seconds << " s"
              << "\nvirtual makespan: " << report.virtual_makespan
              << " s (paper-hardware model)"
              << "\nvirtual GCUPS:    " << report.virtual_gcups
              << "\nvirtual idle:     " << report.virtual_idle_fraction * 100
              << " %\n";
    if (config.filter.enabled()) {
      std::cout << "filter:           " << report.filter.candidates
                << " candidates, " << report.filter.rescans
                << " exact rescans, " << report.filter.band_uncertain
                << " band-uncertain (db records: "
                << db.size() * report.results.size() << " screened)\n";
    }
    if (cli.flag("gantt") && !report.planned.empty()) {
      std::cout << '\n'
                << sched::render_gantt(
                       report.planned,
                       {config.cpu_workers, config.gpu_workers});
    }
    if (!trace_path.empty()) {
      obs::ChromeTraceOptions trace_options;
      trace_options.track_names[obs::kMasterTrack] = "master";
      for (std::size_t g = 0; g < config.gpu_workers; ++g) {
        trace_options.track_names[obs::worker_track(g)] =
            "gpu" + std::to_string(g);
      }
      for (std::size_t c = 0; c < config.cpu_workers; ++c) {
        trace_options.track_names[obs::worker_track(config.gpu_workers + c)] =
            "cpu" + std::to_string(c);
      }
      std::ofstream out(trace_path);
      if (!out) throw IoError("cannot write trace file: " + trace_path);
      obs::write_chrome_trace(out, tracer.flush(), trace_options);
      std::cerr << "trace written to " << trace_path << '\n';
    }
    if (cli.flag("metrics")) {
      std::cout << '\n' << metrics.dump();
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
