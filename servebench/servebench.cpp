// End-to-end serve benchmark: one workload, one closed-loop run.
//
// Writes the workload's database as SWDB v2, serves it zero-copy through
// serve::QueryService, sets the service up kSetups times (setup_s is the
// median of mmap open + ctor + first request served), runs the untimed
// warm-up, then drives kClients closed-loop clients for --seconds. Latency
// is measured on the client, from submit to the future becoming ready.
// After the timed phase every sampled response is checked against serial
// align::search_database. The last stdout line is the JSON result; the exit
// code is nonzero when any output was wrong.
//
//   ./servebench --workload miss-exact --seed 1 --seconds 10 [--work-dir D]
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "harness.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace swdual;
  using namespace swdual::servebench;

  CliParser cli("servebench", "end-to-end closed-loop serve benchmark");
  cli.add_option("workload",
                 "miss-exact | miss-filtered-annotated | hot-mixed | "
                 "miss-exact-sharded",
                 "miss-exact");
  cli.add_option("seed", "input seed", "1");
  cli.add_option("seconds", "length of the measured phase", "10");
  cli.add_option("work-dir", "directory for the generated database", ".");
  cli.add_flag("tiny", "shrink the workload (smoke test)");
  try {
    cli.parse(argc, argv);
    if (cli.help_requested()) {
      std::printf("%s", cli.usage().c_str());
      return 0;
    }
    const Workload workload = find_workload(cli.option("workload"),
                                            cli.flag("tiny"));
    const std::uint64_t seed = cli.option_uint("seed");
    const double seconds = cli.option_positive_double("seconds");
    Inputs inputs(workload, seed);
    const std::string path = cli.option("work-dir") + "/" + workload.name +
                             "-" + std::to_string(seed) + ".swdb";
    inputs.write_database(path);

    Setup setup = set_up(path, inputs);
    serve::QueryService& service = *setup.service;
    const std::size_t records = setup.db->size();
    const PhaseResult warmup =
        run_phase(service, inputs, records, 0.0, workload.warmup, false);
    const PhaseResult phase =
        run_phase(service, inputs, records, seconds, 0, false);
    const double rss_mb = peak_rss_mb();
    service.shutdown();
    const OracleResult oracle =
        check_samples(phase.samples, inputs, setup.db->residue_views());

    const double wall = phase.wall_seconds;
    const auto searches =
        static_cast<double>(phase.after.searches - phase.before.searches);
    const double cells_per_search =
        static_cast<double>(workload.query_len) *
        static_cast<double>(setup.db->total_residues());
    const std::vector<Metric> metrics = {
        {"throughput_rps",
         static_cast<double>(phase.latency_ms.size()) / wall, "req/s"},
        {"search_gcups", searches * cells_per_search / wall / 1e9, "GCUPS"},
        {"latency_p50_ms", percentile(phase.latency_ms, 0.50), "ms"},
        {"latency_p95_ms", percentile(phase.latency_ms, 0.95), "ms"},
        {"recall_at_k", oracle.recall_at_k, "ratio"},
        {"setup_s", setup.setup_s, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };

    const std::uint64_t attempted =
        kSetups + warmup.attempted + phase.attempted;
    const std::uint64_t failed =
        setup.failed + warmup.failed + phase.failed + oracle.failed;
    std::fprintf(stderr,
                 "%s seed %llu: %llu requests in %.2f s, %zu sampled, "
                 "%llu failed, cache hits %llu\n",
                 workload.name.c_str(), static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(phase.attempted), wall,
                 phase.samples.size(), static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(phase.after.results.hits -
                                                 phase.before.results.hits));
    report_errors(warmup.errors);
    report_errors(phase.errors);
    report_errors(oracle.errors);
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
