#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <numeric>
#include <thread>
#include <utility>

#include "align/annotate.h"
#include "seq/dbgen.h"
#include "util/error.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace swdual::servebench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seed of the independent random stream `stream` derived from `seed`.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return splitmix64(state);
}

// Stream ids: fresh queries use their query id; the others sit far above.
constexpr std::uint64_t kSetupStream = 1ULL << 62;
constexpr std::uint64_t kClientStream = (1ULL << 62) + 1;

constexpr std::size_t kMaxErrors = 8;

void note_error(std::vector<std::string>& errors, std::string reason) {
  if (errors.size() < kMaxErrors) errors.push_back(std::move(reason));
}

}  // namespace

std::string check_response(const serve::QueryResponse& response,
                           const Workload& workload, std::size_t db_records,
                           const std::vector<std::uint32_t>& planted) {
  if (response.partial) return "partial response: " + response.partial_reason;
  const std::size_t want =
      std::min(workload.config.master.top_hits, db_records);
  if (response.hits.size() != want) {
    return "expected " + std::to_string(want) + " hits, got " +
           std::to_string(response.hits.size());
  }
  for (std::size_t h = 0; h < response.hits.size(); ++h) {
    const align::SearchHit& hit = response.hits[h];
    if (hit.db_index >= db_records) return "hit index out of range";
    if (h > 0 && !align::hit_better(response.hits[h - 1], hit)) {
      return "hits not in rank order";
    }
  }
  const align::AnnotateConfig& annotate = workload.config.master.annotate;
  if (annotate.enabled()) {
    for (const align::SearchHit& hit : response.hits) {
      if (!hit.annotation) return "hit without annotation";
      if (!(hit.annotation->evalue >= 0.0)) return "invalid e-value";
      if (annotate.mode == align::AnnotateMode::kStatsCigar && hit.score > 0 &&
          hit.annotation->cigar.empty()) {
        return "hit without CIGAR";
      }
    }
  }
  for (const std::uint32_t homolog : planted) {
    const bool found = std::any_of(
        response.hits.begin(), response.hits.end(),
        [homolog](const align::SearchHit& hit) {
          return hit.db_index == homolog;
        });
    if (!found) return "planted homolog " + std::to_string(homolog) + " lost";
  }
  return {};
}

Workload find_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  serve::ServiceConfig& config = w.config;
  config.db_id = name;
  config.max_batch = 8;
  config.master.cpu_workers = 2;
  config.master.gpu_workers = 1;
  config.master.policy = master::AllocationPolicy::kSwdual;
  if (name == "miss-exact") {
    // The paper's system on cache misses: swdual over 2 CPU + 1 virtual GPU.
    w.records = 4000;
    w.len = 300;
    w.query_len = 300;
    w.warmup = 8;
  } else if (name == "miss-filtered-annotated") {
    // Banded screen, candidate rescan, post-merge traceback and gather.
    w.records = 1200;
    w.len = 600;
    w.db_zipf_s = 1.1;
    w.plant = 10;
    w.query_len = 300;
    w.pool = 1024;
    w.warmup = 8;
    config.shards = 2;
    config.threads_per_shard = 2;
    config.master.filter.mode = align::FilterMode::kHeuristic;
    config.master.filter.band = 16;
    config.master.filter.keep_factor = 4.0;
    config.master.annotate.mode = align::AnnotateMode::kStatsCigar;
  } else if (name == "hot-mixed") {
    // Per-request overhead: ~70% hits with constant inserts and evictions.
    w.records = 600;
    w.len = 150;
    w.query_len = 120;
    w.pool = 1024;
    w.zipf_s = 1.1;
    w.warmup = 1000;
    config.result_cache_capacity = 128;
  } else if (name == "miss-exact-sharded") {
    // The exact multi-query group pass over length-skewed shards.
    w.records = 4000;
    w.len = 650;
    w.db_zipf_s = 0.5;
    w.query_len = 1000;
    w.warmup = 8;
    config.shards = 4;
    config.threads_per_shard = 1;
  } else {
    throw InvalidArgument("unknown workload: " + name +
                          " (want miss-exact|miss-filtered-annotated|"
                          "hot-mixed|miss-exact-sharded)");
  }
  if (tiny) {
    w.records = std::max<std::size_t>(40, w.records / 20);
    w.pool /= 16;
    w.warmup = std::min<std::size_t>(w.warmup, 50);
  }
  return w;
}

Inputs::Inputs(const Workload& workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  Rng rng(seed);
  const Workload& w = workload_;
  std::vector<std::size_t> lengths(w.records);
  if (w.db_zipf_s > 0.0) {
    // Lengths are a fixed multiset, so the total work does not depend on
    // the seed; only the giants' positions and the residues do.
    std::vector<std::size_t> rank(w.records);
    std::iota(rank.begin(), rank.end(), std::size_t{0});
    for (std::size_t i = rank.size(); i > 1; --i) {
      std::swap(rank[i - 1], rank[rng.below(i)]);
    }
    for (std::size_t i = 0; i < w.records; ++i) {
      lengths[i] = std::max<std::size_t>(
          24, static_cast<std::size_t>(
                  3.0 * static_cast<double>(w.len) /
                  std::pow(static_cast<double>(rank[i] + 1), w.db_zipf_s)));
    }
  } else {
    for (std::size_t& length : lengths) length = w.len / 2 + rng.below(w.len);
  }
  db_.reserve(w.records + w.pool * w.plant);
  for (std::size_t i = 0; i < w.records; ++i) {
    db_.push_back(seq::random_protein(rng, "d" + std::to_string(i), lengths[i]));
  }
  pool_.reserve(w.pool);
  for (std::size_t q = 0; q < w.pool; ++q) {
    pool_.push_back(
        seq::random_protein(rng, "q" + std::to_string(q), w.query_len));
  }
  // Homologs: point substitutions every ~20 residues keep each copy far
  // above chance, so it must rank in its query's top-k on every path.
  for (std::size_t q = 0; q < pool_.size() && w.plant > 0; ++q) {
    for (std::size_t p = 0; p < w.plant; ++p) {
      std::vector<std::uint8_t> homolog = pool_[q].residues;
      for (std::size_t i = 0; i < homolog.size(); i += 17 + p % 5) {
        homolog[i] = static_cast<std::uint8_t>(rng.below(20));
      }
      db_.emplace_back("h" + std::to_string(q) + "_" + std::to_string(p), "",
                       seq::AlphabetKind::kProtein, std::move(homolog));
    }
  }
  if (w.pool > 0 && w.zipf_s > 0.0) {
    cdf_.resize(w.pool);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < w.pool; ++i) {
      cumulative += 1.0 / std::pow(static_cast<double>(i + 1), w.zipf_s);
      cdf_[i] = cumulative;
    }
  }
}

seq::Sequence Inputs::query(std::uint64_t id) const {
  if (!pool_.empty()) return pool_.at(id);
  Rng rng(stream_seed(seed_, id));
  return seq::random_protein(rng, "f" + std::to_string(id),
                             workload_.query_len);
}

std::vector<std::uint32_t> Inputs::planted(std::uint64_t id) const {
  std::vector<std::uint32_t> indices;
  if (pool_.empty()) return indices;
  for (std::size_t p = 0; p < workload_.plant; ++p) {
    indices.push_back(static_cast<std::uint32_t>(
        workload_.records + id * workload_.plant + p));
  }
  return indices;
}

seq::Sequence Inputs::setup_query() const {
  Rng rng(stream_seed(seed_, kSetupStream));
  return seq::random_protein(rng, "setup", workload_.query_len);
}

std::optional<std::uint64_t> Inputs::next_id(Rng& client_rng) {
  if (!cdf_.empty()) {
    const double u = client_rng.uniform() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }
  const std::uint64_t id = next_.fetch_add(1);
  if (!pool_.empty() && id >= pool_.size()) return std::nullopt;
  return id;
}

Rng Inputs::client_rng(std::size_t c) const {
  return Rng(stream_seed(seed_, kClientStream + c));
}

void Inputs::write_database(const std::string& path) {
  seq::write_swdb(path, db_, seq::AlphabetKind::kProtein);
  db_.clear();
  db_.shrink_to_fit();
}

PhaseResult run_phase(serve::QueryService& service, Inputs& inputs,
                      std::size_t db_records, double seconds,
                      std::size_t requests, bool trace_clients) {
  const Workload& workload = inputs.workload();
  PhaseResult phase;
  phase.before = service.stats();
  util::Mutex merge_mutex;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  const auto client = [&](std::size_t c) {
    Rng rng = inputs.client_rng(c);
    PhaseResult local;
    const std::size_t quota =
        requests / kClients + (c < requests % kClients ? 1 : 0);
    const auto fail = [&local](std::string reason) {
      ++local.failed;
      note_error(local.errors, std::move(reason));
    };
    for (std::size_t sent = 0;; ++sent) {
      if (requests > 0 ? sent >= quota : Clock::now() >= deadline) break;
      const std::optional<std::uint64_t> id = inputs.next_id(rng);
      if (!id) break;  // in-order pool used up: the phase ends early
      const seq::Sequence query = inputs.query(*id);
      ++local.attempted;
      const Clock::time_point sent_at = Clock::now();
      const serve::Submission ticket = service.submit(query);
      if (!ticket.accepted()) {
        fail("submit rejected: " + ticket.reason);
        continue;
      }
      serve::QueryResponse response;
      try {
        response = ticket.result.get();
      } catch (const std::exception& error) {
        fail(std::string("request threw: ") + error.what());
        continue;
      }
      const Clock::time_point ready_at = Clock::now();
      const double latency = seconds_between(sent_at, ready_at) * 1e3;
      local.latency_ms.push_back(latency);
      if (response.cache_hit) local.hit_latency_ms.push_back(latency);
      local.queue_ms.push_back(response.queue_seconds * 1e3);
      local.execute_ms.push_back(response.execute_seconds * 1e3);
      if (trace_clients) {
        local.spans.push_back({*id, c, seconds_between(start, sent_at),
                               seconds_between(start, ready_at)});
      }
      const std::string error = check_response(
          response, workload, db_records, inputs.planted(*id));
      if (!error.empty()) {
        fail("query " + std::to_string(*id) + ": " + error);
        continue;
      }
      if (*id % kSampleEvery == 0) {
        local.samples.push_back({*id, std::move(response.hits)});
      }
    }
    util::MutexLock lock(merge_mutex);
    phase.attempted += local.attempted;
    phase.failed += local.failed;
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(phase.latency_ms, local.latency_ms);
    append(phase.hit_latency_ms, local.hit_latency_ms);
    append(phase.queue_ms, local.queue_ms);
    append(phase.execute_ms, local.execute_ms);
    std::move(local.samples.begin(), local.samples.end(),
              std::back_inserter(phase.samples));
    phase.spans.insert(phase.spans.end(), local.spans.begin(),
                       local.spans.end());
    for (std::string& reason : local.errors) {
      note_error(phase.errors, std::move(reason));
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& thread : clients) thread.join();
  phase.wall_seconds = seconds_between(start, Clock::now());
  phase.after = service.stats();
  return phase;
}

OracleResult check_samples(const std::vector<Sample>& samples,
                           const Inputs& inputs, const align::DbView& db) {
  const Workload& workload = inputs.workload();
  const master::MasterConfig& config = workload.config.master;
  std::vector<std::uint64_t> ids;
  ids.reserve(samples.size());
  for (const Sample& sample : samples) ids.push_back(sample.query_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  std::vector<std::vector<align::SearchHit>> exact(ids.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < ids.size(); i = next++) {
        const seq::Sequence query = inputs.query(ids[i]);
        exact[i] = align::search_database(
                       {query.residues.data(), query.residues.size()}, db,
                       config.scheme, config.cpu_kernel)
                       .top(config.top_hits);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  OracleResult oracle;
  double recall_sum = 0.0;
  for (const Sample& sample : samples) {
    const auto at = std::lower_bound(ids.begin(), ids.end(), sample.query_id);
    const std::vector<align::SearchHit>& want =
        exact[static_cast<std::size_t>(at - ids.begin())];
    // An expected hit counts as recalled on an index or a score match:
    // under score ties the exact top-k set is not unique.
    std::size_t recalled = 0;
    for (const align::SearchHit& expected : want) {
      recalled += std::any_of(sample.hits.begin(), sample.hits.end(),
                              [&expected](const align::SearchHit& got) {
                                return got.db_index == expected.db_index ||
                                       got.score == expected.score;
                              });
    }
    recall_sum += want.empty() ? 1.0
                               : static_cast<double>(recalled) /
                                     static_cast<double>(want.size());
    if (workload.filtered()) continue;  // recall only: the screen may differ
    const bool identical =
        sample.hits.size() == want.size() &&
        std::equal(want.begin(), want.end(), sample.hits.begin(),
                   [](const align::SearchHit& a, const align::SearchHit& b) {
                     return a.db_index == b.db_index && a.score == b.score;
                   });
    if (!identical) {
      ++oracle.failed;
      note_error(oracle.errors, "query " + std::to_string(sample.query_id) +
                                    ": hits differ from serial search");
    }
  }
  if (!samples.empty()) {
    oracle.recall_at_k = recall_sum / static_cast<double>(samples.size());
  }
  return oracle;
}

Setup set_up(const std::string& path, const Inputs& inputs) {
  const seq::Sequence query = inputs.setup_query();
  std::vector<double> open_ms, start_ms, setup_s;
  Setup setup;
  for (std::size_t i = 0; i < kSetups; ++i) {
    setup.service.reset();
    setup.db.reset();
    const WallTimer timer;
    setup.db = std::make_shared<const seq::MappedSwdb>(path);
    const double opened = timer.seconds();
    setup.service = std::make_unique<serve::QueryService>(
        setup.db, inputs.workload().config);
    const double started = timer.seconds();
    try {
      const serve::Submission ticket = setup.service->submit(query);
      if (!ticket.accepted() ||
          !check_response(ticket.result.get(), inputs.workload(),
                          setup.db->size(), {})
               .empty()) {
        ++setup.failed;
      }
    } catch (const std::exception&) {
      ++setup.failed;
    }
    setup_s.push_back(timer.seconds());
    open_ms.push_back(opened * 1e3);
    start_ms.push_back((started - opened) * 1e3);
  }
  setup.open_ms = median(open_ms);
  setup.start_ms = median(start_ms);
  setup.setup_s = median(setup_s);
  return setup;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lower);
  return values[lower] + frac * (values[upper] - values[lower]);
}

double peak_rss_mb() {
  // VmHWM belongs to this address space. ru_maxrss would also count the
  // launching process, whose high-water mark Linux carries across execve.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kB
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void report_errors(const std::vector<std::string>& errors) {
  for (const std::string& error : errors) {
    std::fprintf(stderr, "FAIL: %s\n", error.c_str());
  }
}

}  // namespace swdual::servebench
