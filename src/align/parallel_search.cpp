#include "align/parallel_search.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/swdb.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::align {

namespace {

/// Chunks per pool thread: more chunks smooth load imbalance from length
/// skew at slightly higher merge cost.
constexpr std::size_t kChunksPerThread = 4;

/// Records per lane batch of the profiles' exact scan (1: no batching).
std::size_t exact_batch(const SearchProfiles& profiles) {
  return profiles.kernel() == KernelKind::kInterSeq
             ? backend_lanes16(profiles.backend())
             : 1;
}

/// Records per lane batch of the profiles' banded screen (1: no batching).
std::size_t screen_batch(const SearchProfiles& profiles) {
  return profiles.kernel() == KernelKind::kScalar
             ? 1
             : backend_lanes8(profiles.screen_backend());
}

/// Estimated cost of screening db[range] at half-width `band`, in banded
/// columns: each record counts min(n, 2·band + 1), and a lane group that is
/// not uniform (a full batch of one length) counts ten times, the paced
/// path's measured cost per cell against the uniform path's (DESIGN.md
/// "Throughput model"). Groups are counted from the range's start, as the
/// kernel forms them.
std::uint64_t screen_cost(const DbView& db, RecordRange range,
                          std::size_t batch, std::size_t band) {
  constexpr std::uint64_t kPacedCost = 10;
  std::uint64_t cost = 0;
  for (std::size_t g = range.begin; g < range.end; g += batch) {
    const std::size_t end = std::min(range.end, g + batch);
    bool uniform = end - g == batch;
    std::uint64_t columns = 0;
    for (std::size_t i = g; i < end; ++i) {
      uniform = uniform && db[i].size() == db[g].size();
      columns += std::min(db[i].size(), 2 * band + 1);
    }
    cost += uniform ? columns : kPacedCost * columns;
  }
  return cost;
}

/// The public group passes answer for every record or throw.
void require_complete(const std::vector<ShardFailure>& failures) {
  if (failures.empty()) return;
  const ShardFailure& failure = failures.front();
  throw Error("shard " + std::to_string(failure.shard) + " failed after " +
              std::to_string(failure.attempts) +
              " attempts: " + failure.reason);
}

}  // namespace

std::vector<RecordRange> balanced_ranges(
    std::span<const std::span<const std::uint8_t>> db, std::size_t parts,
    std::size_t batch, RecordCost cost) {
  const std::size_t n = db.size();
  if (n == 0) return {};
  // Cost-balanced cuts: end a range after the record whose cumulative cost
  // crosses the next multiple of total/parts. Every range gets at least one
  // record.
  parts = std::clamp<std::size_t>(parts, 1, n);
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t residues = std::max<std::uint64_t>(db[i].size(), 1);
    prefix[i + 1] = prefix[i] + (cost == RecordCost::kRecord ? 1 : residues);
  }
  std::vector<RecordRange> cuts;
  cuts.reserve(parts);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < parts; ++c) {
    const std::uint64_t target = prefix[n] * (c + 1) / parts;
    std::size_t end = begin + 1;
    while (end < n && prefix[end] < target) ++end;
    // Leave one record for each remaining range.
    end = std::min(end, n - (parts - 1 - c));
    end = std::max(end, begin + 1);
    cuts.push_back({begin, end});
    begin = end;
  }
  cuts.back().end = n;
  if (batch <= 1 || cuts.size() <= 1) return cuts;

  // Snap each interior cut to the nearest batch multiple.
  std::vector<RecordRange> out;
  out.reserve(cuts.size());
  begin = 0;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const std::size_t end =
        std::min(n, (cuts[c].end + batch / 2) / batch * batch);
    if (end <= begin) continue;
    out.push_back({begin, end});
    begin = end;
  }
  if (begin < n) out.push_back({begin, n});
  return out;
}

SearchResult search_ranges(const SearchEngine& engine,
                           const SearchProfiles& profiles, const DbView& view,
                           std::size_t parts) {
  const std::vector<RecordRange> ranges = balanced_ranges(
      view, parts, exact_batch(profiles), RecordCost::kResidues);
  std::vector<SearchResult> scanned(ranges.size());
  engine.parallel_for(ranges.size(), [&](std::size_t r) {
    scanned[r] =
        search_range(profiles, view, ranges[r].begin, ranges[r].end);
  });
  SearchResult result;
  result.scores.reserve(view.size());
  for (const SearchResult& part : scanned) {
    result.scores.insert(result.scores.end(), part.scores.begin(),
                         part.scores.end());
    result.cells += part.cells;
    result.overflow_rescans += part.overflow_rescans;
  }
  return result;
}

std::vector<ScreenResult> screen_ranges(
    const SearchEngine& engine, std::span<const SearchProfiles* const> group,
    std::span<const DbView> views, std::size_t band, std::size_t parts) {
  struct Piece {
    std::size_t query = 0;
    RecordRange range;
  };
  std::vector<Piece> pieces;
  for (std::size_t q = 0; q < group.size(); ++q) {
    for (const RecordRange& range :
         balanced_ranges(views[q], parts, screen_batch(*group[q]),
                         RecordCost::kRecord)) {
      pieces.push_back({q, range});
    }
  }
  std::vector<ScreenResult> screened(pieces.size());
  engine.parallel_for(pieces.size(), [&](std::size_t p) {
    const Piece& piece = pieces[p];
    screened[p] = screen_range(*group[piece.query], views[piece.query],
                               piece.range.begin, piece.range.end, band);
  });
  // Pieces come query by query, each query's in view order.
  std::vector<ScreenResult> out(group.size());
  for (std::size_t p = 0; p < pieces.size(); ++p) {
    ScreenResult& merged = out[pieces[p].query];
    const ScreenResult& part = screened[p];
    merged.scores.insert(merged.scores.end(), part.scores.begin(),
                         part.scores.end());
    merged.exact.insert(merged.exact.end(), part.exact.begin(),
                        part.exact.end());
    merged.edge_hit.insert(merged.edge_hit.end(), part.edge_hit.begin(),
                           part.edge_hit.end());
    merged.cells += part.cells;
  }
  return out;
}

ParallelSearchEngine::ParallelSearchEngine(const DbView& db,
                                           const ParallelSearchOptions& options)
    : ParallelSearchEngine(db, longest_first(db),
                           std::vector<std::size_t>{db.size()},
                           options.threads, {options.tracer, options.metrics}) {
}

// Same longest-first order the DbView ctor computes, but read from the
// database's lane-batch index (identical tie-breaking by record id), and
// every span points into the shared mapping — no copies, no sort.
ParallelSearchEngine::ParallelSearchEngine(const seq::MappedSwdb& db,
                                           const ParallelSearchOptions& options)
    : ParallelSearchEngine(db.residue_views(), db.lane_order(),
                           std::vector<std::size_t>{db.size()},
                           options.threads, {options.tracer, options.metrics}) {
}

ParallelSearchEngine::ParallelSearchEngine(
    const DbView& db, std::span<const std::uint32_t> longest_first,
    std::span<const std::size_t> runs, std::size_t threads_per_shard,
    const SearchSinks& sinks)
    : SearchEngine(sinks), original_index_(longest_first.begin(),
                                           longest_first.end()) {
  std::size_t begin = 0;
  for (const std::size_t run : runs) {
    shards_.push_back({begin, begin + run});
    begin += run;
  }
  SWDUAL_REQUIRE(longest_first.size() == db.size() && begin == db.size(),
                 "the runs must cut one position per record");
  permuted_pos_.resize(db.size());
  for (std::size_t pos = 0; pos < original_index_.size(); ++pos) {
    permuted_pos_[original_index_[pos]] = pos;
  }
  db_.reserve(db.size());
  for (const std::size_t id : original_index_) db_.push_back(db[id]);
  total_residues_ = db_residue_count(db_);
  const std::size_t threads_each = std::max<std::size_t>(1, threads_per_shard);
  chunks_per_shard_ = threads_each * kChunksPerThread;
  const std::size_t threads = shards_.size() * threads_each;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

std::vector<std::uint32_t> ParallelSearchEngine::longest_first(
    const DbView& db) {
  std::vector<std::uint32_t> order(db.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&db](std::uint32_t a, std::uint32_t b) {
                     return db[a].size() > db[b].size();
                   });
  return order;
}

std::vector<ParallelSearchEngine::Chunk> ParallelSearchEngine::chunk_ranges(
    std::size_t batch, RecordCost cost) const {
  const std::span<const std::span<const std::uint8_t>> records(db_);
  std::vector<Chunk> chunks;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const RecordRange shard = shards_[s];
    for (const RecordRange& range :
         balanced_ranges(records.subspan(shard.begin, shard.end - shard.begin),
                         chunks_per_shard_, batch, cost)) {
      chunks.push_back(
          {{shard.begin + range.begin, shard.begin + range.end}, s});
    }
  }
  return chunks;
}

std::vector<std::uint8_t> ParallelSearchEngine::run_chunks(
    std::span<const Chunk> chunks, std::size_t /*queries*/, bool /*screen*/,
    const std::function<void(std::size_t)>& run,
    std::vector<ShardFailure>& /*failures*/) const {
  parallel_for(chunks.size(), run);
  return std::vector<std::uint8_t>(chunks.size(), 1);
}

void ParallelSearchEngine::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (pool_ && count > 1) {
    swdual::parallel_for(*pool_, count, fn);
  } else {
    SearchEngine::parallel_for(count, fn);
  }
}

std::vector<ScreenResult> ParallelSearchEngine::rescreen(
    std::span<const SearchProfiles* const> group,
    std::span<const DbView> records, std::size_t band) const {
  const std::size_t threads = pool_ ? pool_->size() : 1;
  return screen_ranges(*this, group, records, band,
                       threads * kChunksPerThread);
}

SearchResult ParallelSearchEngine::rescan(const SearchProfiles& profiles,
                                          const DbView& candidates) const {
  const std::size_t threads = pool_ ? pool_->size() : 1;
  return search_ranges(*this, profiles, candidates,
                       threads * kChunksPerThread);
}

SearchResult ParallelSearchEngine::search(
    const SearchProfiles& profiles) const {
  const SearchProfiles* group[] = {&profiles};
  return std::move(search_ranked_many(group, 0).front().result);
}

std::vector<RankedSearchResult> ParallelSearchEngine::search_ranked_many(
    std::span<const SearchProfiles* const> profiles, std::size_t top_k) const {
  std::vector<ShardFailure> failures;
  std::vector<RankedSearchResult> results = scan(profiles, top_k, failures);
  require_complete(failures);
  return results;
}

std::vector<RankedSearchResult> ParallelSearchEngine::scan(
    std::span<const SearchProfiles* const> profiles, std::size_t top_k,
    std::vector<ShardFailure>& failures) const {
  std::vector<RankedSearchResult> results(profiles.size());
  if (profiles.empty()) return results;
  for (const SearchProfiles* p : profiles) {
    SWDUAL_REQUIRE(p != nullptr, "null profile set in multi-query group");
    SWDUAL_REQUIRE(p->kernel() == profiles[0]->kernel(),
                   "multi-query groups must share one kernel");
  }
  WallTimer timer;

  // The inter-sequence kernel processes the (length-sorted) records in
  // groups of one SIMD batch; keep chunk boundaries on batch multiples so
  // no batch is split mid-vector across two chunks.
  const std::vector<Chunk> chunks =
      chunk_ranges(exact_batch(*profiles[0]), RecordCost::kResidues);

  // chunk-major outcomes: per_chunk[c][q] is chunk c scanned with query q,
  // the chunk's records scanned once per query while they are hot; hits are
  // chunk-local top-k heaps on original indices.
  const SearchSinks& sink = sinks();
  std::vector<std::vector<RankedSearchResult>> per_chunk(chunks.size());
  const auto scan_chunk = [&](std::size_t c) {
    const RecordRange& chunk = chunks[c].range;
    obs::Span span;
    if (sink.tracer) {
      span = sink.tracer->span("chunk_scan", "align", sink.trace_track);
      span.arg("chunk", static_cast<double>(c));
      span.arg("records", static_cast<double>(chunk.end - chunk.begin));
      span.arg("queries", static_cast<double>(profiles.size()));
    }
    WallTimer chunk_timer;
    std::vector<RankedSearchResult>& outcomes = per_chunk[c];
    outcomes.assign(profiles.size(), RankedSearchResult{});
    std::uint64_t cells = 0;
    for (std::size_t q = 0; q < profiles.size(); ++q) {
      RankedSearchResult& outcome = outcomes[q];
      outcome.result = search_range(*profiles[q], db_, chunk.begin, chunk.end);
      cells += outcome.result.cells;
      if (top_k == 0) continue;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        push_top_hit(
            outcome.hits,
            {original_index_[i], outcome.result.scores[i - chunk.begin]},
            top_k);
      }
    }
    span.arg("cells", static_cast<double>(cells));
    if (sink.metrics) {
      sink.metrics->observe("chunk_scan_seconds", chunk_timer.seconds());
    }
  };
  const std::vector<std::uint8_t> merged_chunks = run_chunks(
      chunks, profiles.size(), /*screen=*/false, scan_chunk, failures);

  // Deterministic merge: chunks reduced in index order, scores scattered
  // through the inverse permutation back to database order.
  const double elapsed = timer.seconds();
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    RankedSearchResult& ranked = results[q];
    SearchResult& merged = ranked.result;
    merged.scores.assign(db_.size(), 0);
    for (std::size_t c = 0; c < per_chunk.size(); ++c) {
      if (!merged_chunks[c]) continue;
      const RecordRange& chunk = chunks[c].range;
      const SearchResult& r = per_chunk[c][q].result;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        merged.scores[original_index_[i]] = r.scores[i - chunk.begin];
      }
      merged.cells += r.cells;
      merged.overflow_rescans += r.overflow_rescans;
      for (const SearchHit& hit : per_chunk[c][q].hits) {
        push_top_hit(ranked.hits, hit, top_k);
      }
    }
    finish_top_hits(ranked.hits);
    merged.seconds = elapsed;
  }
  return results;
}

std::vector<ScreenResult> ParallelSearchEngine::screen(
    std::span<const SearchProfiles* const> profiles, std::size_t band,
    std::vector<ShardFailure>& failures) const {
  std::vector<ScreenResult> merged(profiles.size());
  for (const SearchProfiles* p : profiles) {
    SWDUAL_REQUIRE(p != nullptr, "null profile set in multi-query group");
  }
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    merged[q].scores.assign(db_.size(), 0);
    merged[q].exact.assign(db_.size(), 1);
    merged[q].edge_hit.assign(db_.size(), 0);
  }
  if (profiles.empty()) return merged;

  // The banded kernel batches the screen backend's byte lanes; keep those
  // batches unsplit the same way the exact scan aligns interseq chunks to
  // the 16-bit lanes. Its paced lane walk covers one band window per
  // record, so the chunks balance records, not residues: a residue cut
  // would pile the short tail of the longest-first order into one
  // straggler chunk.
  //
  // One paced lane group can cost as much as a whole chunk of uniform ones,
  // and a costly chunk that the pool starts last stretches the pass by its
  // whole length. So the chunks run in decreasing estimated cost
  // (screen_cost); each chunk's output keeps its range, so the order never
  // changes a value.
  const std::size_t batch = screen_batch(*profiles[0]);
  std::vector<std::pair<std::uint64_t, Chunk>> by_cost;
  for (const Chunk& chunk : chunk_ranges(batch, RecordCost::kRecord)) {
    by_cost.emplace_back(screen_cost(db_, chunk.range, batch, band), chunk);
  }
  std::stable_sort(
      by_cost.begin(), by_cost.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Chunk> chunks;
  chunks.reserve(by_cost.size());
  for (const auto& costed : by_cost) chunks.push_back(costed.second);

  const SearchSinks& sink = sinks();
  std::vector<std::vector<ScreenResult>> per_chunk(chunks.size());
  const auto screen_chunk = [&](std::size_t c) {
    const RecordRange& chunk = chunks[c].range;
    obs::Span span;
    if (sink.tracer) {
      span = sink.tracer->span("filter_screen", "align", sink.trace_track);
      span.arg("chunk", static_cast<double>(c));
      span.arg("records", static_cast<double>(chunk.end - chunk.begin));
      span.arg("queries", static_cast<double>(profiles.size()));
    }
    WallTimer chunk_timer;
    per_chunk[c].clear();
    for (const SearchProfiles* p : profiles) {
      per_chunk[c].push_back(
          screen_range(*p, db_, chunk.begin, chunk.end, band));
    }
    if (sink.metrics) {
      sink.metrics->observe("chunk_scan_seconds", chunk_timer.seconds());
    }
  };
  const std::vector<std::uint8_t> merged_chunks = run_chunks(
      chunks, profiles.size(), /*screen=*/true, screen_chunk, failures);

  // Scatter back to database order through the inverse permutation, like
  // the exact scan's merge — per-record screen values are chunk-independent.
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    ScreenResult& out = merged[q];
    for (std::size_t c = 0; c < per_chunk.size(); ++c) {
      if (!merged_chunks[c]) continue;
      const RecordRange& chunk = chunks[c].range;
      const ScreenResult& r = per_chunk[c][q];
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        const std::size_t at = original_index_[i];
        out.scores[at] = r.scores[i - chunk.begin];
        out.exact[at] = r.exact[i - chunk.begin];
        out.edge_hit[at] = r.edge_hit[i - chunk.begin];
      }
      out.cells += r.cells;
    }
  }
  return merged;
}

}  // namespace swdual::align
