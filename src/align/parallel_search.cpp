#include "align/parallel_search.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/swdb.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::align {

namespace {

/// Residue-balanced contiguous partition: cut after the record whose
/// cumulative residue count crosses the next multiple of total/num_chunks.
/// Every chunk gets at least one record; empty records count as cost 1 so a
/// database of empty sequences still splits. Requires a non-empty db.
std::vector<std::pair<std::size_t, std::size_t>> balanced_cuts(
    const DbView& db, std::size_t num_chunks) {
  const std::size_t n = db.size();
  num_chunks = std::clamp<std::size_t>(num_chunks, 1, n);
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + std::max<std::uint64_t>(db[i].size(), 1);
  }
  std::vector<std::pair<std::size_t, std::size_t>> cuts;
  cuts.reserve(num_chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::uint64_t target = prefix[n] * (c + 1) / num_chunks;
    std::size_t end = begin + 1;
    while (end < n && prefix[end] < target) ++end;
    // Leave one record for each remaining chunk.
    end = std::min(end, n - (num_chunks - 1 - c));
    end = std::max(end, begin + 1);
    cuts.emplace_back(begin, end);
    begin = end;
  }
  cuts.back().second = n;
  return cuts;
}

}  // namespace

ParallelSearchEngine::ParallelSearchEngine(const DbView& db,
                                           const ParallelSearchOptions& options)
    : SearchEngine({options.tracer, options.metrics, options.trace_track}),
      db_(db) {
  original_index_.resize(db_.size());
  std::iota(original_index_.begin(), original_index_.end(), 0);
  std::stable_sort(original_index_.begin(), original_index_.end(),
                   [&db](std::size_t a, std::size_t b) {
                     return db[a].size() > db[b].size();
                   });
  for (std::size_t p = 0; p < db_.size(); ++p) {
    db_[p] = db[original_index_[p]];
  }
  init_partition(options);
}

ParallelSearchEngine::ParallelSearchEngine(const seq::MappedSwdb& db,
                                           const ParallelSearchOptions& options)
    : SearchEngine({options.tracer, options.metrics, options.trace_track}) {
  // Same longest-first permutation the DbView ctor computes, but read from
  // the database's lane-batch index (identical tie-breaking by record id),
  // and every span points into the shared mapping — no copies, no sort.
  original_index_.reserve(db.size());
  db_.reserve(db.size());
  for (const std::uint32_t id : db.lane_order()) {
    original_index_.push_back(id);
    db_.push_back(db.residues(id));
  }
  init_partition(options);
}

void ParallelSearchEngine::init_partition(
    const ParallelSearchOptions& options) {
  permuted_pos_.resize(original_index_.size());
  for (std::size_t p = 0; p < original_index_.size(); ++p) {
    permuted_pos_[original_index_[p]] = p;
  }
  total_residues_ = db_residue_count(db_);
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  if (!db_.empty()) {
    if (options.chunk_records > 0) {
      // Fixed record-count chunks, as requested.
      for (std::size_t begin = 0; begin < db_.size();
           begin += options.chunk_records) {
        chunks_.push_back(
            {begin, std::min(begin + options.chunk_records, db_.size())});
      }
    } else {
      const std::size_t num_chunks =
          threads * std::max<std::size_t>(1, options.chunks_per_thread);
      for (const auto& [begin, end] : balanced_cuts(db_, num_chunks)) {
        chunks_.push_back({begin, end});
      }
    }
  }
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

std::vector<ParallelSearchEngine::Chunk>
ParallelSearchEngine::batch_aligned_chunks(std::size_t batch) const {
  if (batch <= 1 || chunks_.size() <= 1) return chunks_;
  const std::size_t n = db_.size();
  std::vector<Chunk> out;
  out.reserve(chunks_.size());
  std::size_t begin = 0;
  for (std::size_t c = 0; c + 1 < chunks_.size(); ++c) {
    // Snap each cut to the nearest batch multiple; a cut swallowed by its
    // predecessor simply merges the two chunks.
    const std::size_t end =
        std::min(n, (chunks_[c].end + batch / 2) / batch * batch);
    if (end <= begin) continue;
    out.push_back({begin, end});
    begin = end;
  }
  if (begin < n) out.push_back({begin, n});
  return out;
}

void ParallelSearchEngine::for_each_chunk(
    std::size_t count, const std::function<void(std::size_t)>& task) const {
  if (pool_) {
    parallel_for(*pool_, count, task);
  } else {
    for (std::size_t c = 0; c < count; ++c) task(c);
  }
}

SearchResult ParallelSearchEngine::search(
    const SearchProfiles& profiles) const {
  const SearchProfiles* group[] = {&profiles};
  return std::move(search_ranked_many(group, 0).front().result);
}

std::vector<RankedSearchResult> ParallelSearchEngine::search_ranked_many(
    std::span<const SearchProfiles* const> profiles, std::size_t top_k) const {
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
      profiles[0]->kernel() == KernelKind::kInterSeq
          ? batch_aligned_chunks(backend_lanes16(profiles[0]->backend()))
          : chunks_;

  // chunk-major outcomes: per_chunk[c][q] is chunk c scanned with query q,
  // the chunk's records scanned once per query while they are hot; hits are
  // chunk-local top-k heaps on original indices.
  const SearchSinks& sink = sinks();
  std::vector<std::vector<RankedSearchResult>> per_chunk(chunks.size());
  for_each_chunk(chunks.size(), [&](std::size_t c) {
    const Chunk& chunk = chunks[c];
    obs::Span span;
    if (sink.tracer) {
      span = sink.tracer->span("chunk_scan", "align", sink.trace_track);
      span.arg("chunk", static_cast<double>(c));
      span.arg("records", static_cast<double>(chunk.end - chunk.begin));
      span.arg("queries", static_cast<double>(profiles.size()));
    }
    WallTimer chunk_timer;
    std::vector<RankedSearchResult>& outcomes = per_chunk[c];
    outcomes.resize(profiles.size());
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
  });

  // Deterministic merge: chunks reduced in index order, scores scattered
  // through the inverse permutation back to database order.
  const double elapsed = timer.seconds();
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    RankedSearchResult& ranked = results[q];
    SearchResult& merged = ranked.result;
    merged.scores.assign(db_.size(), 0);
    for (std::size_t c = 0; c < per_chunk.size(); ++c) {
      const Chunk& chunk = chunks[c];
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

std::vector<ScreenResult> ParallelSearchEngine::screen_many(
    std::span<const SearchProfiles* const> profiles, std::size_t band) const {
  std::vector<ScreenResult> merged(profiles.size());
  for (const SearchProfiles* p : profiles) {
    SWDUAL_REQUIRE(p != nullptr, "null profile set in multi-query group");
  }
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    merged[q].scores.assign(db_.size(), 0);
    merged[q].exact.assign(db_.size(), 0);
    merged[q].edge_hit.assign(db_.size(), 0);
  }
  if (db_.empty() || profiles.empty()) return merged;

  // The banded kernel batches byte lanes; keep those batches unsplit the
  // same way the exact scan aligns interseq chunks to the 16-bit lanes.
  const std::vector<Chunk> chunks =
      profiles[0]->kernel() == KernelKind::kScalar
          ? chunks_
          : batch_aligned_chunks(backend_lanes8(profiles[0]->backend()));

  const SearchSinks& sink = sinks();
  std::vector<std::vector<ScreenResult>> per_chunk(chunks.size());
  for_each_chunk(chunks.size(), [&](std::size_t c) {
    const Chunk& chunk = chunks[c];
    obs::Span span;
    if (sink.tracer) {
      span = sink.tracer->span("filter_screen", "align", sink.trace_track);
      span.arg("chunk", static_cast<double>(c));
      span.arg("records", static_cast<double>(chunk.end - chunk.begin));
      span.arg("queries", static_cast<double>(profiles.size()));
    }
    WallTimer chunk_timer;
    for (const SearchProfiles* p : profiles) {
      per_chunk[c].push_back(
          screen_range(*p, db_, chunk.begin, chunk.end, band));
    }
    if (sink.metrics) {
      sink.metrics->observe("chunk_scan_seconds", chunk_timer.seconds());
    }
  });

  // Scatter back to database order through the inverse permutation, like
  // the exact scan's merge — per-record screen values are chunk-independent.
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    ScreenResult& out = merged[q];
    for (std::size_t c = 0; c < per_chunk.size(); ++c) {
      const Chunk& chunk = chunks[c];
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
