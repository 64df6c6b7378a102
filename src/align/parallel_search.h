// Chunked parallel database search: multithreaded intra-task scans.
//
// The master–slave engine parallelizes *across* tasks (one query vs the
// whole database per worker); this engine additionally parallelizes *inside*
// one task, the way SWIPE/CUDASW++-class tools do: the database is
// partitioned into residue-balanced chunks that fan out over a ThreadPool,
// every chunk sharing one read-only set of query profiles (including the
// lazily built 16-bit escalation profile of the striped8 tier).
//
// Results are bit-identical to the serial search_database path — same
// scores, same cells / overflow_rescans accounting — deterministically,
// regardless of thread count: chunks are merged in index order and every
// per-record value is independent of its chunk.
//
// As a pipeline engine (align/pipeline.h) it supplies the chunked group
// scan and group screen; filtering and annotation are the pipeline's.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "align/pipeline.h"
#include "align/search.h"
#include "util/thread_pool.h"

namespace swdual::obs {
class MetricsRegistry;
class Tracer;
}  // namespace swdual::obs

namespace swdual::seq {
class MappedSwdb;
}  // namespace swdual::seq

namespace swdual::align {

struct ParallelSearchOptions {
  /// Worker threads for the internal pool. 1 runs chunks inline (no pool).
  std::size_t threads = 1;

  /// Fixed chunk size in records; 0 selects residue-balanced automatic
  /// partitioning (chunks_per_thread chunks per thread). Values larger than
  /// the database collapse to a single chunk.
  std::size_t chunk_records = 0;

  /// Automatic-partition granularity: more chunks per thread smooth load
  /// imbalance from length skew at slightly higher merge cost.
  std::size_t chunks_per_thread = 4;

  /// Optional observability sinks (obs/trace.h, obs/metrics.h): every chunk
  /// pass becomes a wall-clock `chunk_scan` / `filter_screen` span on
  /// `trace_track` (recorded from the pool thread that ran it) and a
  /// `chunk_scan_seconds` histogram sample. Both must outlive the engine.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::size_t trace_track = 0;
};

class ParallelSearchEngine final : public SearchEngine {
 public:
  /// Snapshots `db` (span copies, not residues), permutes it longest-first
  /// (so the interseq lane batches waste few padded cells; the inverse
  /// mapping is applied at merge, so callers always see database order) and
  /// builds the partition once; the underlying records must outlive the
  /// engine.
  explicit ParallelSearchEngine(const DbView& db,
                                const ParallelSearchOptions& options = {});

  /// Zero-copy engine over an mmap-backed SWDB: chunk scans read residues
  /// straight out of the shared mapping (no per-engine or per-thread copy),
  /// and the longest-first permutation comes from the database's
  /// precomputed lane-batch index instead of a per-engine sort. The mapping
  /// must outlive the engine (see MappedSwdb lifetime rules).
  ParallelSearchEngine(const seq::MappedSwdb& db,
                       const ParallelSearchOptions& options = {});

  ParallelSearchEngine(const ParallelSearchEngine&) = delete;
  ParallelSearchEngine& operator=(const ParallelSearchEngine&) = delete;

  /// Score one query against the whole database with caller-provided
  /// (possibly cached/shared) profiles. Scores are in database order and
  /// bit-identical to serial search_database on every SIMD backend.
  SearchResult search(const SearchProfiles& profiles) const;

  /// Multi-query scan: K queries share ONE pass over every database chunk.
  /// Each chunk task scans its records once per query while the chunk's
  /// residues are hot in cache, amortizing DB decode/cache traffic across
  /// the group the way SWAPHI shares one partition pass between concurrent
  /// queries. Each chunk keeps a k-hit heap per query and only those heaps
  /// are merged, so ranking costs O(n log k). All profile sets must use the
  /// same kernel. Results are per query, in input order, and bit-identical
  /// to one serial scan per query.
  std::vector<RankedSearchResult> search_ranked_many(
      std::span<const SearchProfiles* const> profiles, std::size_t k) const;

  /// Stage 1 alone: per-query banded screens of the whole database, one
  /// shared pass per chunk, in database order, bit-identical to serial
  /// screen_range.
  std::vector<ScreenResult> screen_many(
      std::span<const SearchProfiles* const> profiles, std::size_t band) const;

  // Pipeline primitives (align/pipeline.h).
  std::uint64_t db_residues() const override { return total_residues_; }
  /// The residue span of database record `index` (database order, i.e. the
  /// caller's original indexing, independent of the length permutation).
  std::span<const std::uint8_t> record(std::size_t index) const override {
    return db_[permuted_pos_[index]];
  }
  std::vector<RankedSearchResult> scan(
      std::span<const SearchProfiles* const> group, std::size_t k,
      std::vector<ShardFailure>& /*failures*/) const override {
    return search_ranked_many(group, k);
  }
  std::vector<ScreenResult> screen(
      std::span<const SearchProfiles* const> group, std::size_t band,
      std::vector<ShardFailure>& /*failures*/) const override {
    return screen_many(group, band);
  }

  std::size_t num_chunks() const { return chunks_.size(); }
  std::size_t db_records() const { return db_.size(); }

 private:
  struct Chunk {
    std::size_t begin = 0;  ///< first record (permuted order)
    std::size_t end = 0;    ///< one past the last record
  };

  /// Run `task(c)` for every c < count: on the pool when there is one,
  /// inline otherwise.
  void for_each_chunk(std::size_t count,
                      const std::function<void(std::size_t)>& task) const;

  /// Partition db_ into chunks and spin up the pool (shared ctor tail;
  /// db_ and original_index_ must already be populated).
  void init_partition(const ParallelSearchOptions& options);

  /// chunks_ with every boundary snapped to a multiple of `batch` records,
  /// so the inter-sequence kernel never splits a SIMD batch between two
  /// chunks (a split batch runs twice with mostly-padded lanes). Scores are
  /// unaffected — lanes are independent — only padding waste is.
  std::vector<Chunk> batch_aligned_chunks(std::size_t batch) const;

  DbView db_;  ///< longest-first span copies
  std::uint64_t total_residues_ = 0;
  std::vector<std::size_t> original_index_;  ///< permuted pos → db pos
  std::vector<std::size_t> permuted_pos_;    ///< db pos → permuted pos
  std::vector<Chunk> chunks_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when options.threads <= 1
};

}  // namespace swdual::align
