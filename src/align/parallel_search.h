// Chunked parallel database search: multithreaded intra-task scans.
//
// The master–slave runtime parallelizes *across* tasks (one query vs the
// whole database per worker); this engine, which the sharded query service
// runs on, parallelizes *inside* one task, the way SWIPE/CUDASW++-class
// tools do: the database is partitioned into cost-balanced chunks that fan
// out over a ThreadPool, every chunk sharing one read-only set of query
// profiles (including the lazily built 16-bit escalation profile of the
// striped8 tier).
//
// Results are bit-identical to the serial search_database path — same
// scores, same cells / overflow_rescans accounting — deterministically,
// regardless of thread count: chunks are merged in index order and every
// per-record value is independent of its chunk.
//
// As a pipeline engine (align/pipeline.h) it supplies the chunked group
// scan and group screen, and runs the pipeline's rescan ranges and
// tracebacks on the same pool; filtering and annotation are the pipeline's.
//
// Shards: a derived engine may cut the longest-first order into contiguous
// runs, its shards and fault domains (align/sharded_search.h). Chunks never
// cross a run boundary, and one group pass still runs every chunk of every
// shard on the one pool; run_chunks decides how the pass's chunks run and
// which of their outputs the one merge takes.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Each pass cuts the database into 4 chunks per thread, balanced by what
  /// the pass costs per record (balanced_ranges).
  std::size_t threads = 1;

  /// Optional observability sinks (obs/trace.h, obs/metrics.h): every chunk
  /// pass becomes a wall-clock `chunk_scan` / `filter_screen` span on track
  /// 0 (recorded from the pool thread that ran it) and a
  /// `chunk_scan_seconds` histogram sample. Both must outlive the engine.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// A contiguous range of records, [begin, end).
struct RecordRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// What one record costs the pass that a partition is cut for.
enum class RecordCost {
  kResidues,  ///< its residues, empty records 1: the exact scans
  kRecord,    ///< 1: the banded screen, whose paced lane walk covers one
              ///< band window per record whatever its length
};

/// The record partition of the chunked passes and of the rescan split: cut
/// `db` into at most `parts` contiguous ranges of about equal `cost`, then
/// snap every interior cut to the nearest multiple of `batch` records, so a
/// SIMD kernel never splits a lane batch between two ranges (a split batch
/// runs twice with mostly padded lanes; a cut swallowed by its predecessor
/// merges the two ranges). Scores, cells and overflow rescans never depend
/// on the cut, since lanes are independent; only padding waste and chunk
/// balance do. Empty for an empty `db`.
std::vector<RecordRange> balanced_ranges(
    std::span<const std::span<const std::uint8_t>> db, std::size_t parts,
    std::size_t batch, RecordCost cost);

/// search_range(profiles, view, 0, view.size()) cut by balanced_ranges into
/// at most `parts` lane-batch-aligned ranges that run through
/// engine.parallel_for: the same scores, cells and overflow_rescans. The
/// rescan of the threaded engines.
SearchResult search_ranges(const SearchEngine& engine,
                           const SearchProfiles& profiles, const DbView& view,
                           std::size_t parts);

/// Per query, screen_range(*group[q], views[q], 0, views[q].size(), band)
/// cut by balanced_ranges into at most `parts` ranges aligned to the screen
/// backend's byte lanes, every query's ranges in one engine.parallel_for:
/// the same scores, flags and cells. The cascade of the threaded engines.
std::vector<ScreenResult> screen_ranges(
    const SearchEngine& engine, std::span<const SearchProfiles* const> group,
    std::span<const DbView> views, std::size_t band, std::size_t parts);

class ParallelSearchEngine : public SearchEngine {
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
  /// to one serial scan per query. Throws when a shard fails past its
  /// retries: partial answers come only from scan(), which reports them.
  std::vector<RankedSearchResult> search_ranked_many(
      std::span<const SearchProfiles* const> profiles, std::size_t k) const;

  // Pipeline primitives (align/pipeline.h).
  std::uint64_t db_residues() const override { return total_residues_; }
  /// The residue span of database record `index` (database order, i.e. the
  /// caller's original indexing, independent of the length permutation).
  std::span<const std::uint8_t> record(std::size_t index) const override {
    return db_[permuted_pos_[index]];
  }
  /// The group pass of search_ranked_many; chunks run_chunks does not
  /// merge leave their records at score 0, outside the ranking.
  std::vector<RankedSearchResult> scan(
      std::span<const SearchProfiles* const> group, std::size_t k,
      std::vector<ShardFailure>& failures) const override;
  /// Stage 1 alone: per-query banded screens of the whole database, one
  /// shared pass per chunk, in database order, bit-identical to serial
  /// screen_range. Records of chunks run_chunks does not merge read score 0
  /// with the exact certificate, so they are never rescanned.
  std::vector<ScreenResult> screen(
      std::span<const SearchProfiles* const> group, std::size_t band,
      std::vector<ShardFailure>& failures) const override;
  /// screen_ranges over the pool, 4 ranges per query and pool thread.
  std::vector<ScreenResult> rescreen(
      std::span<const SearchProfiles* const> group,
      std::span<const DbView> records, std::size_t band) const override;
  /// search_ranges over the pool, 4 ranges per pool thread.
  SearchResult rescan(const SearchProfiles& profiles,
                      const DbView& candidates) const override;
  /// On the pool; inline with one thread or one item.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn) const override;

  std::size_t num_chunks() const {
    return chunk_ranges(1, RecordCost::kResidues).size();
  }
  std::size_t db_records() const { return db_.size(); }

 protected:
  /// Sharded layout: records in `longest_first` order (every record id,
  /// longest first, ties by id), cut into consecutive shards of `runs[s]`
  /// records each; each shard is cut into threads_per_shard × 4 chunks, and
  /// the pool holds shards × threads_per_shard threads.
  ParallelSearchEngine(const DbView& db,
                       std::span<const std::uint32_t> longest_first,
                       std::span<const std::size_t> runs,
                       std::size_t threads_per_shard,
                       const SearchSinks& sinks);

  /// The record ids of `db`, longest first, ties by id.
  static std::vector<std::uint32_t> longest_first(const DbView& db);

  /// One chunk of a group pass: a range of the shard-major record order
  /// inside one shard.
  struct Chunk {
    RecordRange range;
    std::size_t shard = 0;
  };

  /// How a group pass runs its chunks: call run(c) for every chunk c and
  /// return, per chunk, 1 when its output is merged. run(c) overwrites
  /// chunk c's output, so a chunk may run again. The pool starts chunks in
  /// index order, which the pass chooses (the screen puts its costliest
  /// chunks first, across shards). `queries` and `screen` describe the
  /// pass. Default: every chunk on the pool, every output merged; a
  /// throwing chunk propagates.
  virtual std::vector<std::uint8_t> run_chunks(
      std::span<const Chunk> chunks, std::size_t queries, bool screen,
      const std::function<void(std::size_t)>& run,
      std::vector<ShardFailure>& failures) const;

 private:
  /// The chunks of every shard for a pass whose lane batches hold `batch`
  /// records: balanced_ranges of the shard by `cost`, batches counted from
  /// its start.
  std::vector<Chunk> chunk_ranges(std::size_t batch, RecordCost cost) const;

  DbView db_;  ///< longest first, ties by id (span copies)
  std::uint64_t total_residues_ = 0;
  std::vector<std::size_t> original_index_;  ///< permuted pos → db pos
  std::vector<std::size_t> permuted_pos_;    ///< db pos → permuted pos
  std::vector<RecordRange> shards_;          ///< each shard's positions
  std::size_t chunks_per_shard_ = 1;
  std::unique_ptr<ThreadPool> pool_;  ///< null with a single thread
};

}  // namespace swdual::align
