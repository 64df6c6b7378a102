// The search pipeline: one request type, one stage sequence, every engine.
//
// A task is a group of queries scanned against the whole database (paper
// §II-C, Fig. 6). search() runs its stages once for every engine:
//   screen? → select → rescan (uncertified candidates, longest-first) →
//   rank → annotate (final global top-k only).
// An engine supplies only how records are partitioned: a group scan, a
// group screen and an exact scan of a candidate view. Retrying a failed
// partition is the engine's job; one that fails past its retries is
// reported in the outcome. Every stage after the partition pass sees
// database-order data, so answers never depend on the partition topology.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "align/annotate.h"
#include "align/search.h"

namespace swdual::obs {
class MetricsRegistry;
class Tracer;
}  // namespace swdual::obs

namespace swdual::align {

/// What a search asks for, independent of the engine that answers it.
struct SearchRequest {
  std::size_t k = 10;       ///< hits per query
  FilterConfig filter;      ///< kOff: exact scan of every record
  AnnotateConfig annotate;  ///< applied once, to the final top-k

  /// Calibrated Karlin–Altschul parameters, borrowed for the call; required
  /// when annotation is enabled (acquire them through align::StatsCache).
  const KarlinAltschulParams* stats = nullptr;

  /// Throws InvalidArgument on bad filter or annotate parameters, or on
  /// annotation without stats.
  void validate() const;
};

/// A partition (shard) that exhausted its retry budget during a pass.
struct ShardFailure {
  std::size_t shard = 0;
  std::size_t attempts = 0;  ///< scan attempts made (1 + retries)
  std::string reason;        ///< what() of the last failure
  /// Database indices the partition holds (a view into the engine's plan;
  /// valid while the engine lives).
  std::span<const std::uint32_t> records;
};

/// One query's answer from the pipeline.
struct SearchOutcome {
  /// Database-order scores plus the final top-k. Filtered: screened lower
  /// bounds with every candidate's entry overwritten by its exact score.
  RankedSearchResult ranked;

  bool filtered = false;  ///< the two-stage filter produced this answer
  FilterStats filter;     ///< what the filter did (zero when off)

  /// False when a partition failed past its retries: its records were not
  /// scanned (scores read 0) and never appear in the hits.
  bool complete = true;
  std::vector<ShardFailure> failures;
};

/// Where an engine's spans and metrics go (each optional; the sinks must
/// outlive the engine).
struct SearchSinks {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::size_t trace_track = 0;
};

/// The partition primitives an engine supplies to the pipeline. Every
/// result is in database order; `group` profiles must share one kernel.
class SearchEngine {
 public:
  explicit SearchEngine(const SearchSinks& sinks = {}) : sinks_(sinks) {}
  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;
  virtual ~SearchEngine() = default;

  /// Total residues across the database (the Karlin–Altschul `n`).
  virtual std::uint64_t db_residues() const = 0;

  /// Residues of database record `index` (database order).
  virtual std::span<const std::uint8_t> record(std::size_t index) const = 0;

  /// Exact scan of every record: per query, the scores and the top-k.
  /// Partitions that fail past their retries are appended to `failures`;
  /// their records score 0 and never rank.
  virtual std::vector<RankedSearchResult> scan(
      std::span<const SearchProfiles* const> group, std::size_t k,
      std::vector<ShardFailure>& failures) const = 0;

  /// Banded stage-1 screen of every record, per query. Records of failed
  /// partitions read score 0 with the exactness certificate set.
  virtual std::vector<ScreenResult> screen(
      std::span<const SearchProfiles* const> group, std::size_t band,
      std::vector<ShardFailure>& failures) const = 0;

  /// Exact scan of the candidate records in `candidates` (longest-first).
  /// Default: serial search_range on the calling thread. Overrides must
  /// return the same scores, cells and overflow_rescans.
  virtual SearchResult rescan(const SearchProfiles& profiles,
                              const DbView& candidates) const {
    return search_range(profiles, candidates, 0, candidates.size());
  }

  /// Run fn(i) for every i < count and wait. If items throw, the first
  /// exception is rethrown once no item is still running. Items are
  /// independent and never call parallel_for again (the caller blocks on
  /// the engine's threads). Default: inline on the calling thread, in
  /// index order.
  virtual void parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& fn) const {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }

  /// Also receive the pipeline's filter_rescore / annotate_* spans and its
  /// filter_* / annotate_* metrics.
  const SearchSinks& sinks() const { return sinks_; }

 private:
  SearchSinks sinks_;
};

/// The serial engine: the whole database as one range, on the calling
/// thread (its exact scan is rescan() of every record).
class SerialSearchEngine : public SearchEngine {
 public:
  /// Copies the record spans; the viewed residues must outlive the engine.
  explicit SerialSearchEngine(const DbView& db, const SearchSinks& sinks = {});

  std::uint64_t db_residues() const override { return residues_; }
  std::span<const std::uint8_t> record(std::size_t index) const override;
  std::vector<RankedSearchResult> scan(
      std::span<const SearchProfiles* const> group, std::size_t k,
      std::vector<ShardFailure>& failures) const override;
  std::vector<ScreenResult> screen(
      std::span<const SearchProfiles* const> group, std::size_t band,
      std::vector<ShardFailure>& failures) const override;

 private:
  DbView db_;
  std::uint64_t residues_;
};

/// Run the pipeline for a group of queries on `engine`: one outcome per
/// profile set, in input order. A single query is a group of one.
std::vector<SearchOutcome> search(const SearchEngine& engine,
                                  std::span<const SearchProfiles* const> group,
                                  const SearchRequest& request);

}  // namespace swdual::align
