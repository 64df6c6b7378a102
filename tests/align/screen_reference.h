// The banded screen's contract, checked against the scalar banded
// reference banded_gotoh_score. Shared by the filter tests and the banded
// fuzz harness: on every backend the screen must report the same score and
// edge_hit per record, the same banded cells in total (each cell once,
// whatever tiers ran), and overflow exactly on the records whose banded
// score does not fit 16 bits (their score is then the caller's 32-bit
// rescan's job).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "align/banded.h"
#include "align/kernel_banded.h"

namespace swdual::align {

/// The scalar reference's answer for every record of one screen.
struct ScreenReference {
  std::vector<BandedResult> records;
  std::vector<std::size_t> lengths;  ///< record lengths, for messages
  std::uint64_t cells = 0;
};

inline ScreenReference screen_reference(std::span<const std::uint8_t> query,
                                        const SequenceViews& db,
                                        const ScoringScheme& scheme,
                                        std::size_t band) {
  ScreenReference want;
  for (const auto& record : db) {
    want.records.push_back(banded_gotoh_score(query, record, scheme, band));
    want.lengths.push_back(record.size());
    want.cells += want.records.back().cells;
  }
  return want;
}

/// The first way `got` breaks the contract against `want`, or "" when it
/// keeps it.
inline std::string screen_mismatch(const BandedBatchResult& got,
                                   const ScreenReference& want) {
  const std::size_t n = want.records.size();
  if (got.scores.size() != n || got.overflow.size() != n ||
      got.edge_hit.size() != n) {
    return "result size " + std::to_string(got.scores.size()) + " for " +
           std::to_string(n) + " records";
  }
  if (got.cells != want.cells) {
    return "cells " + std::to_string(got.cells) + " != " +
           std::to_string(want.cells);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const BandedResult& w = want.records[i];
    const auto record = [&](const char* what) {
      return "record " + std::to_string(i) + " (length " +
             std::to_string(want.lengths[i]) + ") " + what + ": got " +
             std::to_string(got.scores[i]) + ", want " +
             std::to_string(w.score);
    };
    const bool wide = w.score >= std::numeric_limits<std::int16_t>::max();
    if (got.overflow[i] != wide) return record("overflow");
    if (wide) continue;
    if (got.scores[i] != w.score) return record("score");
    if (got.edge_hit[i] != w.edge_hit) return record("edge_hit");
  }
  return "";
}

}  // namespace swdual::align
