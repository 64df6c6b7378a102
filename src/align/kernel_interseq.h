// Rognes-style inter-sequence SIMD Smith–Waterman, the striped8 scan's
// 16-bit tier.
//
// This is the kernel class behind the paper's SWIPE baseline (Rognes 2011):
// instead of vectorizing within one DP matrix, one batch of *database
// sequences* is aligned against the query simultaneously, one per SIMD
// lane (8 lanes on SSE2, 16 on AVX2, 32 on AVX-512BW — the active backend
// decides). There is no striping and no lazy-F fixup — every lane is an
// independent matrix, so all dependencies are lane-local and the
// recurrence is computed directly. search_range hands it, in one call
// through KernelTable::interseq (backend.h), the records of a range that
// saturated the byte tier.
//
// Sequences are batched one SIMD-width at a time, longest-first, with
// exhausted lanes padded by a sentinel profile row of large negative scores
// (padding columns can then never create or extend a positive-scoring
// alignment). Per-sequence scores are independent of the batch width.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/profile.h"
#include "align/scoring.h"

namespace swdual::align {

struct InterSeqResult {
  std::vector<int> scores;          ///< one per input sequence, input order
  std::vector<bool> overflow;       ///< lanes that saturated (recompute!)
  std::uint64_t cells = 0;          ///< true DP cells (excludes padding)
};

/// Views of the database sequences to score in one call.
using SequenceViews = std::vector<std::span<const std::uint8_t>>;

}  // namespace swdual::align
