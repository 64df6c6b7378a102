// Reusable per-thread DP workspace for the alignment kernels.
//
// A database search calls the striped kernel once per record; without a
// workspace each call allocates (and frees) three DP rows, which on short
// records costs as much as the scan itself. AlignScratch keeps those rows
// alive between calls: buffers are zero-filled on acquisition (the kernels
// rely on all-zero initial state) but their capacity is reused, so a scan
// over a million records performs a handful of allocations instead of
// millions. Each kernel thread owns one instance via thread_scratch() —
// chunked parallel scans therefore never contend on it.
#pragma once

#include <cstddef>
#include <cstdint>

#include <vector>

#include "util/aligned.h"

namespace swdual::align {

class AlignScratch {
 public:
  /// Zero-filled buffers of `n` elements each, valid until the next
  /// acquisition: the byte-striped kernel's H load / H store / E rows.
  struct RowsU8 {
    std::uint8_t* h_load;
    std::uint8_t* h_store;
    std::uint8_t* e;
  };

  RowsU8 rows_u8(std::size_t n) {
    h8_load_.assign(n, 0);
    h8_store_.assign(n, 0);
    e8_.assign(n, 0);
    return {h8_load_.data(), h8_store_.data(), e8_.data()};
  }

  /// The inter-sequence kernel's workspace: `n` 64-byte-aligned elements
  /// that the kernel lays out itself (see kernel_interseq_impl.h). Contents
  /// are NOT zeroed. The buffer is aligned by hand (util/aligned.h
  /// cache_aligned): a master run's short-lived worker threads each free
  /// one, and an allocator-aligned block is too small for the next thread's
  /// identical request.
  std::int16_t* interseq_workspace(std::size_t n) {
    return cache_aligned(iseq_workspace_, n);
  }

  /// 16-bit banded-screen state: H and E columns (zeroed), `n` elements
  /// each (query length x lane count).
  struct InterSeqState {
    std::int16_t* h;
    std::int16_t* e;
  };

  InterSeqState interseq_state(std::size_t n) {
    iseq_h_.assign(n, 0);
    iseq_e_.assign(n, 0);
    return {iseq_h_.data(), iseq_e_.data()};
  }

  /// 16-bit banded-screen per-column database profile: (alphabet size) x
  /// (lane count) int16 scores rebuilt for every database column. Contents
  /// are NOT zeroed — the kernel overwrites every slot before reading.
  std::int16_t* interseq_dprofile(std::size_t n) {
    if (dprofile_.size() < n) dprofile_.resize(n);
    return dprofile_.data();
  }

  /// 16-bit banded-screen substitution rows (one extra padding column per
  /// row), built once per call. Contents are NOT zeroed.
  std::int16_t* interseq_ext_rows(std::size_t n) {
    if (ext_rows_.size() < n) ext_rows_.resize(n);
    return ext_rows_.data();
  }

  /// Reusable lane-batch order buffer — keeps the interseq refill path
  /// heap-free when the caller's batch is already length-sorted (the
  /// sorting engines' chunks).
  AlignedVector<std::uint32_t>& interseq_order() { return iseq_order_; }

  /// Banded-screen byte-tier state: H and E columns (zeroed), `n` elements
  /// each. Separate from the interseq buffers so the 16-bit escalation pass
  /// (which reuses them) never aliases the byte tier's.
  struct BandedStateU8 {
    std::uint8_t* h;
    std::uint8_t* e;
  };

  BandedStateU8 banded_state_u8(std::size_t n) {
    b8_h_.assign(n, 0);
    b8_e_.assign(n, 0);
    return {b8_h_.data(), b8_e_.data()};
  }

  /// Byte-tier per-column database profile for the banded screen. Contents
  /// are NOT zeroed — the kernel overwrites every slot before reading.
  std::uint8_t* banded_dprofile_u8(std::size_t n) {
    if (b8_dprofile_.size() < n) b8_dprofile_.resize(n);
    return b8_dprofile_.data();
  }

  /// Byte-tier extended substitution rows (biased, one padding column per
  /// row), built once per banded-screen call. Contents are NOT zeroed.
  std::uint8_t* banded_ext_rows_u8(std::size_t n) {
    if (b8_ext_rows_.size() < n) b8_ext_rows_.resize(n);
    return b8_ext_rows_.data();
  }

  /// Longest-first order buffer for the banded screen — its own buffer so a
  /// screen inside an interseq-driven search never clobbers interseq_order.
  AlignedVector<std::uint32_t>& banded_order() { return banded_order_; }

 private:
  // 64-byte-aligned so wide vector loads at lane-multiple offsets never
  // straddle cache lines (util/aligned.h).
  AlignedVector<std::uint8_t> h8_load_, h8_store_, e8_;
  std::vector<std::int16_t> iseq_workspace_;
  AlignedVector<std::int16_t> iseq_h_, iseq_e_;
  AlignedVector<std::int16_t> dprofile_, ext_rows_;
  AlignedVector<std::uint32_t> iseq_order_;
  AlignedVector<std::uint8_t> b8_h_, b8_e_, b8_dprofile_, b8_ext_rows_;
  AlignedVector<std::uint32_t> banded_order_;
};

/// The calling thread's workspace (thread-local, created on first use).
AlignScratch& thread_scratch();

}  // namespace swdual::align
