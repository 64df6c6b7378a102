// Runtime-dispatched SIMD backends for the alignment kernels.
//
// The kernels are templated over the vector width (simd8.h / simd16.h
// document the interface contract); this header is the runtime side: an
// enum of compiled backends, CPUID-based availability checks, a
// best-backend chooser overridable with the SWDUAL_FORCE_BACKEND
// environment variable (scalar | sse2 | avx2 | avx512), and a per-backend
// table of kernel entry points that the search drivers call through.
//
// Every backend computes bit-identical scores and identical overflow
// (8→16-bit escalation) decisions — the striped layout depends on the lane
// count, but each DP cell's value does not, and the overflow guard bands
// are functions of cell values only (DESIGN.md "SIMD backends & dispatch"
// has the full argument). Backends therefore differ *only* in speed. (The
// one backend-dependent value, the byte kernel's score on a pair it flags
// as saturated, is a lower bound that no caller reads.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "align/kernel_banded.h"
#include "align/kernel_interseq.h"
#include "align/kernel_striped8.h"
#include "align/profile.h"
#include "align/scoring.h"

namespace swdual::align {

/// Kernel selection for one database search. Lives here (not search.h)
/// because backend selection is kernel-aware: the best SIMD tier differs
/// per kernel (see best_backend(KernelKind)).
enum class KernelKind {
  kScalar,    ///< 32-bit Gotoh oracle (reference, no SIMD)
  kStriped8,  ///< Farrar striped SIMD, 8-bit tier; saturated pairs are
              ///< rescored by the 16-bit inter-sequence kernel (SWIPE
              ///< class, KernelTable::interseq), then at 32 bits
};

/// Printable kernel name.
const char* kernel_name(KernelKind kind);

/// SIMD instruction-set tier used by the SIMD kernels.
enum class Backend {
  kAuto,    ///< resolve to best_backend() at use
  kScalar,  ///< width-generic scalar emulation (16×u8 / 8×i16 geometry)
  kSSE2,    ///< 128-bit: 16×u8 / 8×i16 lanes
  kAVX2,    ///< 256-bit: 32×u8 / 16×i16 lanes
  kAVX512,  ///< 512-bit (AVX-512BW): 64×u8 / 32×i16 lanes
};

/// Printable backend name ("auto", "scalar", "sse2", "avx2", "avx512").
const char* backend_name(Backend backend);

/// Parse a backend name (as printed by backend_name). Returns false and
/// leaves `out` untouched on unknown names.
bool parse_backend(const std::string& name, Backend& out);

/// True if this binary contains code for `backend` (compile-time property;
/// e.g. AVX2 requires the build to have compiled kernel_backend_avx2.cpp
/// with AVX2 enabled). kScalar is always compiled; kAuto is never.
bool backend_compiled(Backend backend);

/// True if `backend` is compiled in *and* the host CPU can execute it.
bool backend_available(Backend backend);

/// All available backends, narrowest first (always contains kScalar).
std::vector<Backend> available_backends();

/// The widest available backend — unless the SWDUAL_FORCE_BACKEND
/// environment variable names one, in which case that backend is returned
/// (InvalidArgument if it is unknown or unavailable on this host). That
/// variable is the one override of CPUID dispatch; it is consulted on every
/// call so tests can re-point it.
Backend best_backend();

/// Kernel-aware auto selection: like best_backend(), but applies measured
/// per-kernel gates. Currently one gate exists: kStriped8 auto-selection
/// caps at kAVX2 because the byte kernel measurably regresses at 512 bits
/// on current hardware (lazy-F fixups over a too-short striped segment plus
/// 512-bit license downclocking — DESIGN.md "AVX-512 striped8 regression"
/// has the numbers). The cap covers the whole exact scan, the byte tier
/// and the 16-bit tier it calls through the same kernel table; the banded
/// screen is not gated (SearchProfiles::screen_backend). A forced backend
/// always wins: the gate only shapes *automatic* choice, never an explicit
/// request.
Backend best_backend(KernelKind kernel);

/// kAuto → best_backend(); anything else is validated as available
/// (InvalidArgument otherwise) and returned unchanged.
Backend resolve_backend(Backend backend);

/// kAuto → best_backend(kernel); explicit backends validate as above.
Backend resolve_backend(Backend backend, KernelKind kernel);

/// Byte-kernel lane count of a resolved backend (16 / 16 / 32 / 64).
std::size_t backend_lanes8(Backend backend);

/// 16-bit-kernel lane count of a resolved backend (8 / 8 / 16 / 32).
std::size_t backend_lanes16(Backend backend);

/// Kernel entry points of one backend. Profiles passed to the striped8
/// kernel must have been built with the backend's byte lane count.
struct KernelTable {
  StripedResult (*striped8)(const StripedProfileU8& profile,
                            std::span<const std::uint8_t> db,
                            const GapPenalty& gap);
  /// The striped8 scan's 16-bit tier (search_range).
  InterSeqResult (*interseq)(std::span<const std::uint8_t> query,
                             const SequenceViews& db,
                             const ScoringScheme& scheme);
  /// The filter's banded screen (screen_range).
  BandedBatchResult (*banded)(std::span<const std::uint8_t> query,
                              const SequenceViews& db,
                              const ScoringScheme& scheme, std::size_t band);
};

/// The kernel table of a *resolved*, available backend.
const KernelTable& kernel_table(Backend backend);

}  // namespace swdual::align
