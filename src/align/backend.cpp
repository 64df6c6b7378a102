#include "align/backend.h"

#include <cstdlib>

#include "align/kernel_dispatch.h"
#include "util/error.h"

namespace swdual::align {

namespace {

/// Host CPU support for a backend's instruction set (independent of what
/// this binary was compiled with).
bool cpu_supports(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSSE2:
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("sse2") != 0;
#else
      return false;
#endif
    case Backend::kAVX2:
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::kAVX512:
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#else
      return false;
#endif
    case Backend::kAuto:
      return false;
  }
  return false;
}

const KernelTable* table_for(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return detail::scalar_kernel_table();
    case Backend::kSSE2: return detail::sse2_kernel_table();
    case Backend::kAVX2: return detail::avx2_kernel_table();
    case Backend::kAVX512: return detail::avx512_kernel_table();
    case Backend::kAuto: return nullptr;
  }
  return nullptr;
}

/// The backend named by SWDUAL_FORCE_BACKEND, or kAuto when the variable is
/// unset/empty. Throws on unknown names and unavailable backends. Read per
/// call, so tests and long-lived services can re-point it.
Backend forced_backend() {
  // Read-only env access: the tree never setenv()s, so concurrent getenv
  // calls cannot race a mutation (concurrency-mt-unsafe's hazard).
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* forced = std::getenv("SWDUAL_FORCE_BACKEND");
  if (forced == nullptr || *forced == '\0') return Backend::kAuto;
  Backend backend = Backend::kAuto;
  if (!parse_backend(forced, backend)) {
    throw InvalidArgument(std::string("SWDUAL_FORCE_BACKEND names an "
                                      "unknown backend: ") +
                          forced);
  }
  if (backend == Backend::kAuto) return Backend::kAuto;
  if (!backend_available(backend)) {
    throw InvalidArgument(
        std::string("SWDUAL_FORCE_BACKEND=") + forced +
        " is not available on this host (compiled: " +
        (backend_compiled(backend) ? "yes" : "no") + ")");
  }
  return backend;
}

/// Widest available backend (no force, no per-kernel gate).
Backend widest_auto_backend() {
  Backend best = Backend::kScalar;
  for (Backend backend :
       {Backend::kSSE2, Backend::kAVX2, Backend::kAVX512}) {
    if (backend_available(backend)) best = backend;
  }
  return best;
}

}  // namespace

const char* kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar: return "scalar";
    case KernelKind::kStriped8: return "striped8";
  }
  return "unknown";
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kAuto: return "auto";
    case Backend::kScalar: return "scalar";
    case Backend::kSSE2: return "sse2";
    case Backend::kAVX2: return "avx2";
    case Backend::kAVX512: return "avx512";
  }
  return "unknown";
}

bool parse_backend(const std::string& name, Backend& out) {
  if (name == "auto") { out = Backend::kAuto; return true; }
  if (name == "scalar") { out = Backend::kScalar; return true; }
  if (name == "sse2") { out = Backend::kSSE2; return true; }
  if (name == "avx2") { out = Backend::kAVX2; return true; }
  if (name == "avx512") { out = Backend::kAVX512; return true; }
  return false;
}

bool backend_compiled(Backend backend) {
  return table_for(backend) != nullptr;
}

bool backend_available(Backend backend) {
  return backend_compiled(backend) && cpu_supports(backend);
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend backend : {Backend::kScalar, Backend::kSSE2, Backend::kAVX2,
                          Backend::kAVX512}) {
    if (backend_available(backend)) out.push_back(backend);
  }
  return out;
}

Backend best_backend() {
  // The environment override is consulted on every call (it is only read
  // at dispatch-table granularity — once per search, not per record) so
  // test harnesses and the CI forced-backend jobs can re-point it.
  if (const Backend forced = forced_backend(); forced != Backend::kAuto) {
    return forced;
  }
  return widest_auto_backend();
}

Backend best_backend(KernelKind kernel) {
  if (const Backend forced = forced_backend(); forced != Backend::kAuto) {
    return forced;  // an explicit request always wins over the gate
  }
  Backend best = widest_auto_backend();
  if (kernel == KernelKind::kStriped8 && best == Backend::kAVX512 &&
      backend_available(Backend::kAVX2)) {
    // Measured on the recorded bench host: striped8 runs 11.6 GCUPS on
    // avx512 vs 13.5 on avx2 (DESIGN.md "AVX-512 striped8 regression").
    // The cap holds for the whole exact scan: the 16-bit tier that
    // rescores its saturated records runs on the same kernel table, at
    // AVX2's 16 lanes. The banded screen asks best_backend() and keeps the
    // full width.
    best = Backend::kAVX2;
  }
  return best;
}

Backend resolve_backend(Backend backend) {
  if (backend == Backend::kAuto) return best_backend();
  if (!backend_available(backend)) {
    throw InvalidArgument(std::string("SIMD backend not available on this "
                                      "host: ") +
                          backend_name(backend));
  }
  return backend;
}

Backend resolve_backend(Backend backend, KernelKind kernel) {
  if (backend == Backend::kAuto) return best_backend(kernel);
  return resolve_backend(backend);
}

std::size_t backend_lanes8(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
    case Backend::kSSE2: return 16;
    case Backend::kAVX2: return 32;
    case Backend::kAVX512: return 64;
    case Backend::kAuto: return backend_lanes8(best_backend());
  }
  return 16;
}

std::size_t backend_lanes16(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
    case Backend::kSSE2: return 8;
    case Backend::kAVX2: return 16;
    case Backend::kAVX512: return 32;
    case Backend::kAuto: return backend_lanes16(best_backend());
  }
  return 8;
}

const KernelTable& kernel_table(Backend backend) {
  const KernelTable* table = table_for(resolve_backend(backend));
  SWDUAL_REQUIRE(table != nullptr, "kernel table missing for backend");
  return *table;
}

}  // namespace swdual::align
