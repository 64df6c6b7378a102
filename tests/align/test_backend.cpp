// Units for the runtime SIMD backend layer: names, parsing, lane counts,
// availability invariants, the SWDUAL_FORCE_BACKEND override, the
// per-backend kernel tables and the profiles' screen-backend rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "align/backend.h"
#include "align/search.h"
#include "util/error.h"

namespace swdual::align {
namespace {

/// Saves SWDUAL_FORCE_BACKEND on construction and restores it on
/// destruction, so tests can freely re-point the override.
class ScopedForceBackend {
 public:
  ScopedForceBackend() {
    if (const char* old = std::getenv(kName)) saved_ = old;
  }
  ~ScopedForceBackend() {
    if (saved_.empty()) {
      ::unsetenv(kName);
    } else {
      ::setenv(kName, saved_.c_str(), 1);
    }
  }
  void set(const std::string& value) { ::setenv(kName, value.c_str(), 1); }
  void clear() { ::unsetenv(kName); }

 private:
  static constexpr const char* kName = "SWDUAL_FORCE_BACKEND";
  std::string saved_;
};

TEST(Backend, NamesRoundTripThroughParse) {
  for (Backend b : {Backend::kAuto, Backend::kScalar, Backend::kSSE2,
                    Backend::kAVX2, Backend::kAVX512}) {
    Backend parsed = Backend::kAuto;
    ASSERT_TRUE(parse_backend(backend_name(b), parsed)) << backend_name(b);
    EXPECT_EQ(parsed, b);
  }
}

TEST(Backend, ParseRejectsUnknownNamesUntouched) {
  Backend out = Backend::kSSE2;
  EXPECT_FALSE(parse_backend("", out));
  EXPECT_FALSE(parse_backend("AVX2", out));  // case-sensitive, like the CLI
  EXPECT_FALSE(parse_backend("neon", out));
  EXPECT_EQ(out, Backend::kSSE2);
}

TEST(Backend, LaneCountsMatchVectorWidths) {
  EXPECT_EQ(backend_lanes8(Backend::kScalar), 16u);
  EXPECT_EQ(backend_lanes8(Backend::kSSE2), 16u);
  EXPECT_EQ(backend_lanes8(Backend::kAVX2), 32u);
  EXPECT_EQ(backend_lanes8(Backend::kAVX512), 64u);
  EXPECT_EQ(backend_lanes16(Backend::kScalar), 8u);
  EXPECT_EQ(backend_lanes16(Backend::kSSE2), 8u);
  EXPECT_EQ(backend_lanes16(Backend::kAVX2), 16u);
  EXPECT_EQ(backend_lanes16(Backend::kAVX512), 32u);
  // The u8 tier always packs twice as many lanes as the i16 tier.
  for (Backend b : available_backends()) {
    EXPECT_EQ(backend_lanes8(b), 2 * backend_lanes16(b)) << backend_name(b);
  }
}

TEST(Backend, ScalarIsAlwaysCompiledAndAvailable) {
  EXPECT_TRUE(backend_compiled(Backend::kScalar));
  EXPECT_TRUE(backend_available(Backend::kScalar));
  EXPECT_FALSE(backend_compiled(Backend::kAuto));
}

TEST(Backend, AvailableImpliesCompiled) {
  for (Backend b : {Backend::kScalar, Backend::kSSE2, Backend::kAVX2,
                    Backend::kAVX512}) {
    if (backend_available(b)) {
      EXPECT_TRUE(backend_compiled(b)) << backend_name(b);
    }
  }
}

TEST(Backend, AvailableBackendsIsNarrowestFirstAndContainsScalar) {
  const std::vector<Backend> avail = available_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), Backend::kScalar);
  for (std::size_t i = 1; i < avail.size(); ++i) {
    EXPECT_LE(backend_lanes8(avail[i - 1]), backend_lanes8(avail[i]));
  }
}

TEST(Backend, BestBackendIsTheWidestAvailable) {
  ScopedForceBackend env;
  env.clear();
  const std::vector<Backend> avail = available_backends();
  EXPECT_EQ(best_backend(), avail.back());
}

TEST(Backend, KernelAwareBestGatesStriped8OffAvx512) {
  ScopedForceBackend env;
  env.clear();
  if (best_backend() != Backend::kAVX512) {
    GTEST_SKIP() << "widest backend is not avx512; the gate is invisible";
  }
  // The striped8 kernel measured slower on 512-bit vectors (see DESIGN.md,
  // "AVX-512 striped8 regression"), so auto selection steps it down to
  // AVX2 while the 16-bit kernels keep the full width.
  ASSERT_TRUE(backend_available(Backend::kAVX2));
  EXPECT_EQ(best_backend(KernelKind::kStriped8), Backend::kAVX2);
  EXPECT_EQ(best_backend(KernelKind::kStriped), Backend::kAVX512);
  EXPECT_EQ(best_backend(KernelKind::kInterSeq), Backend::kAVX512);
  EXPECT_EQ(resolve_backend(Backend::kAuto, KernelKind::kStriped8),
            Backend::kAVX2);
}

TEST(Backend, ForcedBackendOverridesKernelGate) {
  if (!backend_available(Backend::kAVX512)) {
    GTEST_SKIP() << "avx512 not available on this host";
  }
  ScopedForceBackend env;
  env.set("avx512");
  EXPECT_EQ(best_backend(KernelKind::kStriped8), Backend::kAVX512);
}

TEST(Backend, ScreenRunsOnTheWidestBackendUnlessOneIsNamed) {
  // The banded screen has no per-kernel gate: auto profiles screen on
  // best_backend() whatever backend their exact kernel resolved to (AVX2
  // for striped8 on AVX-512 hosts), the environment override still names
  // both, and an explicit backend pins both even against the override.
  ScopedForceBackend env;
  env.clear();
  const std::vector<std::uint8_t> query = {1, 5, 9, 13, 17, 2, 6};
  const ScoringScheme scheme;
  for (const KernelKind kernel :
       {KernelKind::kScalar, KernelKind::kStriped, KernelKind::kStriped8,
        KernelKind::kInterSeq}) {
    const SearchProfiles profiles(query, scheme, kernel);
    EXPECT_EQ(profiles.backend(), best_backend(kernel)) << kernel_name(kernel);
    EXPECT_EQ(profiles.screen_backend(), best_backend())
        << kernel_name(kernel);
    EXPECT_EQ(&profiles.screen_table(), &kernel_table(best_backend()))
        << kernel_name(kernel);
  }
  const Backend narrowest = available_backends().front();
  for (const Backend b : available_backends()) {
    env.set(backend_name(b));
    const SearchProfiles forced(query, scheme, KernelKind::kStriped8);
    EXPECT_EQ(forced.backend(), b) << backend_name(b);
    EXPECT_EQ(forced.screen_backend(), b) << backend_name(b);

    env.set(backend_name(narrowest));
    const SearchProfiles named(query, scheme, KernelKind::kStriped8, b);
    EXPECT_EQ(named.backend(), b) << backend_name(b);
    EXPECT_EQ(named.screen_backend(), b) << backend_name(b);
    EXPECT_EQ(&named.screen_table(), &kernel_table(b)) << backend_name(b);
    env.clear();
  }
}

TEST(Backend, ResolveWithKernelHonorsExplicitBackend) {
  ScopedForceBackend env;
  env.clear();
  for (Backend b : available_backends()) {
    EXPECT_EQ(resolve_backend(b, KernelKind::kStriped8), b) << backend_name(b);
  }
}

TEST(Backend, ForceEnvSelectsEachAvailableBackend) {
  ScopedForceBackend env;
  for (Backend b : available_backends()) {
    env.set(backend_name(b));
    EXPECT_EQ(best_backend(), b) << backend_name(b);
    // kAuto resolves through the override too.
    EXPECT_EQ(resolve_backend(Backend::kAuto), b);
  }
}

TEST(Backend, ForceEnvRejectsUnknownName) {
  ScopedForceBackend env;
  env.set("neon");
  EXPECT_THROW(best_backend(), InvalidArgument);
}

TEST(Backend, ForceEnvRejectsUnavailableBackend) {
  ScopedForceBackend env;
  bool found_unavailable = false;
  for (Backend b : {Backend::kSSE2, Backend::kAVX2, Backend::kAVX512}) {
    if (backend_available(b)) continue;
    found_unavailable = true;
    env.set(backend_name(b));
    EXPECT_THROW(best_backend(), InvalidArgument) << backend_name(b);
  }
  if (!found_unavailable) {
    GTEST_SKIP() << "every compiled backend is available on this host";
  }
}

TEST(Backend, ForceEnvAutoAndEmptyFallThroughToWidest) {
  ScopedForceBackend env;
  const std::vector<Backend> avail = available_backends();
  env.set("auto");
  EXPECT_EQ(best_backend(), avail.back());
  env.set("");
  EXPECT_EQ(best_backend(), avail.back());
}

TEST(Backend, ResolveValidatesAvailability) {
  ScopedForceBackend env;
  env.clear();
  for (Backend b : available_backends()) {
    EXPECT_EQ(resolve_backend(b), b);
  }
  for (Backend b : {Backend::kSSE2, Backend::kAVX2, Backend::kAVX512}) {
    if (!backend_available(b)) {
      EXPECT_THROW(resolve_backend(b), InvalidArgument) << backend_name(b);
    }
  }
}

TEST(Backend, KernelTableIsCompleteForEveryAvailableBackend) {
  for (Backend b : available_backends()) {
    const KernelTable& table = kernel_table(b);
    EXPECT_NE(table.striped8, nullptr) << backend_name(b);
    EXPECT_NE(table.striped, nullptr) << backend_name(b);
    EXPECT_NE(table.interseq, nullptr) << backend_name(b);
  }
}

TEST(Backend, KernelTablesAreDistinctPerBackend) {
  const std::vector<Backend> avail = available_backends();
  for (std::size_t i = 0; i < avail.size(); ++i) {
    for (std::size_t j = i + 1; j < avail.size(); ++j) {
      EXPECT_NE(&kernel_table(avail[i]), &kernel_table(avail[j]))
          << backend_name(avail[i]) << " vs " << backend_name(avail[j]);
    }
  }
}

}  // namespace
}  // namespace swdual::align
