#include "align/profile_cache.h"

#include "util/crc32.h"

namespace swdual::align {

std::string scoring_key(const ScoringScheme& scheme) {
  const ScoreMatrix& matrix = *scheme.matrix;
  Crc32 crc;
  for (std::uint8_t a = 0; a < matrix.size(); ++a) {
    crc.update(matrix.row(a), matrix.size());
  }
  return matrix.name() + '/' + std::to_string(matrix.size()) + '/' +
         std::to_string(crc.value()) + "/o" +
         std::to_string(scheme.gap.open) + "e" +
         std::to_string(scheme.gap.extend);
}

namespace {

std::string make_key(std::span<const std::uint8_t> query,
                     const ScoringScheme& scheme, KernelKind kernel,
                     Backend exact, Backend screen) {
  std::string key;
  key.reserve(query.size() + 64);
  key += kernel_name(kernel);
  key += '/';
  key += backend_name(exact);
  key += '+';
  key += backend_name(screen);
  key += '/';
  key += scoring_key(scheme);
  key += '/';
  key.append(reinterpret_cast<const char*>(query.data()), query.size());
  return key;
}

}  // namespace

std::shared_ptr<const SearchProfiles> ProfileCache::acquire(
    std::span<const std::uint8_t> query, const ScoringScheme& scheme,
    KernelKind kernel, Backend backend) {
  // The key names the backends the built profiles run: the exact
  // kernel's and the screen's (SearchProfiles resolves them the same way).
  const std::string key =
      make_key(query, scheme, kernel, resolve_backend(backend, kernel),
               resolve_backend(backend));
  return LruCache::acquire(key, [&] {
    return std::make_shared<const SearchProfiles>(query, scheme, kernel,
                                                  backend);
  });
}

}  // namespace swdual::align
