#include "align/banded.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "seq/alphabet.h"
#include "util/error.h"

namespace swdual::align {

bool banded_covers_all(std::size_t m, std::size_t n, std::size_t band) {
  if (m == 0 || n == 0) return true;
  // Column 1 at row m (center n): need n − band ≤ 1. Column n at row 1
  // (center ⌊n/m⌋): need ⌊n/m⌋ + band ≥ n. Integer arithmetic only — the
  // certificate must be trustworthy at ragged length ratios.
  return band >= n - 1 && band + n / m >= n;
}

namespace {

constexpr int kNegInf = -(1 << 28);

// A cell's direction byte. The low two bits say how its H arose (0: H is 0,
// so a local path through it starts after it); the next two whether its E
// and F opened a gap rather than extended one.
constexpr std::uint8_t kHFromDiag = 1;
constexpr std::uint8_t kHFromE = 2;
constexpr std::uint8_t kHFromF = 3;
constexpr std::uint8_t kHSource = 3;
constexpr std::uint8_t kEOpened = 4;
constexpr std::uint8_t kFOpened = 8;

/// Row i's band: center ⌊i·n/m⌋ and in-band columns [lo, hi] (1-based).
struct BandRow {
  std::size_t center = 0, lo = 0, hi = 0;
};

BandRow band_row(std::size_t i, std::size_t m, std::size_t n,
                 std::size_t band) {
  // Integer center: the products fit comfortably in 64 bits for any
  // realistic sequence length, and unlike a double-based slope they cannot
  // drift off the true center line at ragged m:n ratios.
  const std::size_t center = i * n / m;
  return {center, center > band ? center - band : 1,
          std::min(n, center + band)};
}

/// One banded Gotoh pass over non-empty sequences. With kTrace it stores
/// each in-band cell's direction byte at dirs[(i − 1)·stride + (j − lo)]
/// instead of tracking edge_hit, which a traceback does not use.
template <bool kTrace>
BandedResult banded_pass(std::span<const std::uint8_t> query,
                         std::span<const std::uint8_t> db,
                         const ScoringScheme& scheme, std::size_t band,
                         std::uint8_t* dirs, std::size_t stride) {
  const ScoreMatrix& matrix = *scheme.matrix;
  const int gs = scheme.gap.open;
  const int ge = scheme.gap.extend;
  const std::size_t m = query.size();
  const std::size_t n = db.size();

  BandedResult result;
  // Full-width rows, but only band columns are touched per row. Cells never
  // written stay at their unreachable defaults.
  std::vector<int> h_row(n + 1, 0);
  std::vector<int> f_row(n + 1, kNegInf);

  int edge_best = 0;
  std::size_t prev_hi = 0;  // previous row's window end (0 = none yet)

  for (std::size_t i = 1; i <= m; ++i) {
    const auto [center, j_lo, j_hi] = band_row(i, m, n, band);

    // Band-boundary columns whose outside neighbour exists: a best score on
    // one of these is "uncertain" (the optimum may continue out of band).
    // A boundary at column 1 or n touches the matrix edge, not the band's.
    const std::size_t left_edge =
        (center > band && center - band >= 2) ? center - band : 0;
    const std::size_t right_edge =
        (center + band <= n - 1) ? center + band : 0;

    // The window slides right monotonically; when it jumps by more than one
    // column (very ragged n ≫ m ratios), the skipped columns still hold
    // values from older rows. Reset them to their out-of-band defaults
    // before reading — each column is reset at most once over the whole
    // scan, so this stays amortized O(n).
    const std::size_t stale_lo = std::max(j_lo > 1 ? j_lo - 1 : 1, prev_hi + 1);
    for (std::size_t j = stale_lo; j <= j_hi; ++j) {
      h_row[j] = 0;
      f_row[j] = kNegInf;
    }
    prev_hi = j_hi;

    const std::int8_t* scores = matrix.row(query[i - 1]);
    std::uint8_t* row_dirs = kTrace ? dirs + (i - 1) * stride : nullptr;
    // Outside-band cells behave as 0 for H (a local alignment can always
    // restart) and -inf for the gap states.
    int diag = h_row[j_lo - 1];
    int h_left = 0;
    int e = kNegInf;
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      result.cells++;
      const int f_open = h_row[j] - gs - ge;
      const int f = std::max(f_row[j] - ge, f_open);
      const int e_open = h_left - gs - ge;
      e = std::max(e - ge, e_open);
      int h = diag + scores[db[j - 1]];
      h = std::max({h, e, f, 0});
      diag = h_row[j];
      h_row[j] = h;
      f_row[j] = f;
      h_left = h;
      if (h > result.score) {
        result.score = h;
        result.end_query = i;
        result.end_db = j;
      }
      if constexpr (kTrace) {
        int from = kHFromDiag;
        if (h == f) from = kHFromF;
        if (h == e) from = kHFromE;
        if (h == 0) from = 0;
        if (e == e_open) from |= kEOpened;
        if (f == f_open) from |= kFOpened;
        row_dirs[j - j_lo] = static_cast<std::uint8_t>(from);
      } else if ((j == left_edge || j == right_edge) && h > edge_best) {
        edge_best = h;
      }
    }
    // Clear the cell just left of the window so the next row's diagonal
    // read at the same offset sees an out-of-band 0, not this row's stale
    // in-band value.
    h_row[j_lo - 1] = 0;
  }
  result.edge_hit = result.score > 0 && edge_best == result.score;
  return result;
}

}  // namespace

BandedResult banded_gotoh_score(std::span<const std::uint8_t> query,
                                std::span<const std::uint8_t> db,
                                const ScoringScheme& scheme, std::size_t band) {
  SWDUAL_REQUIRE(band >= 1, "band half-width must be at least 1");
  if (query.empty() || db.empty()) {
    BandedResult result;
    result.exact = true;
    return result;
  }
  BandedResult result = banded_pass<false>(query, db, scheme, band, nullptr, 0);
  result.exact = banded_covers_all(query.size(), db.size(), band);
  return result;
}

Alignment banded_gotoh_align(std::span<const std::uint8_t> query,
                             std::span<const std::uint8_t> db,
                             const ScoringScheme& scheme, std::size_t band) {
  SWDUAL_REQUIRE(band >= 1, "band half-width must be at least 1");
  SWDUAL_REQUIRE(scheme.gap.open >= 0 && scheme.gap.extend >= 0,
                 "gap penalties are positive magnitudes");
  Alignment alignment;
  if (query.empty() || db.empty()) return alignment;
  const std::size_t m = query.size();
  const std::size_t n = db.size();
  const std::size_t stride = std::min(2 * std::min(band, n) + 1, n);
  std::vector<std::uint8_t> dirs(m * stride);
  const BandedResult best =
      banded_pass<true>(query, db, scheme, band, dirs.data(), stride);
  alignment.score = best.score;
  if (best.score == 0) return alignment;  // empty local alignment

  // Direction byte of cell (i, j), or -1 where H reads 0 from outside the
  // band or the matrix.
  const auto dir_at = [&](std::size_t i, std::size_t j) -> int {
    if (i == 0 || j == 0) return -1;
    const BandRow row = band_row(i, m, n, band);
    if (j < row.lo || j > row.hi) return -1;
    return dirs[(i - 1) * stride + (j - row.lo)];
  };
  const seq::Alphabet& alphabet = seq::Alphabet::get(scheme.matrix->alphabet());
  std::string aq, ad;
  std::size_t i = best.end_query, j = best.end_db;
  enum class State { kH, kE, kF } state = State::kH;
  while (true) {
    const int dir = dir_at(i, j);
    if (state == State::kH) {
      if (dir < 0 || (dir & kHSource) == 0) break;
      if ((dir & kHSource) == kHFromE) {
        state = State::kE;
      } else if ((dir & kHSource) == kHFromF) {
        state = State::kF;
      } else {
        aq.push_back(alphabet.decode(query[i - 1]));
        ad.push_back(alphabet.decode(db[j - 1]));
        --i;
        --j;
      }
      continue;
    }
    // A gap state holds a positive value, which only an in-band chain can
    // produce: out-of-band cells give a gap nothing to open or extend.
    SWDUAL_CHECK(dir >= 0, "banded traceback left the band inside a gap");
    if (state == State::kE) {
      aq.push_back('-');
      ad.push_back(alphabet.decode(db[j - 1]));
      --j;
      if ((dir & kEOpened) != 0) state = State::kH;
    } else {
      aq.push_back(alphabet.decode(query[i - 1]));
      ad.push_back('-');
      --i;
      if ((dir & kFOpened) != 0) state = State::kH;
    }
  }
  std::reverse(aq.begin(), aq.end());
  std::reverse(ad.begin(), ad.end());
  alignment.aligned_query = std::move(aq);
  alignment.aligned_db = std::move(ad);
  alignment.query_begin = i + 1;
  alignment.query_end = best.end_query;
  alignment.db_begin = j + 1;
  alignment.db_end = best.end_db;
  return alignment;
}

}  // namespace swdual::align
