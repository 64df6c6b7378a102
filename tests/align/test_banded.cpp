// Unit/property tests for the banded heuristic kernel and its traceback.
#include <gtest/gtest.h>

#include <vector>

#include "align/alignment.h"
#include "align/banded.h"
#include "align/scalar.h"
#include "align/traceback.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::align {
namespace {

std::vector<std::uint8_t> random_codes(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (auto& c : out) c = static_cast<std::uint8_t>(rng.below(20));
  return out;
}

TEST(Banded, FullWidthBandMatchesOracle) {
  ScoringScheme scheme;
  Rng rng(31);
  for (int rep = 0; rep < 10; ++rep) {
    const auto q = random_codes(rng, static_cast<std::size_t>(rng.between(5, 80)));
    const auto d = random_codes(rng, static_cast<std::size_t>(rng.between(5, 80)));
    // Band wider than the matrix == exact.
    const auto r = banded_gotoh_score(q, d, scheme, q.size() + d.size());
    EXPECT_EQ(r.score, gotoh_score(q, d, scheme).score) << "rep " << rep;
  }
}

TEST(Banded, NeverExceedsExactScore) {
  ScoringScheme scheme;
  Rng rng(32);
  for (int rep = 0; rep < 20; ++rep) {
    const auto q = random_codes(rng, 60);
    const auto d = random_codes(rng, 90);
    const int exact = gotoh_score(q, d, scheme).score;
    for (std::size_t band : {2u, 5u, 10u, 25u}) {
      EXPECT_LE(banded_gotoh_score(q, d, scheme, band).score, exact)
          << "rep " << rep << " band " << band;
    }
  }
}

TEST(Banded, FindsDiagonalHomology) {
  // Two near-identical sequences: the optimum hugs the diagonal, so even a
  // narrow band recovers the exact score.
  ScoringScheme scheme;
  Rng rng(33);
  auto q = random_codes(rng, 200);
  auto d = q;
  for (std::size_t i = 0; i < d.size(); i += 23) {
    d[i] = static_cast<std::uint8_t>(rng.below(20));  // sprinkle mutations
  }
  const int exact = gotoh_score(q, d, scheme).score;
  EXPECT_EQ(banded_gotoh_score(q, d, scheme, 8).score, exact);
}

TEST(Banded, CountsOnlyBandCells) {
  ScoringScheme scheme;
  Rng rng(34);
  const auto q = random_codes(rng, 100);
  const auto d = random_codes(rng, 100);
  const auto narrow = banded_gotoh_score(q, d, scheme, 5);
  const auto full = banded_gotoh_score(q, d, scheme, 200);
  EXPECT_LT(narrow.cells, full.cells);
  EXPECT_LE(narrow.cells, 100u * 11u);  // per row at most 2*band+1 cells
}

TEST(Banded, RejectsZeroBand) {
  ScoringScheme scheme;
  Rng rng(35);
  const auto q = random_codes(rng, 10);
  EXPECT_THROW(banded_gotoh_score(q, q, scheme, 0), InvalidArgument);
  EXPECT_THROW(banded_gotoh_align(q, q, scheme, 0), InvalidArgument);
}

TEST(Banded, EmptyInputsScoreZero) {
  ScoringScheme scheme;
  const auto r = banded_gotoh_score({}, {}, scheme, 4);
  EXPECT_EQ(r.score, 0);
  EXPECT_TRUE(r.exact) << "empty matrix is trivially covered";
  EXPECT_FALSE(r.edge_hit);
  Rng rng(36);
  const auto q = random_codes(rng, 12);
  EXPECT_EQ(banded_gotoh_score(q, {}, scheme, 4).score, 0);
  EXPECT_EQ(banded_gotoh_score({}, q, scheme, 4).score, 0);
  EXPECT_TRUE(banded_gotoh_score(q, {}, scheme, 4).exact);
  EXPECT_TRUE(banded_gotoh_score({}, q, scheme, 4).exact);
}

/// Ground-truth banded DP: full m×n matrices with an explicit in-band
/// predicate, no sliding-window state to get wrong. Out-of-band cells hold
/// H = 0 and E = F = −inf, exactly the semantics banded.cpp documents.
BandedResult reference_banded(std::span<const std::uint8_t> q,
                              std::span<const std::uint8_t> d,
                              const ScoringScheme& scheme, std::size_t band) {
  const std::size_t m = q.size();
  const std::size_t n = d.size();
  BandedResult out;
  out.exact = banded_covers_all(m, n, band);
  if (m == 0 || n == 0) return out;
  const ScoreMatrix& matrix = *scheme.matrix;
  const int gs = scheme.gap.open;
  const int ge = scheme.gap.extend;
  constexpr int kNegInf = -(1 << 28);
  const auto in_band = [&](std::size_t i, std::size_t j) {
    const std::size_t c = i * n / m;
    return j + band >= c && j <= c + band;
  };
  std::vector<std::vector<int>> H(m + 1, std::vector<int>(n + 1, 0));
  std::vector<std::vector<int>> E(m + 1, std::vector<int>(n + 1, kNegInf));
  std::vector<std::vector<int>> F(m + 1, std::vector<int>(n + 1, kNegInf));
  int edge_best = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    const std::size_t c = i * n / m;
    for (std::size_t j = 1; j <= n; ++j) {
      if (!in_band(i, j)) continue;
      out.cells++;
      E[i][j] = std::max(E[i][j - 1] - ge, H[i][j - 1] - gs - ge);
      F[i][j] = std::max(F[i - 1][j] - ge, H[i - 1][j] - gs - ge);
      const int s = matrix.row(q[i - 1])[d[j - 1]];
      const int h = std::max({H[i - 1][j - 1] + s, E[i][j], F[i][j], 0});
      H[i][j] = h;
      if (h > out.score) {
        out.score = h;
        out.end_query = i;
        out.end_db = j;
      }
      const bool left_edge = c > band && j == c - band && j >= 2;
      const bool right_edge = j == c + band && j <= n - 1;
      if ((left_edge || right_edge) && h > edge_best) edge_best = h;
    }
  }
  out.edge_hit = out.score > 0 && edge_best == out.score;
  return out;
}

TEST(Banded, ExtremeGeometriesMatchReference) {
  // Satellite hardening battery: very ragged length ratios slide the window
  // by many columns per row (the former double-slope center and the old
  // one-cell stale invalidation both broke here), band ≥ n degenerates to
  // full-width, and m ≫ n parks the center at the right edge for most rows.
  // The traceback runs on the same geometry: it must reach the reference's
  // score along a path whose CIGAR re-derives it (the empty alignment for
  // empty inputs), and at a covering band that score is the exact optimum.
  ScoringScheme scheme;
  Rng rng(0x9e0);
  const std::size_t dims[][2] = {{1, 1},    {1, 500},  {500, 1},  {3, 1000},
                                 {1000, 3}, {7, 311},  {311, 7},  {64, 64},
                                 {129, 40}, {40, 129}, {2, 2},    {97, 997},
                                 {0, 0},    {0, 7},    {7, 0}};
  for (const auto& dim : dims) {
    const auto q = random_codes(rng, dim[0]);
    const auto d = random_codes(rng, dim[1]);
    for (std::size_t band : {1u, 2u, 5u, 37u, 1024u}) {
      const auto got = banded_gotoh_score(q, d, scheme, band);
      const auto want = reference_banded(q, d, scheme, band);
      ASSERT_EQ(got.score, want.score)
          << dim[0] << "x" << dim[1] << " band " << band;
      ASSERT_EQ(got.cells, want.cells)
          << dim[0] << "x" << dim[1] << " band " << band;
      ASSERT_EQ(got.edge_hit, want.edge_hit)
          << dim[0] << "x" << dim[1] << " band " << band;
      ASSERT_EQ(got.exact, want.exact);

      const Alignment traced = banded_gotoh_align(q, d, scheme, band);
      ASSERT_EQ(traced.score, want.score)
          << dim[0] << "x" << dim[1] << " band " << band;
      ASSERT_EQ(cigar_score(traced.cigar(), q, d, traced.query_begin,
                            traced.db_begin, scheme),
                traced.score)
          << dim[0] << "x" << dim[1] << " band " << band << " cigar "
          << traced.cigar();
      if (traced.score == 0) {
        ASSERT_EQ(traced.cigar(), "");
        ASSERT_EQ(traced.query_begin + traced.db_end, 0u);
      }
      if (banded_covers_all(q.size(), d.size(), band)) {
        ASSERT_EQ(traced.score, gotoh_score(q, d, scheme).score)
            << dim[0] << "x" << dim[1] << " band " << band;
      }
    }
  }
}

TEST(Banded, TracebackOfZeroScorePairIsEmpty) {
  // Every residue pair scores −1, so the best local alignment is empty.
  const ScoreMatrix mismatch =
      ScoreMatrix::uniform(seq::AlphabetKind::kProtein, 1, -1);
  const ScoringScheme scheme{&mismatch, GapPenalty{}};
  const std::vector<std::uint8_t> q(40, 0);
  const std::vector<std::uint8_t> d(50, 1);
  const Alignment traced = banded_gotoh_align(q, d, scheme, 8);
  EXPECT_EQ(traced.score, 0);
  EXPECT_EQ(banded_gotoh_score(q, d, scheme, 8).score, 0);
  EXPECT_EQ(traced.cigar(), "");
  EXPECT_EQ(traced.query_begin, 0u);
  EXPECT_EQ(traced.db_begin, 0u);
}

TEST(Banded, CoveringTracebackIsSwAlignAffine) {
  // banded_gotoh_align breaks ties as sw_align_affine does, so a band that
  // covers the matrix yields the full-matrix traceback's very alignment.
  ScoringScheme scheme;
  Rng rng(0x7bac);
  for (int rep = 0; rep < 20; ++rep) {
    const auto q = random_codes(rng, static_cast<std::size_t>(rng.between(1, 90)));
    auto d = random_codes(rng, static_cast<std::size_t>(rng.between(1, 90)));
    if (rep % 2 == 0) {
      // A gapped homolog, so the alignments have runs of both gap kinds.
      d = q;
      for (std::size_t p = 0; p < d.size(); p += 7) {
        d[p] = static_cast<std::uint8_t>(rng.below(20));
      }
      if (d.size() > 30) d.erase(d.begin() + 10, d.begin() + 14);
      const auto extra = random_codes(rng, 3);
      d.insert(d.begin() + static_cast<std::ptrdiff_t>(d.size() / 2),
               extra.begin(), extra.end());
    }
    const Alignment want = sw_align_affine(q, d, scheme);
    const Alignment got = banded_gotoh_align(q, d, scheme, q.size() + d.size());
    EXPECT_EQ(got.score, want.score) << "rep " << rep;
    EXPECT_EQ(got.aligned_query, want.aligned_query) << "rep " << rep;
    EXPECT_EQ(got.aligned_db, want.aligned_db) << "rep " << rep;
    EXPECT_EQ(got.query_begin, want.query_begin) << "rep " << rep;
    EXPECT_EQ(got.query_end, want.query_end) << "rep " << rep;
    EXPECT_EQ(got.db_begin, want.db_begin) << "rep " << rep;
    EXPECT_EQ(got.db_end, want.db_end) << "rep " << rep;
  }
}

TEST(Banded, ExactCertificateIsSound) {
  // Whenever `exact` is set the banded score must equal the full Gotoh
  // oracle — across shapes chosen so covers-all flips both ways.
  ScoringScheme scheme;
  Rng rng(0xce57);
  for (int rep = 0; rep < 40; ++rep) {
    const auto q = random_codes(rng, static_cast<std::size_t>(rng.between(1, 60)));
    const auto d = random_codes(rng, static_cast<std::size_t>(rng.between(1, 60)));
    for (std::size_t band : {1u, 4u, 16u, 64u, 128u}) {
      const auto r = banded_gotoh_score(q, d, scheme, band);
      if (r.exact) {
        EXPECT_EQ(r.score, gotoh_score(q, d, scheme).score)
            << q.size() << "x" << d.size() << " band " << band;
        EXPECT_FALSE(r.edge_hit)
            << "a covering band has no genuine boundary cells";
      }
    }
  }
}

TEST(Banded, CoversAllMatchesCellCount) {
  // covers_all must agree with the DP itself: true iff the banded scan
  // touches every one of the m·n cells.
  ScoringScheme scheme;
  Rng rng(0xca11);
  for (int rep = 0; rep < 30; ++rep) {
    const std::size_t m = static_cast<std::size_t>(rng.between(1, 40));
    const std::size_t n = static_cast<std::size_t>(rng.between(1, 40));
    const auto q = random_codes(rng, m);
    const auto d = random_codes(rng, n);
    for (std::size_t band : {1u, 3u, 10u, 50u}) {
      const auto r = banded_gotoh_score(q, d, scheme, band);
      EXPECT_EQ(banded_covers_all(m, n, band), r.cells == m * n)
          << m << "x" << n << " band " << band;
    }
  }
}

TEST(Banded, EdgeHitFlagsNarrowBandOnClippedHomology) {
  // A W-polymer block in the top-left corner of a 100×200 matrix: with n =
  // 2m the band's center line moves two columns per row, so any match
  // diagonal through the block keeps drifting towards the left band edge
  // and the best clipped path provably ends ON the boundary — the
  // uncertainty flag must fire. A generous band recovers the exact score
  // and clears it.
  ScoringScheme scheme;
  Rng rng(0xed9e);
  std::vector<std::uint8_t> q(40, 17);  // 'W' scores 11 vs itself
  auto q_tail = random_codes(rng, 60);
  q.insert(q.end(), q_tail.begin(), q_tail.end());
  std::vector<std::uint8_t> d(40, 17);
  auto d_tail = random_codes(rng, 160);
  d.insert(d.end(), d_tail.begin(), d_tail.end());
  const auto narrow = banded_gotoh_score(q, d, scheme, 4);
  const auto wide = banded_gotoh_score(q, d, scheme, 400);
  EXPECT_LT(narrow.score, wide.score);
  EXPECT_TRUE(narrow.edge_hit) << "clipped optimum must look uncertain";
  EXPECT_EQ(wide.score, gotoh_score(q, d, scheme).score);
}

}  // namespace
}  // namespace swdual::align
