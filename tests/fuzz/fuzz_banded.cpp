// Fuzz harness for the banded screen kernel (the filter's stage 1).
//
// The screen promises, on every backend, exactly what the scalar banded
// reference banded_gotoh_score computes (the contract is spelled out and
// checked in tests/align/screen_reference.h, which the filter tests share).
// The annotate stage's banded traceback runs on the same geometry, so each
// record's traceback at the decoded band must reach the reference's score
// along a path whose CIGAR re-derives it (cigar_score). Any difference —
// or a crash, or a sanitizer report — is a finding.
//
// The input bytes decode into one screen call: a scoring matrix (BLOSUM62,
// or a match-100 matrix that reaches the 16-bit tier's limit at small
// sizes), a band, a query, runs of equal-length records (the lane groups
// the kernel walks with one band geometry) with an optional copy of the
// query planted in each run, and a tail of mixed lengths, in the
// longest-first order the engines deliver or shuffled. Lengths cover
// n = m, n ≪ m and n ≫ m. Residues come from a generator seeded by the
// input, so short inputs still describe large screens.
//
// Two build modes, one source file:
//   - SWDUAL_HAVE_LIBFUZZER (fuzz preset: clang + -fsanitize=fuzzer):
//     exports LLVMFuzzerTestOneInput for open-ended fuzzing.
//   - standalone (every other build, incl. GCC): a main() with
//     --make-seeds <dir>  empty <dir>, then write the seed corpus (the
//                         corner inputs below)
//     --smoke             replay the corner inputs plus a bounded set of
//                         generated ones — the ctest `fuzz` label runs this
//                         everywhere, so the kernel contract is exercised
//                         even on hosts without libFuzzer.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "../align/screen_reference.h"
#include "align/alignment.h"
#include "align/backend.h"
#include "align/banded.h"
#include "align/kernel_banded.h"
#include "align/scoring.h"
#include "seq/alphabet.h"
#include "util/rng.h"

namespace {

using namespace swdual;

/// Reads the input one byte at a time; past its end every byte reads 0.
struct ByteReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t at = 0;

  std::uint8_t next() { return at < size ? data[at++] : 0; }
};

struct Screen {
  bool high_match = false;
  std::size_t band = 1;
  std::vector<std::uint8_t> query;
  std::vector<std::vector<std::uint8_t>> records;
};

/// Total residues a decoded screen may hold: bounds one input's work.
constexpr std::size_t kMaxResidues = 32000;

Screen decode(const std::uint8_t* data, std::size_t size) {
  ByteReader in{data, size};
  Screen s;
  const std::uint8_t flags = in.next();
  s.high_match = (flags & 1) != 0;
  const std::uint8_t band = in.next();
  s.band = band < 224 ? 1 + band % 40 : 128 + (band - 224) * 4u;
  std::uint64_t seed = 0;
  for (int i = 0; i < 4; ++i) seed = seed << 8 | in.next();
  Rng rng(seed);
  const std::size_t alphabet = align::ScoreMatrix::blosum62().size();
  const auto random_codes = [&](std::size_t len) {
    std::vector<std::uint8_t> out(len);
    for (auto& c : out) c = static_cast<std::uint8_t>(rng.below(alphabet));
    return out;
  };
  s.query = random_codes(1 + in.next() % 200u * 2u);  // 1 to 399
  const std::size_t m = s.query.size();

  std::size_t residues = 0;
  const std::size_t runs = in.next() % 4u;
  for (std::size_t r = 0; r < runs; ++r) {
    const std::uint8_t len = in.next();
    // A quarter of the runs at the query's length, the rest from 1 to 766.
    const std::size_t n = len < 64 ? m : 1 + (len - 64u) * 4u;
    const std::size_t count = 1 + in.next() % 140u;
    const std::uint8_t plant = in.next();
    const std::size_t first = s.records.size();
    for (std::size_t i = 0; i < count && residues + n <= kMaxResidues; ++i) {
      s.records.push_back(random_codes(n));
      residues += n;
    }
    const std::size_t added = s.records.size() - first;
    if ((plant & 1) != 0 && added > 0) {
      // The query's prefix at one position of the run: a homolog that
      // saturates the byte tier wherever its diagonal stays in the band.
      std::vector<std::uint8_t>& homolog =
          s.records[first + (plant >> 1) % added];
      std::copy_n(s.query.begin(), std::min(m, homolog.size()),
                  homolog.begin());
    }
  }
  // Longest-first runs, as the engines deliver them; then the mixed tail.
  std::stable_sort(s.records.begin(), s.records.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });
  const std::size_t tail = in.next() % 8u;
  for (std::size_t i = 0; i < tail; ++i) {
    const std::size_t n = in.next() * 2u;  // 0 (an empty record) to 510
    if (residues + n > kMaxResidues) break;
    s.records.push_back(random_codes(n));
    residues += n;
  }
  if ((flags & 2) != 0) {
    for (std::size_t i = s.records.size(); i > 1; --i) {
      std::swap(s.records[i - 1], s.records[rng.below(i)]);
    }
  }
  return s;
}

/// `where` names the backend whose screen, or the traceback, broke.
[[noreturn]] void finding(const Screen& s, const std::string& where,
                          const std::string& what) {
  std::cerr << "fuzz_banded: " << where << ": " << what
            << " (m " << s.query.size() << ", band " << s.band << ", "
            << s.records.size() << " records, "
            << (s.high_match ? "match-100" : "blosum62") << ")\n";
  std::abort();
}

/// Screens `s` on every available backend against the scalar reference,
/// then traces back every record at the screen's band.
void check(const Screen& s) {
  static const align::ScoreMatrix high_match = align::ScoreMatrix::uniform(
      seq::AlphabetKind::kProtein, 100, -20);
  const align::ScoringScheme scheme =
      s.high_match ? align::ScoringScheme{&high_match, align::GapPenalty{}}
                   : align::ScoringScheme{};
  align::SequenceViews views;
  for (const auto& r : s.records) views.emplace_back(r.data(), r.size());
  const align::ScreenReference want =
      align::screen_reference(s.query, views, scheme, s.band);
  for (const align::Backend backend : align::available_backends()) {
    const std::string mismatch = align::screen_mismatch(
        align::kernel_table(backend).banded(s.query, views, scheme, s.band),
        want);
    if (!mismatch.empty()) finding(s, align::backend_name(backend), mismatch);
  }
  for (std::size_t i = 0; i < views.size(); ++i) {
    const align::Alignment traced =
        align::banded_gotoh_align(s.query, views[i], scheme, s.band);
    const int rederived =
        align::cigar_score(traced.cigar(), s.query, views[i],
                           traced.query_begin, traced.db_begin, scheme);
    if (traced.score != want.records[i].score || rederived != traced.score) {
      finding(s, "traceback",
              "record " + std::to_string(i) + " (length " +
                  std::to_string(views[i].size()) + "): score " +
                  std::to_string(traced.score) + ", reference " +
                  std::to_string(want.records[i].score) + ", cigar " +
                  std::to_string(rederived));
    }
  }
}

int run_one(const std::uint8_t* data, std::size_t size) {
  check(decode(data, size));
  return 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return run_one(data, size);
}

#ifndef SWDUAL_HAVE_LIBFUZZER

namespace {

namespace fs = std::filesystem;

/// Corner inputs, byte for byte in decode()'s layout: flags, band, four
/// seed bytes, query length, run count, then per run (length, count,
/// plant), then the tail count and lengths.
std::vector<std::vector<std::uint8_t>> corner_inputs() {
  return {
      // n = m = 149, 131 records (2·64 + 3) with a homolog in the first
      // group, BLOSUM62 at band 16; a tail of 80, 14 and 0 residues.
      {0, 15, 1, 2, 3, 4, 74, 1, 0, 130, 1, 3, 40, 7, 0},
      // n = m = 399, 79 records, match-100: the homolog (record 1)
      // overflows 16 bits; a tail of 100 and 0 residues.
      {1, 15, 1, 2, 3, 4, 199, 1, 0, 78, 3, 2, 50, 0},
      // Band 1, match-100, m 159: a run at n 25 (n ≪ m) and one at n 765
      // (n ≫ m, most columns' windows empty), each with a homolog.
      {1, 0, 9, 9, 9, 9, 79, 2, 70, 65, 5, 255, 33, 1, 2, 5, 0},
      // Band 128, match-100, m 99: runs at n 99, 145 and 305, the band
      // wider than most records.
      {1, 224, 5, 6, 7, 8, 49, 3, 10, 64, 1, 100, 32, 0, 140, 16, 1, 0},
      // Shuffled, band 38, m 31: a one-record run at n = m, a run at
      // n 105, and a tail of an empty record and one of 400 residues.
      {2, 37, 0, 0, 0, 1, 15, 2, 20, 0, 1, 90, 17, 1, 2, 0, 200},
  };
}

void make_seeds(const fs::path& dir) {
  // Empty the directory first: seeds an earlier build wrote there would
  // otherwise be replayed with the current ones.
  fs::create_directories(dir);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) fs::remove(entry.path());
  }
  int i = 0;
  for (const auto& bytes : corner_inputs()) {
    std::ofstream out(dir / ("corner_" + std::to_string(i++)),
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
}

/// Bounded deterministic smoke: the corner inputs, then generated inputs of
/// 8 to 40 random bytes.
int smoke() {
  std::size_t iterations = 0;
  for (const auto& bytes : corner_inputs()) {
    run_one(bytes.data(), bytes.size());
    ++iterations;
  }
  Rng rng(0xfa22ed);
  for (int i = 0; i < 120; ++i) {
    std::vector<std::uint8_t> bytes(8 + rng.below(33));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    run_one(bytes.data(), bytes.size());
    ++iterations;
  }
  std::cout << "fuzz_banded smoke: " << iterations << " inputs on "
            << align::available_backends().size()
            << " backends, no kernel contract violation\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 3 && std::string(argv[1]) == "--make-seeds") {
      make_seeds(argv[2]);
      return 0;
    }
    if (argc == 2 && std::string(argv[1]) == "--smoke") return smoke();
    if (argc > 1) {
      // libFuzzer-style replay: each argument is one input file.
      for (int i = 1; i < argc; ++i) {
        std::ifstream in(argv[i], std::ios::binary);
        const std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        run_one(bytes.data(), bytes.size());
      }
      return 0;
    }
  } catch (const std::exception& error) {
    std::cerr << "fuzz_banded: " << error.what() << "\n";
    return 1;
  }
  std::cerr << "usage: fuzz_banded --make-seeds <dir> | --smoke | "
               "<input>...\n";
  return 2;
}

#endif  // !SWDUAL_HAVE_LIBFUZZER
