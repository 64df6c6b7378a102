// Fuzz harness for the SWDB container parser (MappedSwdb).
//
// The parser promises exactly one failure mode for hostile bytes: a thrown
// swdual::Error (IoError for structural problems, InvalidArgument for bad
// parameters). Anything else — a crash, an ASan/UBSan report, an unexpected
// exception type — is a finding. On a successful open the harness walks the
// whole surface (lengths, every record's residues, id and description) so
// an index that validates but points outside the file is caught too.
//
// Two build modes, one source file:
//   - SWDUAL_HAVE_LIBFUZZER (fuzz preset: clang + -fsanitize=fuzzer):
//     exports LLVMFuzzerTestOneInput for open-ended fuzzing.
//   - standalone (every other build, incl. GCC): a driver main() with
//     --make-seeds <dir>  empty <dir>, then write the seed corpus (valid
//                         files, a version-1 and a version-2 header, edge
//                         cases)
//     --smoke <dir>       check that both old headers are rejected, then
//                         replay the corpus plus bounded deterministic
//                         mutations (truncations, byte flips) — the ctest
//                         `fuzz` label runs this everywhere, so the corpus
//                         never rots and the parser contract is exercised
//                         even on hosts without libFuzzer.
//
// The input arrives as a byte buffer but the parser takes a path, so each
// iteration round-trips through one reused temp file.
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "seq/alphabet.h"
#include "seq/sequence.h"
#include "seq/swdb.h"
#include "util/error.h"

namespace {

namespace fs = std::filesystem;

/// One temp path per process, reused every iteration (fuzzers are
/// single-threaded; recreating the file is the per-iteration cost anyway).
const std::string& scratch_path() {
  static const std::string path = [] {
    const char* tmp = std::getenv("TMPDIR");
    fs::path dir = (tmp != nullptr && *tmp != '\0') ? fs::path(tmp)
                                                    : fs::temp_directory_path();
    return (dir / ("fuzz_swdb_" + std::to_string(::getpid()) + ".swdb"))
        .string();
  }();
  return path;
}

void write_bytes(const std::string& path, const std::uint8_t* data,
                 std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

/// Walk every accessor of an open reader; the return value only exists so
/// the reads cannot be optimized away.
std::uint64_t exercise(const std::string& path) {
  std::uint64_t checksum = 0;
  const swdual::seq::MappedSwdb mapped(path);
  checksum += mapped.total_residues();
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    checksum += mapped.length(i);
    for (std::uint8_t code : mapped.residues(i)) checksum += code;
    checksum += mapped.id(i).size() + mapped.description(i).size();
  }
  return checksum;
}

int run_one(const std::uint8_t* data, std::size_t size) {
  write_bytes(scratch_path(), data, size);
  try {
    exercise(scratch_path());
  } catch (const swdual::Error&) {
    // The contract: hostile bytes are rejected with the library's own error
    // hierarchy. Any other escape path aborts below and is a finding.
  }
  return 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return run_one(data, size);
}

#ifndef SWDUAL_HAVE_LIBFUZZER

namespace {

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void dump(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  write_bytes(path.string(), bytes.data(), bytes.size());
}

/// A version-1 file (the layout without the aligned section): its 28-byte
/// header for an empty database. The reader must refuse it.
std::vector<std::uint8_t> version1_header() {
  std::vector<std::uint8_t> bytes = {'S', 'W', 'D', 'B', 1, 0, 0, 0};
  bytes.resize(28, 0);  // alphabet, padding, 0 records, index offset
  bytes[8] = static_cast<std::uint8_t>(swdual::seq::AlphabetKind::kProtein);
  bytes[20] = 28;  // the index starts right after the header
  return bytes;
}

/// A version-2 file (every residue stored twice): its 36-byte header for an
/// empty database. The reader must refuse it.
std::vector<std::uint8_t> version2_header() {
  std::vector<std::uint8_t> bytes = {'S', 'W', 'D', 'B', 2, 0, 0, 0};
  bytes.resize(36, 0);  // alphabet, padding, 0 records, two offsets
  bytes[8] = static_cast<std::uint8_t>(swdual::seq::AlphabetKind::kProtein);
  bytes[20] = 36;  // the index starts right after the header ...
  bytes[28] = 36;  // ... and so does the empty aligned section
  return bytes;
}

/// Seed corpus: structurally valid files, the two old headers, and the
/// classic parser edge cases. Everything past these is the mutator's job
/// (libFuzzer when available, the deterministic smoke otherwise).
void make_seeds(const fs::path& dir) {
  // Empty the directory first: seeds an earlier build wrote there would
  // otherwise be replayed with the current ones.
  fs::create_directories(dir);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) fs::remove(entry.path());
  }

  std::vector<swdual::seq::Sequence> records;
  records.emplace_back(swdual::seq::Sequence::from_text(
      "sp|P1", "short test record", swdual::seq::AlphabetKind::kProtein,
      "MKTAYIAKQR"));
  records.emplace_back(swdual::seq::Sequence::from_text(
      "sp|P2", "", swdual::seq::AlphabetKind::kProtein,
      "ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY"));
  records.emplace_back(swdual::seq::Sequence::from_text(
      "sp|P3", "empty record", swdual::seq::AlphabetKind::kProtein, ""));

  swdual::seq::write_swdb((dir / "valid_v3.swdb").string(), records,
                          swdual::seq::AlphabetKind::kProtein);
  swdual::seq::write_swdb((dir / "empty_db.swdb").string(), {},
                          swdual::seq::AlphabetKind::kProtein);

  dump(dir / "version1_header.swdb", version1_header());
  dump(dir / "version2_header.swdb", version2_header());
  dump(dir / "empty_file.swdb", {});
  dump(dir / "bad_magic.swdb", {'N', 'O', 'P', 'E', 1, 0, 0, 0});
  const std::vector<std::uint8_t> v3 = slurp(dir / "valid_v3.swdb");
  dump(dir / "truncated_header.swdb",
       std::vector<std::uint8_t>(v3.begin(),
                                 v3.begin() + std::min<std::size_t>(10,
                                                                    v3.size())));
  dump(dir / "truncated_half.swdb",
       std::vector<std::uint8_t>(v3.begin(), v3.begin() + v3.size() / 2));
}

/// True if opening `bytes` throws an IoError naming `version`.
bool version_rejected(const std::vector<std::uint8_t>& bytes, int version) {
  write_bytes(scratch_path(), bytes.data(), bytes.size());
  try {
    exercise(scratch_path());
  } catch (const swdual::IoError& error) {
    return std::string(error.what()).find("unsupported SWDB version " +
                                          std::to_string(version)) !=
           std::string::npos;
  }
  return false;
}

/// Bounded deterministic smoke: check that both old headers are refused,
/// then replay every corpus file verbatim, at every truncation length and
/// with every single-byte flip in the first 256 bytes (the header/index
/// region where parsing decisions live).
int smoke(const fs::path& dir) {
  if (!version_rejected(version1_header(), 1)) {
    std::cerr << "fuzz_swdb smoke: a version-1 header was not rejected\n";
    return 1;
  }
  if (!version_rejected(version2_header(), 2)) {
    std::cerr << "fuzz_swdb smoke: a version-2 header was not rejected\n";
    return 1;
  }
  std::size_t iterations = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::vector<std::uint8_t> bytes = slurp(entry.path());
    run_one(bytes.data(), bytes.size());
    ++iterations;

    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      run_one(bytes.data(), cut);
      ++iterations;
    }
    const std::size_t flip_span = std::min<std::size_t>(bytes.size(), 256);
    for (std::size_t i = 0; i < flip_span; ++i) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[i] ^= 0xFF;
      run_one(mutated.data(), mutated.size());
      ++iterations;
    }
  }
  std::cout << "fuzz_swdb smoke: version-1 and version-2 headers rejected, "
            << iterations << " inputs, no parser contract violation\n";
  return iterations == 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 3 && std::string(argv[1]) == "--make-seeds") {
      make_seeds(argv[2]);
      return 0;
    }
    if (argc == 3 && std::string(argv[1]) == "--smoke") {
      return smoke(argv[2]);
    }
    if (argc > 1) {
      // libFuzzer-style replay: each argument is one input file.
      for (int i = 1; i < argc; ++i) {
        const std::vector<std::uint8_t> bytes = slurp(argv[i]);
        run_one(bytes.data(), bytes.size());
      }
      return 0;
    }
  } catch (const std::exception& error) {
    std::cerr << "fuzz_swdb: " << error.what() << "\n";
    return 1;
  }
  std::cerr << "usage: fuzz_swdb --make-seeds <dir> | --smoke <dir> | "
               "<input>...\n";
  return 2;
}

#endif  // !SWDUAL_HAVE_LIBFUZZER
