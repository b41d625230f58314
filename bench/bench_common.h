// Shared command-line handling for the bench_* executables, so every
// bench spells --smoke (the shrunken sanitizer-CI mode) and axis
// overrides the same way instead of hand-rolling strcmp loops.
//
//   usp::bench::Args args = usp::bench::ParseArgs(argc, argv);
//   if (args.smoke) { ...shrink axes... }
//   auto lanes = args.AxisFlag("--ingest-threads", {1, 2, 4});
//
// Header-only on purpose: bench/ links against the library but is not
// part of it, and a one-file helper keeps each bench a standalone
// translation unit.

#ifndef USP_BENCH_BENCH_COMMON_H_
#define USP_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "stats/simd/dispatch.h"

namespace usp {
namespace bench {

/// Comma/space-separated positive integers ("1,2,4" -> {1, 2, 4}); any
/// non-digit separates. Zeros and empty segments are dropped.
inline std::vector<size_t> ParseAxis(const char* arg) {
  std::vector<size_t> axis;
  size_t value = 0;
  for (const char* p = arg;; ++p) {
    if (*p >= '0' && *p <= '9') {
      value = value * 10 + static_cast<size_t>(*p - '0');
    } else {
      if (value > 0) axis.push_back(value);
      value = 0;
      if (*p == '\0') break;
    }
  }
  return axis;
}

/// Parsed bench arguments. `smoke` is the one flag every bench honours;
/// bench-specific flags are looked up on demand so adding one does not
/// touch this header.
struct Args {
  bool smoke = false;
  int argc = 0;
  char** argv = nullptr;

  bool HasFlag(const char* name) const {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], name) == 0) return true;
    }
    return false;
  }

  /// Value of "--flag value"; null when absent or valueless.
  const char* FlagValue(const char* name) const {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
    }
    return nullptr;
  }

  /// "--flag 1,2,4" parsed as an axis; `fallback` when absent/empty.
  std::vector<size_t> AxisFlag(const char* name,
                               std::vector<size_t> fallback) const {
    const char* v = FlagValue(name);
    if (v == nullptr) return fallback;
    std::vector<size_t> axis = ParseAxis(v);
    return axis.empty() ? fallback : axis;
  }

  /// "--json-out path" override for the bench's JSON snapshot; the
  /// bench's conventional BENCH_*.json name when absent.
  const char* JsonOutPath(const char* default_path) const {
    const char* v = FlagValue("--json-out");
    return v != nullptr ? v : default_path;
  }
};

/// SIMD axis: "--simd off" (or "--simd scalar") forces the scalar kernel
/// tier by exporting USP_SIMD=scalar before the dispatch table latches;
/// "--simd on" / absent keeps runtime detection. Call this at the top of
/// main(), before any distribution/CF code runs, and record the returned
/// ISA name ("avx2" / "scalar") in the bench JSON so a snapshot states
/// which tier produced it.
inline const char* ApplySimdFlag(const Args& args) {
  const char* v = args.FlagValue("--simd");
  if (v != nullptr &&
      (std::strcmp(v, "off") == 0 || std::strcmp(v, "scalar") == 0)) {
    setenv("USP_SIMD", "scalar", 1);
  }
  return stats::simd::ActiveIsaName();
}

/// The build type CMake configured the bench with (bench/ targets get it
/// as a compile definition).
#ifndef USP_BUILD_TYPE
#define USP_BUILD_TYPE "unknown"
#endif

/// Writes `  "machine": {...},` — hardware threads, active SIMD tier,
/// build type and compiler — so a committed snapshot says what produced
/// it.
inline void PrintMachineJson(FILE* f) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  fprintf(f,
          "  \"machine\": {\"cores\": %u, \"isa\": \"%s\", "
          "\"build_type\": \"%s\", \"compiler\": \"%s\"},\n",
          std::thread::hardware_concurrency(), stats::simd::ActiveIsaName(),
          USP_BUILD_TYPE, compiler);
}

inline Args ParseArgs(int argc, char** argv) {
  Args args;
  args.argc = argc;
  args.argv = argv;
  args.smoke = args.HasFlag("--smoke");
  return args;
}

}  // namespace bench
}  // namespace usp

#endif  // USP_BENCH_BENCH_COMMON_H_
