// perfbench: the rotind benchmark binary. perfbench/run.py builds
// it and runs it twice per workload run:
//
//   perfbench gen --workload W --seed S --seconds T --dir D [--tiny]
//       writes the seeded inputs of workload W into D (its own process, so
//       generating them never counts toward the workload's peak RSS);
//   perfbench run --workload W --seed S --seconds T --dir D [--tiny]
//                 [--trace 0|1 --trace-out FILE] [--corrupt-reference]
//       sets the system up, measures for T seconds, checks the answers and
//       prints one JSON report line.
//
// Exit codes: 0 all answers correct, 1 a wrong answer or broken trace
// invariant, 2 usage or set-up failure.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/common.h"
#include "src/simd/simd.h"

namespace perfbench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench gen|run --workload W "
               "--seed S --seconds T --dir D [--tiny] [--trace 0|1] "
               "[--trace-out FILE] [--corrupt-reference]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage("missing mode");
  Config cfg;
  cfg.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--tiny") {
      cfg.tiny = true;
    } else if (flag == "--corrupt-reference") {
      cfg.corrupt_reference = true;
    } else {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + flag).c_str());
      if (flag == "--workload") {
        cfg.workload = v;
      } else if (flag == "--seed") {
        cfg.seed = std::strtoull(v, nullptr, 10);
      } else if (flag == "--seconds") {
        cfg.seconds = std::strtod(v, nullptr);
      } else if (flag == "--dir") {
        cfg.dir = v;
      } else if (flag == "--trace") {
        cfg.trace = std::strcmp(v, "0") != 0;
      } else if (flag == "--trace-out") {
        cfg.trace_out = v;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    }
  }
  if (cfg.dir.empty()) return Usage("--dir is required");
  if (!(cfg.seconds > 0 && cfg.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  if (cfg.trace && cfg.trace_out.empty()) {
    return Usage("--trace 1 needs --trace-out");
  }

  const bool gen = cfg.mode == "gen";
  if (!gen && cfg.mode != "run") return Usage("mode must be gen or run");
  // glibc raises its mmap threshold each time a large block is freed, so
  // whether a later buffer reuses freed heap or gets fresh pages depends on
  // allocation history. Pinning the default threshold returns every large
  // buffer to the OS when freed, and peak_rss_mb follows live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Report report;
  int rc = 0;
  if (cfg.workload == "ed-mem") {
    rc = gen ? GenEdMem(cfg) : RunEdMem(cfg, &report);
  } else if (cfg.workload == "serve-rw") {
    rc = gen ? GenServeRw(cfg) : RunServeRw(cfg, &report);
  } else {
    return Usage("unknown --workload");
  }
  if (gen || rc == 2) return rc;
  report.Context("simd_tier", rotind::simd::ActiveTierName());
  report.Context("threads_available", std::to_string(AvailableCpus()));
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
