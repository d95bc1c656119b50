// zonestream_perfbench: runs one benchmark workload and prints its
// metrics. perfbench/run.py builds this binary and calls it; README.md
// in this directory documents the workloads and metrics.
//
//   zonestream_perfbench --workload admit_churn|array_rebuild|bound_audit
//                        --seed N --seconds S --trace 0|1 [--work-dir DIR]
//                        [--corrupt-expected]
//
// `--check-columns --seed N` prints bound_audit's thread-count check
// columns and exits; the bound_audit run starts itself that way with a
// one-thread pool.
//
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on a usage error or a build that is not Release.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "numeric/simd.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload admit_churn|array_rebuild|bound_audit "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--corrupt-expected]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  options.work_dir = ".";
  bool check_columns = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--corrupt-expected") {
      options.corrupt_expected = true;
    } else if (flag == "--check-columns") {
      check_columns = true;
    } else if (value == nullptr) {
      return Usage(argv[0]);
    } else if (flag == "--workload") {
      workload = value, ++i;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10), ++i;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value), ++i;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0, ++i;
    } else if (flag == "--work-dir") {
      options.work_dir = value, ++i;
    } else {
      return Usage(argv[0]);
    }
  }

  // Timings from an unoptimized build are not the library's; refuse
  // them, as bench_json_report --require-release does.
  const std::string build_type = ZS_PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool assertions = true;
#else
  const bool assertions = false;
#endif
  if (build_type != "Release" || assertions) {
    std::fprintf(stderr,
                 "refusing to benchmark a '%s' build%s; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), assertions ? " with assertions" : "");
    return 2;
  }

  if (check_columns) {
    return perfbench::PrintBoundAuditCheckColumns(options.seed);
  }
  if (options.seconds <= 0.0) return Usage(argv[0]);

  void (*run)(const perfbench::RunOptions&, perfbench::Report*) = nullptr;
  if (workload == "admit_churn") {
    run = perfbench::RunAdmitChurn;
  } else if (workload == "array_rebuild") {
    run = perfbench::RunArrayRebuild;
  } else if (workload == "bound_audit") {
    run = perfbench::RunBoundAudit;
  } else {
    return Usage(argv[0]);
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  perfbench::Report report;
  report.AddContext("workload", workload);
  report.AddContext("seed", std::to_string(options.seed));
  report.AddContext("seconds", std::to_string(options.seconds));
  report.AddContext("trace", options.trace ? "1" : "0");
  report.AddContext("nproc", std::to_string(nproc));
  report.AddContext(
      "pool_threads",
      std::to_string(zonestream::common::ThreadPool::DefaultThreads()));
  report.AddContext("build_type", build_type);
  report.AddContext("simd_tier", zonestream::numeric::SimdTierName(
                                     zonestream::numeric::DetectedSimdTier()));
  #if defined(__clang__)
  report.AddContext("compiler", std::string("clang ") + __clang_version__);
#else
  report.AddContext("compiler", std::string("gcc ") + __VERSION__);
#endif
  run(options, &report);
  report.Print();
  return report.correct() ? 0 : 1;
}
