// The three benchmark workloads. Each runs in its own process, makes its
// inputs from the seed, calls only zonestream's public functions, checks
// the outputs, and fills a Report: end-to-end metrics from an untraced
// run, or per-layer metrics from a traced one. README.md in this
// directory says why each workload exists and which metrics it moves.
#ifndef ZONESTREAM_PERFBENCH_WORKLOADS_H_
#define ZONESTREAM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;   // length of the measured window
  bool trace = false;      // traced run: per-layer metrics instead
  std::string work_dir;    // sockets and the span file go here
  // Self-test hook: perturbs one expected answer so that the output
  // check must fail and the run must exit nonzero.
  bool corrupt_expected = false;
};

void RunAdmitChurn(const RunOptions& options, Report* report);
void RunArrayRebuild(const RunOptions& options, Report* report);
void RunBoundAudit(const RunOptions& options, Report* report);

// The N_max columns of bound_audit's thread-count check draw, one cell
// per line. Printed by the child process that the bound_audit run starts
// with a one-thread pool.
int PrintBoundAuditCheckColumns(uint64_t seed);

}  // namespace perfbench

#endif  // ZONESTREAM_PERFBENCH_WORKLOADS_H_
