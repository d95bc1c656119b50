// The SCAN round kernel: one round of the paper's model (§2.3, §3.1),
//
//   T_N = SEEK + sum T_rot + sum T_trans,   judged against the round end.
//
// Every round executor in the tree — RoundSimulator, ImportanceSampler,
// MixedRoundSimulator, PrefetchRoundSimulator and server::MediaServer —
// draws its own requests into caller-owned structure-of-arrays and hands
// them to SweepRound, which owns everything after the draws: the arm
// policy, the service order, the wide seek lane and the fused deadline
// walk. Callers interpret the result themselves (glitch sets, degraded
// and repair reads, observability sums); injected delays are already
// folded into the rotation column before the sweep, so the kernel takes
// no hooks.
//
// Determinism contract: SweepRound is bit-identical to the reference
// implementation sched::OrderRequests + sched::ExecuteScanRound
// (tests/sim/round_kernel_test.cc). The SCAN keys tie-break on the issue
// index, which is the order std::stable_sort keeps; the clock sums
// seek + rotation + transfer per request in service order exactly as the
// reference does; and the seek lane is bit-identical to
// SeekTimeModel::SeekTime on every SIMD tier (sim/batch_kernels.h).
#ifndef ZONESTREAM_SIM_ROUND_KERNEL_H_
#define ZONESTREAM_SIM_ROUND_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "disk/seek_model.h"
#include "sched/ordering.h"

namespace zonestream::sim {

// How the arm behaves between rounds.
enum class SweepPolicy {
  kAlternate,       // elevator: sweep direction flips every round
  kResetAscending,  // arm returns to cylinder 0, every sweep ascends
};

// One round's requests as caller-owned structure-of-arrays, in issue
// order. Cylinders must be non-negative.
struct SweepRequests {
  int n = 0;
  const int* cylinder = nullptr;
  const double* rotation_s = nullptr;  // rotational latency + injected delay
  const double* transfer_s = nullptr;
};

// Result of one sweep plus the work buffers it reuses across rounds. The
// per-position arrays are indexed by service position.
struct RoundSweep {
  std::vector<int> order;            // SoA index served at each position
  std::vector<double> seek_s;        // seek charged at each position
  std::vector<double> completion_s;  // return seek + cumulative clock
  double deadline_s = 0.0;
  // Seek back to cylinder 0 charged ahead of a kResetAscending sweep.
  double return_seek_s = 0.0;
  double total_s = 0.0;  // return seek + the whole sweep: T_N
  int late = 0;          // positions completing after the deadline
  // Where the arm rests after the round: the last request served on time
  // (unfinished transfers are dropped at the deadline), or the start
  // cylinder when none was.
  int final_arm_cylinder = 0;

  bool Late(size_t pos) const { return completion_s[pos] > deadline_s; }

  std::vector<uint64_t> sort_key;  // 64-bit SCAN keys above the network size
  std::vector<double> seek_dist;   // per-position seek distances
};

// Serves `requests` in one sweep starting with the arm at `arm_cylinder`.
// kAlternate sweeps in the direction `ascending` names; kResetAscending
// first returns the arm to cylinder 0, charging that seek to the round,
// and always ascends. `ordering` picks SCAN (the paper), SSTF or FCFS.
// With n == 0 the round is empty: nothing but the return seek is charged
// and the arm stays at its (reset) start.
void SweepRound(const disk::SeekTimeModel& seek, SweepPolicy arm_policy,
                sched::OrderingPolicy ordering, int arm_cylinder,
                bool ascending, double deadline_s,
                const SweepRequests& requests, RoundSweep* sweep);

}  // namespace zonestream::sim

#endif  // ZONESTREAM_SIM_ROUND_KERNEL_H_
