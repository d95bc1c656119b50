#include "sim/round_kernel.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "numeric/sort_network.h"
#include "sim/batch_kernels.h"

namespace zonestream::sim {

namespace {

// The packed 32-bit SCAN key: cylinder in the high 26 bits, SoA index in
// the low 6 (n <= kSortNetworkMaxN = 32 fits).
constexpr uint32_t kCylinderMask = (1u << 26) - 1u;

bool FitsSortNetwork(const int* cylinder, int n) {
  if (n > static_cast<int>(numeric::kSortNetworkMaxN)) return false;
  for (int i = 0; i < n; ++i) {
    if (static_cast<uint32_t>(cylinder[i]) > kCylinderMask) return false;
  }
  return true;
}

// SCAN as one flat sort of unique (cylinder, index) keys: the index in
// the low bits breaks cylinder ties in issue order, which is the order
// std::stable_sort keeps, and complemented cylinders give the descending
// sweep. Keys are unique, so the algorithm cannot change the result: at
// most 32 requests on cylinders below 2^26 run the branch-free sorting
// network (several times faster than std::sort on a fresh permutation
// every round), anything else sorts 64-bit keys.
void ScanOrder(const int* cylinder, int n, bool ascending, RoundSweep* s) {
  if (FitsSortNetwork(cylinder, n)) {
    uint32_t keys[numeric::kSortNetworkMaxN];
    for (int i = 0; i < n; ++i) {
      const uint32_t c = static_cast<uint32_t>(cylinder[i]);
      keys[i] = ((ascending ? c : ~c & kCylinderMask) << 6) |
                static_cast<uint32_t>(i);
    }
    numeric::SortU32Network(keys, static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) s->order[i] = static_cast<int>(keys[i] & 0x3fu);
    return;
  }
  s->sort_key.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const uint32_t c = static_cast<uint32_t>(cylinder[i]);
    s->sort_key[i] = (static_cast<uint64_t>(ascending ? c : ~c) << 32) |
                     static_cast<uint32_t>(i);
  }
  std::sort(s->sort_key.begin(), s->sort_key.end());
  for (int i = 0; i < n; ++i) {
    s->order[i] = static_cast<int>(s->sort_key[i] & 0xffffffffu);
  }
}

// Greedy nearest-cylinder-first from the arm; ties keep the earliest
// remaining slot, as sched::OrderRequests does.
void SstfOrder(const int* cylinder, int n, int arm, RoundSweep* s) {
  std::vector<int>& order = s->order;
  for (int i = 0; i < n; ++i) order[i] = i;
  for (int served = 0; served < n; ++served) {
    int best = served;
    int best_distance = std::abs(cylinder[order[served]] - arm);
    for (int i = served + 1; i < n; ++i) {
      const int distance = std::abs(cylinder[order[i]] - arm);
      if (distance < best_distance) {
        best = i;
        best_distance = distance;
      }
    }
    std::swap(order[served], order[best]);
    arm = cylinder[order[served]];
  }
}

}  // namespace

void SweepRound(const disk::SeekTimeModel& seek, SweepPolicy arm_policy,
                sched::OrderingPolicy ordering, int arm_cylinder,
                bool ascending, double deadline_s,
                const SweepRequests& requests, RoundSweep* sweep) {
  ZS_CHECK(sweep != nullptr);
  ZS_CHECK_GE(requests.n, 0);
  const int n = requests.n;
  const int* cylinder = requests.cylinder;
  RoundSweep& s = *sweep;

  // Arm policy. One-directional SCAN must bring the arm back to cylinder
  // 0 between rounds; that return sweep is disk time like any other seek,
  // so it is charged to this round (Oyang's worst-case bound also budgets
  // a full stroke).
  s.return_seek_s = 0.0;
  if (arm_policy == SweepPolicy::kResetAscending) {
    if (arm_cylinder != 0) s.return_seek_s = seek.SeekTime(arm_cylinder);
    arm_cylinder = 0;
    ascending = true;
  }

  const size_t count = static_cast<size_t>(n);
  s.order.resize(count);
  s.seek_s.resize(count);
  s.completion_s.resize(count);
  s.seek_dist.resize(count);
  switch (ordering) {
    case sched::OrderingPolicy::kScan:
      ScanOrder(cylinder, n, ascending, &s);
      break;
    case sched::OrderingPolicy::kSstf:
      SstfOrder(cylinder, n, arm_cylinder, &s);
      break;
    case sched::OrderingPolicy::kFcfs:
      for (int i = 0; i < n; ++i) s.order[i] = i;
      break;
  }

  // The seek lane: distances along the arm walk (an integer recurrence),
  // then every seek time at once, wide (sim/batch_kernels.h).
  int walk_arm = arm_cylinder;
  for (int pos = 0; pos < n; ++pos) {
    const int c = cylinder[s.order[pos]];
    s.seek_dist[pos] = std::abs(c - walk_arm);
    walk_arm = c;
  }
  internal::SeekTimes(seek, s.seek_dist.data(), s.seek_s.data(), count);

  // The fused deadline walk: the strictly ordered clock over
  // seek + rotation + transfer, with the deadline judged in the same pass.
  const double* rotation_s = requests.rotation_s;
  const double* transfer_s = requests.transfer_s;
  double clock = 0.0;
  int late = 0;
  int arm = arm_cylinder;
  for (int pos = 0; pos < n; ++pos) {
    const int i = s.order[pos];
    clock += s.seek_s[pos] + rotation_s[i] + transfer_s[i];
    const double completion = s.return_seek_s + clock;
    s.completion_s[pos] = completion;
    if (completion > deadline_s) {
      ++late;
    } else {
      arm = cylinder[i];
    }
  }
  s.deadline_s = deadline_s;
  s.total_s = s.return_seek_s + clock;
  s.late = late;
  s.final_arm_cylinder = arm;
}

}  // namespace zonestream::sim
