// The round kernel against its reference implementation: SweepRound must
// equal sched::OrderRequests + sched::ExecuteScanRound bit for bit —
// service order, per-position seek and completion times, total and final
// arm — for every arm policy and service order, on tied cylinders, and
// on both sides of the sorting-network size.
#include "sim/round_kernel.h"

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "disk/presets.h"
#include "numeric/random.h"
#include "sched/ordering.h"
#include "sched/request.h"
#include "sched/scan.h"

namespace zonestream::sim {
namespace {

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

// `n` requests on the Table 1 disk with stream id == issue index. With
// `tied`, cylinders come from a handful of values so SCAN and SSTF must
// break ties.
std::vector<sched::DiskRequest> RandomRequests(int n, uint64_t seed,
                                               bool tied,
                                               int cylinders = 6720) {
  numeric::Rng rng(seed);
  std::vector<sched::DiskRequest> requests(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    sched::DiskRequest& request = requests[static_cast<size_t>(i)];
    request.stream_id = i;
    request.cylinder =
        tied ? static_cast<int>(rng.UniformIndex(4)) * (cylinders / 4)
             : static_cast<int>(rng.UniformIndex(
                   static_cast<uint64_t>(cylinders)));
    request.bytes = rng.Uniform(50e3, 400e3);
    request.transfer_rate_bps = rng.Uniform(3e6, 6e6);
    request.rotational_latency_s = rng.Uniform(0.0, 0.0111);
  }
  return requests;
}

// The kernel's structure-of-arrays input for a request batch.
struct Columns {
  explicit Columns(const std::vector<sched::DiskRequest>& requests) {
    for (const sched::DiskRequest& request : requests) {
      cylinder.push_back(request.cylinder);
      rotation_s.push_back(request.rotational_latency_s);
      transfer_s.push_back(request.bytes / request.transfer_rate_bps);
    }
  }
  SweepRequests View() const {
    return SweepRequests{static_cast<int>(cylinder.size()), cylinder.data(),
                         rotation_s.data(), transfer_s.data()};
  }
  std::vector<int> cylinder;
  std::vector<double> rotation_s;
  std::vector<double> transfer_s;
};

struct Case {
  SweepPolicy arm_policy = SweepPolicy::kAlternate;
  sched::OrderingPolicy ordering = sched::OrderingPolicy::kScan;
  int start_cylinder = 0;
  bool ascending = true;
  double deadline_s = kNoDeadline;
};

// Runs the kernel and the reference on the same requests and compares
// every output exactly.
void ExpectMatchesReference(const Case& c,
                            const std::vector<sched::DiskRequest>& requests) {
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  const int n = static_cast<int>(requests.size());
  const Columns columns(requests);
  RoundSweep sweep;
  SweepRound(seek, c.arm_policy, c.ordering, c.start_cylinder, c.ascending,
             c.deadline_s, columns.View(), &sweep);

  // Reference: the arm policy by hand, then the allocating reference path.
  double return_seek_s = 0.0;
  int arm = c.start_cylinder;
  sched::SweepDirection direction = c.ascending
                                        ? sched::SweepDirection::kAscending
                                        : sched::SweepDirection::kDescending;
  if (c.arm_policy == SweepPolicy::kResetAscending) {
    if (arm != 0) return_seek_s = seek.SeekTime(arm);
    arm = 0;
    direction = sched::SweepDirection::kAscending;
  }
  std::vector<sched::DiskRequest> ordered = requests;
  sched::OrderRequests(&ordered, c.ordering, arm, direction);
  const sched::RoundTiming timing =
      sched::ExecuteScanRound(seek, ordered, arm);

  ASSERT_EQ(sweep.order.size(), requests.size());
  EXPECT_EQ(sweep.return_seek_s, return_seek_s);
  int late = 0;
  int final_arm = arm;
  for (int pos = 0; pos < n; ++pos) {
    const sched::RequestTiming& rt = timing.per_request[pos];
    EXPECT_EQ(sweep.order[pos], rt.stream_id) << "position " << pos;
    EXPECT_EQ(sweep.seek_s[pos], rt.seek_s) << "position " << pos;
    const double completion = return_seek_s + rt.completion_s;
    EXPECT_EQ(sweep.completion_s[pos], completion) << "position " << pos;
    EXPECT_EQ(sweep.Late(pos), completion > c.deadline_s);
    if (completion > c.deadline_s) {
      ++late;
    } else {
      final_arm = ordered[pos].cylinder;
    }
  }
  EXPECT_EQ(sweep.total_s, return_seek_s + timing.total_service_time_s);
  EXPECT_EQ(sweep.late, late);
  EXPECT_EQ(sweep.final_arm_cylinder, final_arm);
  if (late == 0) {
    EXPECT_EQ(sweep.final_arm_cylinder, timing.final_arm_cylinder);
  }
}

TEST(RoundKernelTest, MatchesReferenceForEveryPolicyAndSize) {
  const std::vector<Case> cases = {
      {SweepPolicy::kAlternate, sched::OrderingPolicy::kScan, 0, true},
      {SweepPolicy::kAlternate, sched::OrderingPolicy::kScan, 5000, false},
      {SweepPolicy::kAlternate, sched::OrderingPolicy::kSstf, 3000, true},
      {SweepPolicy::kAlternate, sched::OrderingPolicy::kFcfs, 1200, false},
      {SweepPolicy::kResetAscending, sched::OrderingPolicy::kScan, 6000,
       false},
      {SweepPolicy::kResetAscending, sched::OrderingPolicy::kScan, 0, true},
      {SweepPolicy::kResetAscending, sched::OrderingPolicy::kSstf, 4000,
       true},
  };
  uint64_t seed = 1;
  // 32 is the largest round the sorting network takes; 33 sorts 64-bit
  // keys.
  for (const int n : {0, 1, 2, 32, 33, 100}) {
    for (const bool tied : {false, true}) {
      for (const Case& c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " tied=" << tied << " ordering="
                     << static_cast<int>(c.ordering) << " reset="
                     << (c.arm_policy == SweepPolicy::kResetAscending)
                     << " start=" << c.start_cylinder
                     << " ascending=" << c.ascending);
        ExpectMatchesReference(c, RandomRequests(n, seed++, tied));
      }
    }
  }
}

TEST(RoundKernelTest, DeadlineSplitsLateFromOnTimeRequests) {
  // 60 requests overrun a 0.6 s round, so the deadline cuts the sweep
  // part way through under every policy.
  for (const bool reset : {false, true}) {
    for (const bool ascending : {false, true}) {
      Case c;
      c.arm_policy =
          reset ? SweepPolicy::kResetAscending : SweepPolicy::kAlternate;
      c.start_cylinder = 3333;
      c.ascending = ascending;
      c.deadline_s = 0.6;
      for (const int n : {32, 60}) {
        SCOPED_TRACE(testing::Message() << "reset=" << reset
                                        << " ascending=" << ascending
                                        << " n=" << n);
        ExpectMatchesReference(c, RandomRequests(n, 77 + n, false));
      }
    }
  }
}

TEST(RoundKernelTest, ResetAscendingChargesTheReturnSeek) {
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  const Columns columns(RandomRequests(26, 9, false));
  const SweepRequests view = columns.View();
  RoundSweep from_zero;
  SweepRound(seek, SweepPolicy::kAlternate, sched::OrderingPolicy::kScan, 0,
             true, kNoDeadline, view, &from_zero);
  RoundSweep reset;
  const int previous_arm = 6000;
  SweepRound(seek, SweepPolicy::kResetAscending, sched::OrderingPolicy::kScan,
             previous_arm, /*ascending=*/false, kNoDeadline, view, &reset);
  // The arm seeks back from where the last sweep ended, then sweeps up
  // from cylinder 0 exactly as a fresh ascending sweep would.
  EXPECT_EQ(reset.return_seek_s, seek.SeekTime(previous_arm));
  EXPECT_GT(reset.return_seek_s, 0.0);
  EXPECT_EQ(reset.order, from_zero.order);
  EXPECT_EQ(reset.total_s, seek.SeekTime(previous_arm) + from_zero.total_s);
}

TEST(RoundKernelTest, CylindersBeyondPackedKeysUseTheWideSort) {
  // Cylinders at or above 2^26 do not fit the 32-bit network keys; the
  // 64-bit sort must give the same order for a small round.
  for (const bool ascending : {false, true}) {
    Case c;
    c.ascending = ascending;
    c.start_cylinder = 1 << 26;
    ExpectMatchesReference(c, RandomRequests(20, 5, false, 1 << 27));
    ExpectMatchesReference(c, RandomRequests(20, 6, true, 1 << 27));
  }
}

TEST(RoundKernelTest, WorkBuffersAreReusedAcrossRoundSizes) {
  // One RoundSweep serves rounds of varying size, as MediaServer's disks
  // do; every round must match a fresh sweep.
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  RoundSweep reused;
  uint64_t seed = 300;
  for (const int n : {40, 3, 0, 33, 12}) {
    const Columns columns(RandomRequests(n, seed++, false));
    const SweepRequests view = columns.View();
    RoundSweep fresh;
    SweepRound(seek, SweepPolicy::kAlternate, sched::OrderingPolicy::kScan,
               100, n % 2 == 0, 0.5, view, &fresh);
    SweepRound(seek, SweepPolicy::kAlternate, sched::OrderingPolicy::kScan,
               100, n % 2 == 0, 0.5, view, &reused);
    EXPECT_EQ(reused.order, fresh.order);
    EXPECT_EQ(reused.completion_s, fresh.completion_s);
    EXPECT_EQ(reused.total_s, fresh.total_s);
    EXPECT_EQ(reused.late, fresh.late);
    EXPECT_EQ(reused.final_arm_cylinder, fresh.final_arm_cylinder);
  }
}

}  // namespace
}  // namespace zonestream::sim
