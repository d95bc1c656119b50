// Parity striping, the repair controller, degraded-mode admission, and
// the MediaServer rebuild pipeline end-to-end (failure -> degraded
// reads -> throttled rebuild -> spare promotion -> intact service).
#include "server/repair.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/admission.h"
#include "disk/presets.h"
#include "obs/metrics.h"
#include "server/media_server.h"
#include "server/parity_striping.h"
#include "workload/size_distribution.h"

namespace zonestream::server {
namespace {

std::shared_ptr<const workload::GammaSizeDistribution> Table1Sizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3));
}

MediaServerConfig ParityConfig(int disks, int per_disk_limit,
                               uint64_t seed = 42) {
  MediaServerConfig config;
  config.num_disks = disks;
  config.round_length_s = 1.0;
  config.per_disk_stream_limit = per_disk_limit;
  config.seed = seed;
  config.parity = true;
  return config;
}

MediaServer MakeParityServer(const MediaServerConfig& config) {
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ZS_CHECK(server.ok());
  return *std::move(server);
}

// ---------------------------------------------------------------------------
// ParityStriping layout.

TEST(ParityStripingTest, ParityRotatesThroughEveryDisk) {
  for (int disks : {2, 3, 5}) {
    ParityStriping striping(disks);
    EXPECT_EQ(striping.num_data_phases(), disks - 1);
    std::set<int> seen;
    for (int64_t s = 0; s < disks; ++s) {
      const int p = striping.ParityDiskForStripe(s);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, disks);
      seen.insert(p);
    }
    // One full cycle touches every disk exactly once.
    EXPECT_EQ(static_cast<int>(seen.size()), disks) << disks;
    // ...and the rotation has period D.
    EXPECT_EQ(striping.ParityDiskForStripe(0),
              striping.ParityDiskForStripe(disks));
  }
}

TEST(ParityStripingTest, DataDisksAvoidParityAndEachOther) {
  for (int disks : {2, 3, 4, 7}) {
    ParityStriping striping(disks);
    for (int64_t s = 0; s < 3 * disks; ++s) {
      const int parity = striping.ParityDiskForStripe(s);
      std::set<int> used;
      for (int phase = 0; phase < striping.num_data_phases(); ++phase) {
        const int d = striping.DataDiskForFragment(phase, s);
        ASSERT_GE(d, 0);
        ASSERT_LT(d, disks);
        EXPECT_NE(d, parity) << "disks=" << disks << " s=" << s;
        EXPECT_TRUE(used.insert(d).second)
            << "two phases share disk " << d << " in stripe " << s;
      }
    }
  }
}

TEST(ParityStripingTest, PhaseForDiskInvertsDataDiskForFragment) {
  for (int disks : {2, 3, 5}) {
    ParityStriping striping(disks);
    for (int64_t s = 0; s < 2 * disks; ++s) {
      for (int d = 0; d < disks; ++d) {
        const int phase = striping.PhaseForDisk(d, s);
        if (d == striping.ParityDiskForStripe(s)) {
          EXPECT_EQ(phase, -1);
        } else {
          ASSERT_GE(phase, 0);
          ASSERT_LT(phase, striping.num_data_phases());
          EXPECT_EQ(striping.DataDiskForFragment(phase, s), d);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RepairController bookkeeping.

TEST(RepairControllerTest, BudgetProgressAndCompletion) {
  RepairPolicy policy;
  policy.throttle_per_round = 4;
  policy.total_stripes = 10;
  policy.read_bytes = 200e3;
  ASSERT_TRUE(ValidateRepairPolicy(policy).ok());

  obs::Registry registry;
  RepairController controller(policy, &registry);
  EXPECT_FALSE(controller.active());
  EXPECT_EQ(controller.ClaimRoundBudget(), 0);
  EXPECT_EQ(controller.EtaRounds(), 0);

  controller.StartRebuild(2);
  EXPECT_TRUE(controller.active());
  EXPECT_EQ(controller.target_disk(), 2);
  EXPECT_EQ(controller.EtaRounds(), 3);  // ceil(10 / 4)
  EXPECT_EQ(controller.ClaimRoundBudget(), 4);
  EXPECT_FALSE(controller.RecordRoundOutcome(4));
  EXPECT_EQ(controller.ClaimRoundBudget(), 4);
  // A round where only some jobs finished just slows the rebuild down.
  EXPECT_FALSE(controller.RecordRoundOutcome(2));
  EXPECT_EQ(controller.stripes_rebuilt(), 6);
  EXPECT_EQ(controller.ClaimRoundBudget(), 4);
  EXPECT_FALSE(controller.RecordRoundOutcome(3));
  EXPECT_EQ(controller.stripes_remaining(), 1);
  EXPECT_EQ(controller.ClaimRoundBudget(), 1);  // clamped to the remainder
  EXPECT_TRUE(controller.RecordRoundOutcome(1));
  EXPECT_FALSE(controller.active());
  EXPECT_EQ(controller.stripes_rebuilt(), 10);
  EXPECT_EQ(controller.target_disk(), 2);  // kept for inspection

  EXPECT_EQ(registry.GetCounter("server.repair.stripes_rebuilt")->value(), 10);
  EXPECT_EQ(registry.GetCounter("server.repair.completed")->value(), 1);
  EXPECT_DOUBLE_EQ(registry.GetGauge("server.repair.active")->value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("server.repair.eta_rounds")->value(), 0.0);
}

TEST(RepairControllerTest, CancelResetsProgress) {
  RepairPolicy policy;
  policy.throttle_per_round = 2;
  policy.total_stripes = 8;
  policy.read_bytes = 200e3;
  obs::Registry registry;
  RepairController controller(policy, &registry);
  controller.StartRebuild(0);
  controller.RecordRoundOutcome(2);
  EXPECT_EQ(controller.stripes_rebuilt(), 2);
  controller.Cancel();
  EXPECT_FALSE(controller.active());
  EXPECT_EQ(controller.stripes_rebuilt(), 0);
  EXPECT_EQ(registry.GetCounter("server.repair.cancelled")->value(), 1);
  // Re-arming the same disk after a cancel starts from scratch.
  controller.StartRebuild(0);
  EXPECT_EQ(controller.stripes_rebuilt(), 0);
  EXPECT_TRUE(controller.active());
}

TEST(RepairControllerTest, ImportStateValidates) {
  RepairPolicy policy;
  policy.throttle_per_round = 2;
  policy.total_stripes = 8;
  policy.read_bytes = 200e3;
  RepairController controller(policy, nullptr);

  RepairControllerState state;
  state.active = true;
  state.target_disk = 1;
  state.stripes_rebuilt = 3;
  ASSERT_TRUE(controller.ImportState(state).ok());
  EXPECT_TRUE(controller.active());
  EXPECT_EQ(controller.stripes_rebuilt(), 3);

  state.stripes_rebuilt = 9;  // beyond total_stripes
  EXPECT_FALSE(controller.ImportState(state).ok());
  state.stripes_rebuilt = -1;
  EXPECT_FALSE(controller.ImportState(state).ok());
  state.stripes_rebuilt = 3;
  state.target_disk = -1;  // active rebuild must name a target
  EXPECT_FALSE(controller.ImportState(state).ok());
}

TEST(RepairPolicyTest, ValidationRejectsNonsense) {
  RepairPolicy policy;
  policy.throttle_per_round = 0;
  policy.total_stripes = 4;
  policy.read_bytes = 200e3;
  EXPECT_FALSE(ValidateRepairPolicy(policy).ok());
  policy.throttle_per_round = 2;
  policy.total_stripes = 0;
  EXPECT_FALSE(ValidateRepairPolicy(policy).ok());
  policy.total_stripes = 4;
  policy.read_bytes = 0.0;
  EXPECT_FALSE(ValidateRepairPolicy(policy).ok());
  policy.read_bytes = 200e3;
  EXPECT_TRUE(ValidateRepairPolicy(policy).ok());
}

// ---------------------------------------------------------------------------
// Degraded-mode admission bound.

core::ServiceTimeModel TestModel() {
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3,
      100e3 * 100e3);
  ZS_CHECK(model.ok());
  return *std::move(model);
}

TEST(DegradedAdmissionTest, ConsistentWithDoubledLoadBound) {
  const core::ServiceTimeModel model = TestModel();
  const double delta = 0.01;
  for (int repair : {0, 2, 4}) {
    const int n = core::MaxStreamsByLateProbabilityDegraded(model, 1.0, delta,
                                                            repair);
    ASSERT_GT(n, 0) << repair;
    // A degraded survivor serves its own phase, the failed disk's phase,
    // and `repair` reconstruction reads: 2N + R requests.
    EXPECT_LE(model.LateBound(2 * n + repair, 1.0).bound, delta) << repair;
    EXPECT_GT(model.LateBound(2 * (n + 1) + repair, 1.0).bound, delta)
        << repair;
  }
}

TEST(DegradedAdmissionTest, TighterThanHealthyBoundAndMonotoneInThrottle) {
  const core::ServiceTimeModel model = TestModel();
  const double delta = 0.01;
  const int healthy = core::MaxStreamsByLateProbability(model, 1.0, delta);
  int prev = healthy;
  for (int repair : {0, 1, 2, 4, 8, 16}) {
    const int degraded = core::MaxStreamsByLateProbabilityDegraded(
        model, 1.0, delta, repair);
    EXPECT_LT(degraded, healthy) << repair;
    EXPECT_LE(degraded, prev) << repair;  // more repair => no more streams
    prev = degraded;
  }
}

TEST(DegradedAdmissionTest, PlanDegradedLimitMatchesCoreBound) {
  RepairPolicy policy;
  policy.throttle_per_round = 4;
  policy.total_stripes = 100;
  policy.read_bytes = 200e3;
  const auto limit = MediaServer::PlanDegradedLimit(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3,
      100e3 * 100e3, 1.0, 0.01, policy);
  ASSERT_TRUE(limit.ok());
  EXPECT_EQ(*limit, core::MaxStreamsByLateProbabilityDegraded(
                        TestModel(), 1.0, 0.01, 4));
}

// ---------------------------------------------------------------------------
// MediaServer parity configuration surface.

TEST(MediaServerParityTest, CreateValidation) {
  // Parity needs >= 2 disks.
  MediaServerConfig config = ParityConfig(1, 4);
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
  // Repair requires parity.
  config = ParityConfig(3, 4);
  config.parity = false;
  config.repair = RepairPolicy{2, 10, 200e3};
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
  // An invalid repair policy is rejected at Create.
  config = ParityConfig(3, 4);
  config.repair = RepairPolicy{0, 10, 200e3};
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
  // Degraded limit without parity makes no sense.
  config = ParityConfig(3, 4);
  config.parity = false;
  config.degraded_per_disk_stream_limit = 2;
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
}

TEST(MediaServerParityTest, CapacityLosesOneDiskToParity) {
  MediaServer server = MakeParityServer(ParityConfig(3, 4));
  EXPECT_EQ(server.max_streams(), 8);  // (3 - 1) * 4
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(server.OpenStream(Table1Sizes()).ok()) << i;
  }
  const auto rejected = server.OpenStream(Table1Sizes());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            common::StatusCode::kResourceExhausted);
}

TEST(MediaServerParityTest, CleanParityRoundsServeEveryStream) {
  MediaServer server = MakeParityServer(ParityConfig(3, 4));
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());
  server.RunRounds(12);
  const ServerStats stats = server.GetServerStats();
  EXPECT_EQ(stats.fragments_served, 4 * 12);
  EXPECT_EQ(stats.glitches, 0);
  EXPECT_EQ(stats.reconstructed_fragments, 0);
  EXPECT_EQ(stats.rounds_degraded, 0);
  EXPECT_FALSE(server.degraded());
}

// ---------------------------------------------------------------------------
// Degraded reads (no repair configured).

TEST(MediaServerParityTest, DegradedReadsReconstructFailedDisksFragments) {
  MediaServerConfig config = ParityConfig(3, 4);
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 2;
  failure.repair_after_rounds = 3;  // outage over rounds [2, 5)
  config.faults.disk_failures.push_back(failure);
  config.fault_disk = 0;
  obs::Registry registry;
  config.metrics = &registry;
  MediaServer server = MakeParityServer(config);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());
  server.RunRounds(10);

  const ServerStats stats = server.GetServerStats();
  // Streams occupy phases 0 and 1. Disk 0 is a *data* disk for phase j in
  // round r iff j == r (mod 3); over the outage rounds {2, 3, 4} that is
  // round 3 (phase 0) and round 4 (phase 1) — round 2 parks the parity
  // unit on disk 0, which costs nothing. Both hits reconstruct cleanly
  // in an underloaded array, so nobody glitches.
  EXPECT_EQ(stats.fragments_served, 2 * 10);
  EXPECT_EQ(stats.glitches, 0);
  EXPECT_EQ(stats.reconstructed_fragments, 2);
  EXPECT_EQ(stats.rounds_degraded, 3);
  EXPECT_FALSE(server.degraded());  // healed at round 5
  EXPECT_EQ(
      registry.GetCounter("server.repair.reconstruction_reads")->value(),
      2 * 2);  // each reconstructed fragment = one read per survivor
  EXPECT_EQ(
      registry.GetCounter("server.repair.reconstructed_fragments")->value(),
      2);
}

// ---------------------------------------------------------------------------
// Full rebuild pipeline.

TEST(MediaServerParityTest, RebuildEndToEndPromotesSpare) {
  MediaServerConfig config = ParityConfig(3, 4);
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 2;  // permanent: repair_after_rounds stays -1
  config.faults.disk_failures.push_back(failure);
  config.fault_disk = 0;
  config.repair = RepairPolicy{2, 6, 200e3};
  obs::Registry registry;
  config.metrics = &registry;
  MediaServer server = MakeParityServer(config);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());

  server.RunRounds(2);
  EXPECT_FALSE(server.degraded());
  EXPECT_FALSE(server.rebuild_active());

  server.RunRound();  // round 2: failure detected, rebuild armed
  EXPECT_TRUE(server.degraded());
  EXPECT_TRUE(server.rebuild_active());
  EXPECT_EQ(server.rebuild_target_disk(), 0);
  EXPECT_EQ(server.repair_stripes_rebuilt(), 2);

  server.RunRounds(2);  // rounds 3-4 finish the remaining 4 stripes
  EXPECT_FALSE(server.rebuild_active());
  EXPECT_EQ(server.repair_stripes_rebuilt(), 6);
  EXPECT_TRUE(server.spare_active(0));
  EXPECT_FALSE(server.degraded());  // spare took the slot

  server.RunRounds(5);  // intact service on the spare
  const ServerStats stats = server.GetServerStats();
  EXPECT_EQ(stats.fragments_served, 2 * 10);
  EXPECT_EQ(stats.glitches, 0);
  EXPECT_EQ(stats.repair_stripes_rebuilt, 6);
  EXPECT_EQ(stats.rounds_degraded, 3);  // rounds 2, 3, 4
  EXPECT_EQ(registry.GetCounter("server.repair.completed")->value(), 1);
  EXPECT_EQ(registry.GetCounter("server.repair.stripes_rebuilt")->value(), 6);
  // 3 degraded rounds x 2 jobs x 2 survivors.
  EXPECT_EQ(registry.GetCounter("server.repair.reads")->value(), 12);
  EXPECT_DOUBLE_EQ(registry.GetGauge("server.repair.active")->value(), 0.0);
}

TEST(MediaServerParityTest, TransientHealCancelsRebuild) {
  MediaServerConfig config = ParityConfig(3, 4);
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 1;
  failure.repair_after_rounds = 2;  // heals before the rebuild finishes
  config.faults.disk_failures.push_back(failure);
  config.fault_disk = 1;
  config.repair = RepairPolicy{1, 1000, 200e3};
  obs::Registry registry;
  config.metrics = &registry;
  MediaServer server = MakeParityServer(config);
  ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());

  server.RunRounds(3);  // rounds 1-2 degraded with an active rebuild
  EXPECT_TRUE(server.rebuild_active());
  server.RunRound();  // round 3: disk healed -> rebuild cancelled
  EXPECT_FALSE(server.rebuild_active());
  EXPECT_FALSE(server.degraded());
  EXPECT_FALSE(server.spare_active(1));
  EXPECT_EQ(server.repair_stripes_rebuilt(), 0);  // progress reset
  EXPECT_EQ(registry.GetCounter("server.repair.cancelled")->value(), 1);
}

TEST(MediaServerParityTest, DegradedLimitShedsAndGatesAdmission) {
  MediaServerConfig config = ParityConfig(3, 4);
  config.degraded_per_disk_stream_limit = 2;
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 1;  // permanent, no repair configured
  config.faults.disk_failures.push_back(failure);
  config.fault_disk = 2;
  MediaServer server = MakeParityServer(config);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());

  server.RunRound();  // round 0: healthy
  EXPECT_EQ(server.active_streams(), 8);
  server.RunRound();  // round 1: degraded edge -> shed to 2 per phase
  EXPECT_TRUE(server.degraded());
  EXPECT_EQ(server.active_streams(), 4);
  EXPECT_EQ(server.GetServerStats().streams_shed, 4);
  // While degraded, the degraded limit also gates new admissions.
  const auto rejected = server.OpenStream(Table1Sizes());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            common::StatusCode::kResourceExhausted);
}

TEST(MediaServerParityTest, LimitChangeCallbackTracksDegradedTransitions) {
  MediaServerConfig config = ParityConfig(3, 4);
  config.degraded_per_disk_stream_limit = 2;
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 1;  // permanent; the rebuild heals it
  config.faults.disk_failures.push_back(failure);
  config.fault_disk = 2;
  config.repair = RepairPolicy{4, 8, 200e3};  // 8 stripes at 4/round
  MediaServer server = MakeParityServer(config);
  ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());

  struct Event {
    int limit;
    int phases;
    bool degraded;
  };
  std::vector<Event> events;
  server.SetLimitChangeCallback([&](int limit, int phases, bool degraded) {
    events.push_back({limit, phases, degraded});
  });
  // Registration fires synchronously with the current (healthy) limit, so
  // a subscriber needs no separate bootstrap read.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].limit, 4);
  EXPECT_EQ(events[0].phases, 2);  // 3 parity disks -> 2 data phases
  EXPECT_FALSE(events[0].degraded);

  server.RunRound();  // round 0: healthy, limit unchanged -> no event
  EXPECT_EQ(events.size(), 1u);

  server.RunRound();  // round 1: failure -> degraded limit kicks in
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].limit, 2);
  EXPECT_TRUE(events[1].degraded);

  server.RunRounds(6);  // rebuild completes, spare promoted, limit lifted
  EXPECT_FALSE(server.degraded());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].limit, 4);
  EXPECT_EQ(events[2].phases, 2);
  EXPECT_FALSE(events[2].degraded);
}

// ---------------------------------------------------------------------------
// Snapshot round-trip mid-rebuild.

MediaServerConfig MidRebuildConfig(obs::Registry* metrics) {
  MediaServerConfig config = ParityConfig(3, 4);
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 1;
  config.faults.disk_failures.push_back(failure);
  config.fault_disk = 0;
  config.repair = RepairPolicy{1, 8, 200e3};
  config.metrics = metrics;
  return config;
}

TEST(MediaServerParityTest, ExportRestoreMidRebuildIsBitIdentical) {
  MediaServer original = MakeParityServer(MidRebuildConfig(nullptr));
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(original.OpenStream(Table1Sizes()).ok());
  original.RunRounds(4);  // failure at round 1; rebuild is mid-flight
  ASSERT_TRUE(original.rebuild_active());
  const MediaServerState state = original.ExportState();
  EXPECT_TRUE(state.repair_present);
  EXPECT_TRUE(state.repair.active);
  EXPECT_GT(state.repair.stripes_rebuilt, 0);

  MediaServer restored = MakeParityServer(MidRebuildConfig(nullptr));
  const auto resolver = [](const StreamSnapshotState&) {
    return Table1Sizes();
  };
  ASSERT_TRUE(restored.RestoreState(state, resolver).ok());
  EXPECT_TRUE(restored.degraded());
  EXPECT_TRUE(restored.rebuild_active());
  EXPECT_EQ(restored.repair_stripes_rebuilt(),
            original.repair_stripes_rebuilt());

  // Both servers must run the rest of the rebuild (and beyond) in
  // lockstep: identical stats, identical final state.
  original.RunRounds(8);
  restored.RunRounds(8);
  EXPECT_TRUE(original.spare_active(0));
  EXPECT_TRUE(restored.spare_active(0));
  const ServerStats a = original.GetServerStats();
  const ServerStats b = restored.GetServerStats();
  EXPECT_EQ(a.fragments_served, b.fragments_served);
  EXPECT_EQ(a.glitches, b.glitches);
  EXPECT_EQ(a.reconstructed_fragments, b.reconstructed_fragments);
  EXPECT_EQ(a.repair_stripes_rebuilt, b.repair_stripes_rebuilt);
  EXPECT_EQ(a.rounds_degraded, b.rounds_degraded);
  const MediaServerState fa = original.ExportState();
  const MediaServerState fb = restored.ExportState();
  EXPECT_EQ(fa.rng_state, fb.rng_state);
  EXPECT_EQ(fa.round, fb.round);
  EXPECT_EQ(fa.spare_active, fb.spare_active);
  EXPECT_EQ(fa.repair.stripes_rebuilt, fb.repair.stripes_rebuilt);
  EXPECT_EQ(fa.repair.active, fb.repair.active);
}

TEST(MediaServerParityTest, RestoreRejectsInconsistentRepairState) {
  MediaServer server = MakeParityServer(MidRebuildConfig(nullptr));
  const auto resolver = [](const StreamSnapshotState&) {
    return Table1Sizes();
  };
  MediaServerState state = server.ExportState();

  // Snapshot claims no repair controller, but the config has one.
  MediaServerState bad = state;
  bad.repair_present = false;
  EXPECT_FALSE(server.RestoreState(bad, resolver).ok());

  // Active rebuild targeting a disk outside the array.
  bad = state;
  bad.repair.active = true;
  bad.repair.target_disk = 7;
  EXPECT_FALSE(server.RestoreState(bad, resolver).ok());

  // Spare flags must be one per disk.
  bad = state;
  bad.spare_active.push_back(1);
  EXPECT_FALSE(server.RestoreState(bad, resolver).ok());

  // An untouched export restores fine.
  EXPECT_TRUE(server.RestoreState(state, resolver).ok());
}

// ---------------------------------------------------------------------------
// Degraded admission bound holds under fire: admit at the degraded
// limit, keep the array degraded for the whole run, and check the
// measured per-round late rate against the planned tolerance.

TEST(MediaServerParityTest, DegradedBoundHoldsDuringRebuild) {
  RepairPolicy policy;
  policy.throttle_per_round = 4;
  policy.total_stripes = 1 << 30;  // never finishes: stays degraded
  policy.read_bytes = 200e3;
  const auto limit = MediaServer::PlanDegradedLimit(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3,
      100e3 * 100e3, 1.0, 0.05, policy);
  ASSERT_TRUE(limit.ok());
  ASSERT_GT(*limit, 0);

  MediaServerConfig config = ParityConfig(3, *limit);
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 0;  // degraded from the first round
  config.faults.disk_failures.push_back(failure);
  config.fault_disk = 0;
  config.repair = policy;
  MediaServerConfig probe = config;
  MediaServer server = MakeParityServer(probe);
  for (int i = 0; i < server.max_streams(); ++i) {
    ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok()) << i;
  }
  const int kRounds = 300;
  server.RunRounds(kRounds);
  const ServerStats stats = server.GetServerStats();
  EXPECT_EQ(stats.rounds_degraded, kRounds);
  // b_late bounds P(some request late in a round) per disk; the Chernoff
  // bound is conservative, so the measured rate should sit well inside
  // the planned 5% tolerance (x3 slack kills flakiness, and a broken
  // bound overshoots by far more than 3x).
  const double late_rounds_bound = 3 * 0.05 * kRounds;
  EXPECT_LE(static_cast<double>(stats.glitches), late_rounds_bound);
}

// ---------------------------------------------------------------------------
// Golden end-to-end rebuild scenario: exact pinned counters for the
// whole failure -> degraded -> rebuild -> restored arc. Any change in
// RNG consumption order, parity mapping, repair accounting, or the
// degraded-shed policy shows up here as a diff against these numbers.

TEST(MediaServerParityGoldenTest, RebuildScenarioMetricsArePinned) {
  MediaServerConfig config = ParityConfig(3, 4, /*seed=*/42);
  config.degraded_per_disk_stream_limit = 3;
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 5;  // permanent
  config.faults.disk_failures.push_back(failure);
  config.fault_disk = 1;
  config.repair = RepairPolicy{2, 10, 200e3};
  obs::Registry registry;
  config.metrics = &registry;
  MediaServer server = MakeParityServer(config);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());
  server.RunRounds(20);

  const ServerStats stats = server.GetServerStats();
  EXPECT_EQ(stats.rounds, 20);
  EXPECT_EQ(stats.fragments_served, 130);  // 8 x 5 rounds + 6 x 15 rounds
  EXPECT_EQ(stats.glitches, 0);
  EXPECT_EQ(stats.streams_shed, 2);  // 8 streams -> 3 per phase at the edge
  // Disk 1 is a data disk in 4 of the 5 degraded rounds (it holds the
  // parity unit in the fifth), 3 streams in the affected phase each time.
  EXPECT_EQ(stats.reconstructed_fragments, 12);
  EXPECT_EQ(stats.repair_stripes_rebuilt, 10);
  EXPECT_EQ(stats.rounds_degraded, 5);  // rounds 5..9
  EXPECT_TRUE(server.spare_active(1));
  EXPECT_FALSE(server.degraded());
  EXPECT_FALSE(server.rebuild_active());
  EXPECT_EQ(server.active_streams(), 6);
  EXPECT_EQ(registry.GetCounter("server.repair.completed")->value(), 1);
  EXPECT_EQ(registry.GetCounter("server.repair.reads")->value(), 20);
  EXPECT_EQ(
      registry.GetCounter("server.repair.reconstruction_reads")->value(), 24);
  EXPECT_EQ(registry.GetCounter("server.repair.read_glitches")->value(), 0);
  EXPECT_EQ(registry.GetCounter("server.repair.rounds_degraded")->value(), 5);
}

// Every "server." metric is registered, at zero, when the server is
// created: the round only bumps handles resolved then, so running through
// admissions, a failure, the degraded shed and a whole rebuild must never
// add a name to the registry.

std::set<std::string> RegisteredNames(const obs::Registry& registry) {
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  std::set<std::string> names;
  for (const auto& entry : snapshot.counters) names.insert(entry.first);
  for (const auto& entry : snapshot.gauges) names.insert(entry.first);
  for (const auto& entry : snapshot.histograms) names.insert(entry.first);
  return names;
}

TEST(MediaServerParityTest, MetricNamesAreAllRegisteredAtCreate) {
  MediaServerConfig config = ParityConfig(3, 4, /*seed=*/42);
  config.degraded_per_disk_stream_limit = 3;
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 5;  // permanent
  config.faults.disk_failures.push_back(failure);
  config.fault_disk = 1;
  config.repair = RepairPolicy{2, 10, 200e3};
  obs::Registry registry;
  config.metrics = &registry;
  MediaServer server = MakeParityServer(config);
  const std::set<std::string> at_create = RegisteredNames(registry);
  EXPECT_EQ(at_create.count("server.rounds"), 1u);
  EXPECT_EQ(at_create.count("server.repair.disk_time_s"), 1u);
  EXPECT_EQ(at_create.count("server.repair.completed"), 1u);
  EXPECT_EQ(registry.GetCounter("server.repair.completed")->value(), 0);

  int last_id = -1;
  for (int i = 0; i < 8; ++i) {
    auto id = server.OpenStream(Table1Sizes());
    ASSERT_TRUE(id.ok());
    last_id = *id;
  }
  EXPECT_FALSE(server.OpenStream(Table1Sizes()).ok());  // at the limit
  ASSERT_TRUE(server.CloseStream(last_id).ok());
  ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());
  server.RunRounds(20);
  ASSERT_TRUE(server.spare_active(1));  // failed, degraded, rebuilt
  EXPECT_GT(server.GetServerStats().streams_shed, 0);
  EXPECT_EQ(registry.GetCounter("server.repair.completed")->value(), 1);
  EXPECT_EQ(RegisteredNames(registry), at_create);
}

}  // namespace
}  // namespace zonestream::server
