// The batched round path of RoundSimulator (whole-round draws into
// structure-of-arrays scratch, then the round kernel):
//  - replicated estimators stay bit-identical across thread counts (the
//    determinism contract of sim/replication.h),
//  - the disturbance substream stays isolated,
//  - observability output obeys its invariants.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/thread_pool.h"
#include "disk/presets.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "sim/replication.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

std::shared_ptr<const workload::SizeDistribution> Table1Sizes() {
  auto sizes = workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3);
  ZS_CHECK(sizes.ok());
  return std::make_shared<workload::GammaSizeDistribution>(*sizes);
}

// --------------------------------------------------------------------------
// Determinism contract: replicated estimates are bit-identical at any
// thread count (replication r's path depends only on (base_seed, r)).

TEST(BatchKernelTest, BatchedReplicationBitIdenticalAcrossThreadCounts) {
  const auto factory = RoundSimulator::IidFactory(Table1Sizes());
  SimulatorConfig config;
  config.round_length_s = 1.0;

  common::ThreadPool one(1);
  ReplicationOptions options;
  options.replications = 16;
  options.pool = &one;
  const auto reference = EstimateLateProbabilityReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 28, factory,
      config, /*rounds_per_replication=*/25, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 4}) {
    common::ThreadPool pool(threads);
    options.pool = &pool;
    const auto estimate = EstimateLateProbabilityReplicated(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 28,
        factory, config, 25, options);
    ASSERT_TRUE(estimate.ok());
    EXPECT_EQ(estimate->point, reference->point) << threads << " threads";
    EXPECT_EQ(estimate->ci_lower, reference->ci_lower);
    EXPECT_EQ(estimate->ci_upper, reference->ci_upper);
    EXPECT_EQ(estimate->trials, reference->trials);
  }
}

// --------------------------------------------------------------------------
// Disturbance substream isolation: zero
// probability consumes no disturbance draws, and a degenerate constant
// delay shifts every round by exactly N * d.

TEST(BatchKernelTest, BatchedZeroProbabilityDisturbanceMatchesClean) {
  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 707;
  config.disturbance = DisturbanceConfig{};
  auto clean = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(clean.ok());
  DisturbanceConfig none;
  none.probability = 0.0;
  config.disturbance = none;
  auto disturbed = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(disturbed.ok());
  for (int r = 0; r < 100; ++r) {
    EXPECT_DOUBLE_EQ(clean->RunRound().total_service_time_s,
                     disturbed->RunRound().total_service_time_s);
  }
}

TEST(BatchKernelTest, BatchedConstantDelayShiftsRoundsByExactlyNDelay) {
  const int n = 20;
  const double d = 0.01;
  DisturbanceConfig constant;
  constant.probability = 1.0;
  constant.delay_min_s = d;
  constant.delay_max_s = d;

  SimulatorConfig config;
  config.round_length_s = 10.0;  // glitch-free keeps the arms in lockstep
  config.seed = 808;
  config.disturbance = constant;
  auto disturbed = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(disturbed.ok());
  config.disturbance = DisturbanceConfig{};
  auto clean = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(clean.ok());

  for (int r = 0; r < 200; ++r) {
    EXPECT_NEAR(disturbed->RunRound().total_service_time_s,
                clean->RunRound().total_service_time_s + n * d, 1e-9)
        << "round " << r;
  }
}

// --------------------------------------------------------------------------
// Observability invariants.

TEST(BatchKernelTest, BatchedObservabilityInvariantsHold) {
  const int n = 26;
  const int rounds = 300;
  obs::Registry registry;
  obs::RoundTraceRecorder trace;
  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 909;
  config.metrics = &registry;
  config.trace = &trace;
  config.trace_source_id = 4;
  auto simulator = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(simulator.ok());
  double sum = 0.0;
  for (int r = 0; r < rounds; ++r) {
    sum += simulator->RunRound().total_service_time_s;
  }

  EXPECT_EQ(registry.GetCounter("sim.rounds")->value(), rounds);
  EXPECT_EQ(registry.GetCounter("sim.requests")->value(), n * rounds);
  const obs::HistogramSnapshot snapshot =
      registry.GetHistogram("sim.round.service_time_s")->Snapshot();
  EXPECT_EQ(snapshot.count, rounds);
  EXPECT_NEAR(snapshot.mean(), sum / rounds, 1e-12);

  const int num_zones = disk::QuantumViking2100().num_zones();
  int64_t counter_hits = 0;
  for (int z = 0; z < num_zones; ++z) {
    counter_hits +=
        registry.GetCounter("sim.zone_hits." + std::to_string(z))->value();
  }
  EXPECT_EQ(counter_hits, int64_t{n} * rounds);

  const std::vector<obs::RoundTraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(rounds));
  int64_t trace_hits = 0;
  for (const obs::RoundTraceEvent& event : events) {
    EXPECT_EQ(event.source_id, 4);
    EXPECT_EQ(event.num_requests, n);
    EXPECT_NEAR(event.service_time_s,
                event.seek_s + event.rotation_s + event.transfer_s +
                    event.disturbance_delay_s,
                1e-9 * event.service_time_s + 1e-12);
    ASSERT_EQ(event.zone_hits.size(), static_cast<size_t>(num_zones));
    for (int32_t hits : event.zone_hits) trace_hits += hits;
  }
  EXPECT_EQ(trace_hits, int64_t{n} * rounds);
}

}  // namespace
}  // namespace zonestream::sim
