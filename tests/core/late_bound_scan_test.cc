#include "core/late_bound_scan.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/glitch_model.h"
#include "core/service_time_model.h"
#include "disk/presets.h"

namespace zonestream::core {
namespace {

constexpr double kRound = 1.0;

ServiceTimeModel MultiZoneModel() {
  auto model = ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3,
      100e3 * 100e3);
  ZS_CHECK(model.ok());
  return *std::move(model);
}

// The paper's §3.1 single-zone worked example (Table 1 transfer moments).
ServiceTimeModel SingleZoneModel() {
  auto model = ServiceTimeModel::FromTransferMoments(
      disk::QuantumViking2100Seek(), 6720, 8.34e-3, 0.02174, 0.00011815);
  ZS_CHECK(model.ok());
  return *std::move(model);
}

// Warm-started and cold scans minimize the same convex exponent; the
// warm path's relaxed x-tolerance sits in the quadratically flat part of
// the exponent, so the *bounds* must agree to 1e-12.
void ExpectWarmMatchesCold(const ServiceTimeModel& model) {
  LateBoundScan warm(&model, kRound, /*warm_start=*/true);
  LateBoundScan cold(&model, kRound, /*warm_start=*/false);
  for (int n = 1; n <= 64; ++n) {
    const ChernoffResult w = warm.LateBound(n);
    const ChernoffResult c = cold.LateBound(n);
    EXPECT_NEAR(w.bound, c.bound, 1e-12) << "n=" << n;
  }
}

TEST(LateBoundScanTest, WarmMatchesColdMultiZone) {
  ExpectWarmMatchesCold(MultiZoneModel());
}

TEST(LateBoundScanTest, WarmMatchesColdSingleZone) {
  ExpectWarmMatchesCold(SingleZoneModel());
}

TEST(LateBoundScanTest, ColdScanMatchesDirectModelEvaluation) {
  const ServiceTimeModel model = MultiZoneModel();
  LateBoundScan scan(&model, kRound, /*warm_start=*/false);
  for (int n = 1; n <= 40; ++n) {
    const ChernoffResult via_scan = scan.LateBound(n);
    const ChernoffResult direct = model.LateBound(n, kRound);
    // The scan factors the exponent as θ·SEEK(n) + n·(rot+transfer) while
    // the direct path sums n·rot + n·transfer separately, so evaluations
    // differ in the last ulp. Near the minimum the exponent is
    // quadratically flat, so that ulp translates into a relatively large
    // θ* wobble but an O(1e-15) bound difference.
    EXPECT_NEAR(via_scan.bound, direct.bound, 1e-12) << "n=" << n;
    EXPECT_NEAR(via_scan.theta_star, direct.theta_star,
                1e-5 * (1.0 + direct.theta_star))
        << "n=" << n;
  }
}

TEST(LateBoundScanTest, ZeroStreamsNeverLate) {
  const ServiceTimeModel model = MultiZoneModel();
  LateBoundScan scan(&model, kRound);
  EXPECT_DOUBLE_EQ(scan.LateBound(0).bound, 0.0);
}

TEST(LateBoundScanTest, OutOfOrderEvaluationIsStillCorrect) {
  const ServiceTimeModel model = MultiZoneModel();
  LateBoundScan scan(&model, kRound);
  // Descending and repeated n: hints are then always "stale", which may
  // only cost the fallback, never accuracy.
  for (int n : {40, 26, 26, 8, 1, 64}) {
    const double direct = model.LateBound(n, kRound).bound;
    EXPECT_NEAR(scan.LateBound(n).bound, direct, 1e-12) << "n=" << n;
  }
}

TEST(LateBoundScanTest, WarmScanIsMonotoneInN) {
  const ServiceTimeModel model = MultiZoneModel();
  LateBoundScan scan(&model, kRound);
  double prev = 0.0;
  for (int n = 1; n <= 64; ++n) {
    const double bound = scan.LateBound(n).bound;
    EXPECT_GE(bound, prev - 1e-12) << "n=" << n;
    prev = bound;
  }
}

TEST(AdmissionWarmStartTest, MaxStreamsAgreesWithColdScan) {
  const ServiceTimeModel model = MultiZoneModel();
  for (double delta : {0.001, 0.01, 0.05, 0.1}) {
    const int warm_limit =
        MaxStreamsByLateProbability(model, kRound, delta);
    // Cold reference: first n whose direct bound exceeds delta.
    int cold_limit = 0;
    while (model.LateBound(cold_limit + 1, kRound).bound <= delta) {
      ++cold_limit;
    }
    EXPECT_EQ(warm_limit, cold_limit) << "delta=" << delta;
  }
}

// Cold reference for one table row: the pre-optimization algorithm, a
// fresh cold-started scan per tolerance that stops at the first n whose
// quality value (b_late, or p_error from the running mean of b_late)
// exceeds the tolerance.
int ColdRowLimit(const ServiceTimeModel& model, AdmissionCriterion criterion,
                 double tolerance, int m, int g) {
  LateBoundScan scan(&model, kRound, /*warm_start=*/false);
  double late_bound_sum = 0.0;
  int n = 1;
  for (; n <= 4096; ++n) {
    const double b_late = scan.LateBound(n).bound;
    late_bound_sum += b_late;
    const double value =
        criterion == AdmissionCriterion::kLateProbability
            ? b_late
            : GlitchModel::ErrorBoundForGlitchProbability(
                  std::fmin(late_bound_sum / n, 1.0), m, g);
    if (value > tolerance) break;
  }
  return n - 1;
}

TEST(AdmissionWarmStartTest, BuildWarmAndColdRowsIdentical) {
  const ServiceTimeModel model = MultiZoneModel();
  const std::vector<double> tolerances = {0.001, 0.01, 0.05, 0.1};

  for (auto criterion : {AdmissionCriterion::kLateProbability,
                         AdmissionCriterion::kGlitchRate}) {
    auto warm = AdmissionTable::Build(model, criterion, kRound, tolerances,
                                      1200, 12);
    ASSERT_TRUE(warm.ok());
    ASSERT_EQ(warm->rows().size(), tolerances.size());
    for (size_t i = 0; i < tolerances.size(); ++i) {
      EXPECT_EQ(warm->rows()[i].n_max,
                ColdRowLimit(model, criterion, tolerances[i], 1200, 12))
          << "row " << i;
      EXPECT_EQ(warm->rows()[i].tolerance, tolerances[i]);
    }
  }
}

TEST(AdmissionWarmStartTest, BuildIdenticalAcrossThreadCounts) {
  const ServiceTimeModel model = MultiZoneModel();
  const std::vector<double> tolerances = {0.001, 0.01, 0.05, 0.1};

  common::ThreadPool one(1);
  auto reference = AdmissionTable::Build(
      model, AdmissionCriterion::kGlitchRate, kRound, tolerances, 1200, 12,
      {.pool = &one});
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    common::ThreadPool pool(threads);
    auto table = AdmissionTable::Build(
        model, AdmissionCriterion::kGlitchRate, kRound, tolerances, 1200,
        12, {.pool = &pool});
    ASSERT_TRUE(table.ok());
    ASSERT_EQ(table->rows().size(), reference->rows().size());
    for (size_t i = 0; i < table->rows().size(); ++i) {
      EXPECT_EQ(table->rows()[i].n_max, reference->rows()[i].n_max)
          << threads << " threads, row " << i;
    }
  }
}

TEST(AdmissionWarmStartTest, SingleZoneExampleLimitUnchanged) {
  // §3.1 worked example: the warm-started scan must still reproduce the
  // paper's N_max = 26 at delta = 0.01.
  const ServiceTimeModel model = SingleZoneModel();
  EXPECT_EQ(MaxStreamsByLateProbability(model, kRound, 0.01), 26);
}

}  // namespace
}  // namespace zonestream::core
