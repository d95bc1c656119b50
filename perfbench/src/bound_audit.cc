// bound_audit: planning and validation. Each op is one
// sim::CompareBoundsCell call, the entry point of `zonestream_ctl
// compare`, over ComparisonPresetDisks() x four tolerances x both seek
// bounds, with the fragment mean and cv drawn from the seed for each
// (disk, tolerance) pair. Tolerances >= 3e-3 run replicated naive Monte
// Carlo, smaller ones importance sampling, on the global pool.
//
// The traced run replays each cell from the outside: the same model,
// the four analytic engines, and the Monte Carlo scan's estimator calls
// at every N the scan visits, each in its own span. The replay must
// reproduce the cell's columns exactly.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/baselines.h"
#include "core/saddlepoint.h"
#include "core/service_time_model.h"
#include "core/snc.h"
#include "sim/bound_comparison.h"
#include "sim/importance_sampling.h"
#include "sim/replication.h"
#include "sim/round_simulator.h"
#include "trace.h"
#include "workload/size_distribution.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

namespace zs = zonestream;
using zs::core::SeekBoundKind;
using zs::sim::BoundComparisonCell;
using zs::sim::BoundComparisonOptions;
using zs::sim::ComparisonDisk;

constexpr double kTolerances[] = {1e-2, 3e-3, 1e-3, 1e-4};
constexpr int kSetups = 201;
// Share of sweeps dropped at each end before averaging over sweeps.
constexpr double kSweepTrim = 0.1;
constexpr SeekBoundKind kSeekBounds[] = {SeekBoundKind::kEquidistant,
                                         SeekBoundKind::kBachmat};

// One (disk, tolerance) pair with its drawn fragment statistics; both
// seek bounds are evaluated on it.
struct Pair {
  size_t disk = 0;
  double tolerance = 0.0;
  double mean_bytes = 0.0;
  double cv = 0.0;
};

// The i-th sweep visits every (disk, tolerance) pair once, each with a
// fresh draw of mean in [190, 210] KB and cv in [0.475, 0.525] (Table 1's
// 200 KB and 0.5, +-5%: wider draws move N_max, and with it a cell's
// Monte Carlo cost, enough to swamp the run-to-run comparison).
std::vector<Pair> Sweep(std::mt19937_64& rng, size_t disks) {
  std::uniform_real_distribution<double> mean(190e3, 210e3);
  std::uniform_real_distribution<double> cv(0.475, 0.525);
  std::vector<Pair> pairs;
  for (size_t d = 0; d < disks; ++d) {
    for (double tolerance : kTolerances) {
      const double m = mean(rng);
      pairs.push_back({d, tolerance, m, cv(rng)});
    }
  }
  return pairs;
}

BoundComparisonOptions CellOptions(const Pair& pair, SeekBoundKind bound,
                                   uint64_t seed) {
  BoundComparisonOptions options;
  options.mean_size_bytes = pair.mean_bytes;
  const double sd = pair.cv * pair.mean_bytes;
  options.variance_size_bytes2 = sd * sd;
  options.seek_bound = bound;
  options.seed = seed;
  return options;
}

std::string Columns(const BoundComparisonCell& c) {
  char line[160];
  std::snprintf(line, sizeof(line), "%s %.0e wc=%d chernoff=%d saddle=%d "
                "snc=%d mc=%d is=%d",
                c.disk.c_str(), c.tolerance, c.worst_case, c.chernoff,
                c.saddlepoint, c.snc, c.monte_carlo,
                c.mc_importance_sampled ? 1 : 0);
  return line;
}

uint64_t McSeed(uint64_t seed) { return seed * 2654435761ULL + 17; }

// The thread-count check draw: the first pair of the run's first sweep
// on each tolerance extreme (naive and importance-sampled), both bounds.
std::string CheckColumns(uint64_t seed) {
  const std::vector<ComparisonDisk> disks = zs::sim::ComparisonPresetDisks();
  std::mt19937_64 rng(seed);
  const std::vector<Pair> sweep = Sweep(rng, disks.size());
  std::string out;
  for (const Pair& pair : {sweep.front(), sweep[std::size(kTolerances) - 1]}) {
    for (SeekBoundKind bound : kSeekBounds) {
      auto cell = zs::sim::CompareBoundsCell(
          disks[pair.disk], pair.tolerance,
          CellOptions(pair, bound, McSeed(seed)));
      out += (cell.ok() ? Columns(*cell) : cell.status().ToString()) + "\n";
    }
  }
  return out;
}

// Runs this binary again with a one-thread pool and returns its stdout.
zs::common::StatusOr<std::string> CheckColumnsInOneThreadChild(uint64_t seed) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return zs::common::Status::Internal("pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ZONESTREAM_THREADS=", 19) != 0) {
      env_strings.emplace_back(*e);
    }
  }
  env_strings.emplace_back("ZONESTREAM_THREADS=1");
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::string seed_text = std::to_string(seed);
  std::string exe = "/proc/self/exe";
  std::string flag_seed = "--seed";
  std::string flag_check = "--check-columns";
  char* argv[] = {exe.data(), flag_check.data(), flag_seed.data(),
                  seed_text.data(), nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv, envp.data());
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  std::string out;
  if (spawned == 0) {
    char buffer[4096];
    ssize_t got;
    while ((got = read(pipe_fds[0], buffer, sizeof(buffer))) > 0) {
      out.append(buffer, static_cast<size_t>(got));
    }
  }
  close(pipe_fds[0]);
  if (spawned != 0) return zs::common::Status::Internal("posix_spawn failed");
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return zs::common::Status::Internal("check child failed");
  }
  return out;
}

// Per-layer measurements from the traced replays.
struct LayerTotals {
  double process_cpu_s = 0.0;   // across the estimator calls
  double estimator_wall_s = 0.0;
  double simulated_requests = 0.0;  // rounds x N over estimator calls
  int64_t rounds = 0;
  double is_ess = 0.0;
  int64_t is_rounds = 0;
  int64_t replay_mismatches = 0;
};

// Replays one cell's calls from the outside, in spans under `root`.
void ReplayCell(const ComparisonDisk& disk, double tolerance,
                const BoundComparisonOptions& options,
                const BoundComparisonCell& cell, SpanBuffer* spans,
                int32_t root, int64_t op, LayerTotals* totals) {
  const auto span = [&](const char* name, auto body) {
    return Traced(spans, name, root, op, body);
  };
  auto model = span("core.ServiceTimeModel", [&] {
    auto m = zs::core::ServiceTimeModel::ForMultiZoneDisk(
        disk.geometry, disk.seek, options.mean_size_bytes,
        options.variance_size_bytes2);
    return m.ok() ? zs::common::StatusOr<zs::core::ServiceTimeModel>(
                        m->WithSeekBound(options.seek_bound))
                  : m;
  });
  if (!model.ok()) {
    ++totals->replay_mismatches;
    return;
  }
  auto sizes = std::make_shared<zs::workload::GammaSizeDistribution>(
      *zs::workload::GammaSizeDistribution::Create(
          options.mean_size_bytes, options.variance_size_bytes2));
  const double t = options.round_length_s;
  const int wc = span("core.WorstCaseAdmission", [&] {
    return zs::core::WorstCaseAdmission(disk.geometry, disk.seek, *sizes, t,
                                        zs::core::WorstCaseConfig())
        .n_max;
  });
  const int chernoff = span("core.MaxStreamsByLateProbability", [&] {
    return zs::core::MaxStreamsByLateProbability(*model, t, tolerance,
                                                 options.n_cap);
  });
  const int saddle = span("core.SaddlepointMaxStreams", [&] {
    return zs::core::SaddlepointMaxStreams(*model, t, tolerance, options.n_cap);
  });
  const int snc = span("core.SncMaxStreams", [&] {
    return zs::core::SncMaxStreams(*model, t, tolerance, options.n_cap);
  });

  // The Monte Carlo scan: anchored at the Chernoff N_max, walking up
  // while the estimate stays within tolerance (down if the anchor fails).
  zs::sim::SimulatorConfig config;
  config.round_length_s = t;
  config.seed = options.seed;
  zs::sim::ReplicationOptions replication;
  replication.replications = options.mc_replications;
  replication.base_seed = options.seed;
  const bool use_is = tolerance < options.is_tolerance_threshold;
  const auto estimate = [&](int n) -> double {
    const double cpu_before = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    double point = 1.0;
    if (use_is) {
      auto e = span("sim.EstimateLateProbabilityIS", [&] {
        return zs::sim::EstimateLateProbabilityIS(
            disk.geometry, disk.seek, n, sizes, config,
            options.is_rounds_per_replication, replication,
            zs::sim::ImportanceSamplingOptions());
      });
      if (e.ok()) {
        point = e->point;
        totals->rounds += e->rounds;
        totals->is_rounds += e->rounds;
        totals->is_ess += e->ess;
        totals->simulated_requests += static_cast<double>(e->rounds) * n;
      } else {
        ++totals->replay_mismatches;
      }
    } else {
      auto e = span("sim.EstimateLateProbabilityReplicated", [&] {
        return zs::sim::EstimateLateProbabilityReplicated(
            disk.geometry, disk.seek, n,
            zs::sim::RoundSimulator::IidFactory(sizes), config,
            options.mc_rounds_per_replication, replication);
      });
      if (e.ok()) {
        point = e->point;
        totals->rounds += e->trials;
        totals->simulated_requests += static_cast<double>(e->trials) * n;
      } else {
        ++totals->replay_mismatches;
      }
    }
    totals->estimator_wall_s += SecondsBetween(start, Clock::now());
    totals->process_cpu_s += ProcessCpuSeconds() - cpu_before;
    return point;
  };
  int n = std::max(chernoff, 1);
  int mc = n;
  if (estimate(n) > tolerance) {
    while (--n > 0 && estimate(n) > tolerance) {
    }
    mc = n;
  } else {
    while (n < chernoff + options.mc_scan_margin) {
      ++n;
      if (estimate(n) > tolerance) break;
      mc = n;
    }
  }

  span("core.AdmissionTable.Build", [&] {
    zs::core::AdmissionBuildOptions build;
    build.seek_bound = options.seek_bound;
    return zs::core::AdmissionTable::Build(
        *model, zs::core::AdmissionCriterion::kLateProbability, t,
        {tolerance}, 0, 0, build);
  });
  if (wc != cell.worst_case || chernoff != cell.chernoff ||
      saddle != cell.saddlepoint || snc != cell.snc || mc != cell.monte_carlo) {
    ++totals->replay_mismatches;
  }
}

// Counts over the cells one segment of the run evaluated.
struct Tally {
  int64_t cells = 0;
  int64_t failed = 0;
  int64_t snc_off = 0;        // cells with |SNC - Chernoff| > 1
  int64_t bachmat_below = 0;  // pairs with Bachmat Chernoff < equidistant
  int64_t below_chernoff = 0; // cells with MC N_max < Chernoff N_max
  int64_t headroom_sum = 0;   // sum of MC N_max - Chernoff N_max
  std::vector<double> cell_us;
  std::vector<double> sweep_rate;  // cells per second, one per sweep
  // Median cell time, one per sweep. The cell types' times cluster with
  // a wide gap at the middle, so a median over all cells would fall in
  // the gap and move with the extreme cells on either side of it. The
  // run reports trimmed means over sweeps, which move smoothly where a
  // median of these would jump between clusters too.
  std::vector<double> sweep_p50_us;
};

// Evaluates both seek bounds of every pair. With `spans`, each cell is
// an "op" span and its calls are replayed under it.
void RunPairs(const std::vector<ComparisonDisk>& disks,
              const std::vector<Pair>& pairs, uint64_t mc_seed,
              SpanBuffer* spans, LayerTotals* totals, Tally* tally) {
  for (const Pair& pair : pairs) {
    int chernoff_by_bound[2] = {0, 0};
    for (int b = 0; b < 2; ++b) {
      const BoundComparisonOptions options =
          CellOptions(pair, kSeekBounds[b], mc_seed);
      const int64_t op = tally->cells++;
      const int32_t root = spans != nullptr ? spans->Begin("op", -1, op) : -1;
      const Clock::time_point start = Clock::now();
      auto cell = zs::sim::CompareBoundsCell(disks[pair.disk], pair.tolerance,
                                             options);
      tally->cell_us.push_back(1e6 * SecondsBetween(start, Clock::now()));
      if (spans != nullptr) spans->End(root);
      if (!cell.ok()) {
        ++tally->failed;
        std::printf("failure: %s\n", cell.status().ToString().c_str());
        continue;
      }
      if (std::abs(cell->snc - cell->chernoff) > 1) ++tally->snc_off;
      chernoff_by_bound[b] = cell->chernoff;
      tally->headroom_sum += cell->monte_carlo - cell->chernoff;
      if (cell->monte_carlo < cell->chernoff) ++tally->below_chernoff;
      if (spans != nullptr) {
        ReplayCell(disks[pair.disk], pair.tolerance, options, *cell, spans,
                   root, op, totals);
      }
    }
    if (chernoff_by_bound[1] < chernoff_by_bound[0]) ++tally->bachmat_below;
  }
}

}  // namespace

int PrintBoundAuditCheckColumns(uint64_t seed) {
  std::fputs(CheckColumns(seed).c_str(), stdout);
  return 0;
}

void RunBoundAudit(const RunOptions& options, Report* report) {
  const int pool_threads = zs::common::ThreadPool::Global().num_threads();
  // Set-up: the preset disks and the run's first grid draw, all that
  // `zonestream_ctl compare` prepares before its first cell. It takes
  // microseconds, so it is repeated many times for a steady median.
  std::vector<double> setup_s;
  std::vector<ComparisonDisk> disks;
  std::mt19937_64 rng;
  std::vector<Pair> first_sweep;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    disks = zs::sim::ComparisonPresetDisks();
    rng.seed(options.seed);
    first_sweep = Sweep(rng, disks.size());
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  }
  // The reference columns of the thread-count check, at the full pool.
  const std::string expected_columns = CheckColumns(options.seed);
  const auto next_sweep = [&] {
    return first_sweep.empty() ? Sweep(rng, disks.size())
                               : std::exchange(first_sweep, {});
  };

  const uint64_t mc_seed = McSeed(options.seed);
  LayerTotals totals;
  SpanBuffer spans;
  Tally untraced;
  Tally traced;
  if (!options.trace) {
    // Whole sweeps until the window is used up, so every run sees the
    // same mix of disks and tolerances.
    const Clock::time_point start = Clock::now();
    do {
      const Clock::time_point sweep_start = Clock::now();
      const std::vector<Pair> sweep = next_sweep();
      RunPairs(disks, sweep, mc_seed, nullptr, nullptr, &untraced);
      const size_t cells = 2 * sweep.size();
      untraced.sweep_rate.push_back(static_cast<double>(cells) /
                                    SecondsBetween(sweep_start, Clock::now()));
      untraced.sweep_p50_us.push_back(Quantile(
          std::vector<double>(untraced.cell_us.end() -
                                  static_cast<std::ptrdiff_t>(cells),
                              untraced.cell_us.end()),
          0.5));
    } while (SecondsBetween(start, Clock::now()) < options.seconds);
  } else {
    // Whole sweeps untraced for 30% of the window, then the same pairs
    // traced and replayed, for the tracing overhead.
    std::vector<Pair> pairs;
    const Clock::time_point start = Clock::now();
    do {
      const std::vector<Pair> sweep = next_sweep();
      pairs.insert(pairs.end(), sweep.begin(), sweep.end());
      RunPairs(disks, sweep, mc_seed, nullptr, nullptr, &untraced);
    } while (SecondsBetween(start, Clock::now()) < 0.3 * options.seconds);
    RunPairs(disks, pairs, mc_seed, &spans, &totals, &traced);
  }
  Tally& tally = options.trace ? traced : untraced;

  auto child_columns = CheckColumnsInOneThreadChild(options.seed);
  std::string compared = expected_columns;
  if (options.corrupt_expected) compared += "corrupted\n";
  std::fputs(expected_columns.c_str(), stdout);
  report->Check(child_columns.ok() && *child_columns == compared,
                "the N_max columns are identical at 1 and at " +
                    std::to_string(pool_threads) + " pool threads on one draw");
  report->attempted = tally.cells;
  report->failed = tally.failed;
  report->Check(tally.failed == 0,
                "every cell returned ok (" + std::to_string(tally.failed) +
                    " of " + std::to_string(tally.cells) + " failed)");
  report->Check(tally.snc_off == 0,
                "SNC is within +-1 of Chernoff on every cell (" +
                    std::to_string(tally.snc_off) + " off)");
  report->Check(tally.bachmat_below == 0,
                "the Bachmat Chernoff N_max is >= the equidistant one on every "
                "draw (" + std::to_string(tally.bachmat_below) + " below)");

  const auto n = static_cast<int64_t>(tally.cell_us.size());
  if (!options.trace) {
    report->Add("setup_s", Quantile(setup_s, 0.5), "s",
                static_cast<int64_t>(setup_s.size()));
    report->Add("ops_per_s", TrimmedMean(tally.sweep_rate, kSweepTrim), "1/s",
                tally.cells);
    report->Add("op_p50_us", TrimmedMean(tally.sweep_p50_us, kSweepTrim), "us",
                n);
    report->Add("op_p99_us", Quantile(tally.cell_us, 0.99), "us", n);
    report->Add("ok_frac",
                static_cast<double>(tally.cells - tally.failed) /
                    static_cast<double>(tally.cells),
                "fraction", tally.cells);
    report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    return;
  }

  report->Check(totals.replay_mismatches == 0,
                "the replayed calls reproduce every cell's columns (" +
                    std::to_string(totals.replay_mismatches) + " mismatches)");
  const std::vector<const SpanBuffer*> buffers = {&spans};
  const auto mean_of = [&](const char* metric, const char* span_name,
                           double scale, const char* unit) {
    const std::vector<double> d = Durations(buffers, span_name, scale);
    report->Add(metric, Mean(d), unit, static_cast<int64_t>(d.size()));
  };
  mean_of("core.model_us", "core.ServiceTimeModel", 1e-3, "us");
  mean_of("core.worst_case_nmax_us", "core.WorstCaseAdmission", 1e-3, "us");
  mean_of("core.chernoff_nmax_us", "core.MaxStreamsByLateProbability", 1e-3,
          "us");
  mean_of("core.saddlepoint_nmax_us", "core.SaddlepointMaxStreams", 1e-3, "us");
  mean_of("core.snc_nmax_us", "core.SncMaxStreams", 1e-3, "us");
  mean_of("core.table_build_us", "core.AdmissionTable.Build", 1e-3, "us");
  mean_of("sim.naive_estimate_ms", "sim.EstimateLateProbabilityReplicated",
          1e-6, "ms");
  mean_of("sim.is_estimate_ms", "sim.EstimateLateProbabilityIS", 1e-6, "ms");
  report->Add("sim.rounds_simulated", static_cast<double>(totals.rounds),
              "count", 1);
  report->Add("sim.host_ns_per_request",
              totals.simulated_requests > 0
                  ? 1e9 * totals.estimator_wall_s / totals.simulated_requests
                  : 0.0,
              "ns", static_cast<int64_t>(totals.simulated_requests));
  report->Add("sim.is_ess_frac",
              totals.is_rounds > 0
                  ? totals.is_ess / static_cast<double>(totals.is_rounds)
                  : 0.0,
              "fraction", totals.is_rounds);
  report->Add("common.pool_efficiency",
              totals.estimator_wall_s > 0
                  ? totals.process_cpu_s /
                        (totals.estimator_wall_s * pool_threads)
                  : 0.0,
              "fraction", pool_threads);
  report->Add("sim.mc_headroom_mean",
              static_cast<double>(tally.headroom_sum) /
                  static_cast<double>(std::max<int64_t>(1, tally.cells)),
              "streams", tally.cells);
  report->Add("sim.mc_below_chernoff_cells",
              static_cast<double>(tally.below_chernoff), "count", tally.cells);
  // The table build is not part of a cell: leave it out of the
  // reconciliation of replayed calls against the cell's own time.
  double build_ns = 0.0;
  for (double d : Durations(buffers, "core.AdmissionTable.Build", 1.0)) {
    build_ns += d;
  }
  double op_ns = 0.0;
  for (double d : Durations(buffers, "op", 1.0)) op_ns += d;
  const double unattributed =
      UnattributedFraction(buffers, "op") + build_ns / op_ns;
  PrintReconciliation(unattributed);
  report->Add("unattributed_frac", unattributed, "fraction", n);
  double untraced_sum = 0.0, traced_sum = 0.0;
  for (double us : untraced.cell_us) untraced_sum += us;
  for (double us : traced.cell_us) traced_sum += us;
  report->Add("trace.overhead_frac", traced_sum / untraced_sum - 1.0,
              "fraction", n);
  report->Add("trace.spans", static_cast<double>(SpanCount(buffers)), "count",
              1);
  report->Check(
      WriteSpans(options.work_dir + "/spans-bound_audit.csv", buffers),
      "spans written");
}

}  // namespace perfbench
