// array_rebuild: the data plane. video_server_sim's scenario driven
// through MediaServer directly, on a 5-disk RAID-5 array with an
// obs::Registry attached: the 20-clip VBR library is synthesized and
// planned (set-up), then fixed-length passes churn streams at the
// admission limit while disk 2 fails a quarter in and is rebuilt onto
// the spare by about three quarters in, with an in-memory checkpoint
// every kCheckpointEvery rounds. One op is one round: its stream opens
// and closes, RunRound, and the checkpoint when one is due. Single-threaded,
// like video_server_sim: one array at a time, traced or not. Pass by pass
// the thread moves round the CPUs the process may use, so that a run
// samples each of them rather than the speed of whichever it landed on.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "disk/presets.h"
#include "fault/fault_spec.h"
#include "numeric/random.h"
#include "obs/metrics.h"
#include "recovery/snapshot.h"
#include "server/media_server.h"
#include "trace.h"
#include "workload/fragmentation.h"
#include "workload/size_distribution.h"
#include "workload/vbr_trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace zs = zonestream;

constexpr int kDisks = 5;
constexpr int kFailedDisk = 2;
constexpr double kRoundLengthS = 1.0;
constexpr double kDelta = 1e-2;  // planned late tolerance
constexpr int kClips = 20;
constexpr double kClipSeconds = 600.0;
constexpr int kArrivalsPerRound = 6;
constexpr double kDepartureProbability = 1.0 / 1200.0;
constexpr int64_t kPassRounds = 4000;
constexpr int64_t kFailureRound = kPassRounds / 4;
// The rebuild reads kRepairThrottle stripes per round; kRepairStripes
// makes it end around three quarters into the pass.
constexpr int kRepairThrottle = 4;
constexpr int64_t kRepairStripes = kRepairThrottle * kPassRounds * 9 / 20;
constexpr int64_t kCheckpointEvery = 50;
constexpr int kSetups = 3;
// Share of passes dropped at each end before averaging over passes.
constexpr double kPassTrim = 0.1;

// What set-up produces: the library's fragment statistics and the
// planned array configuration every pass starts from.
struct Plan {
  std::shared_ptr<const zs::workload::SizeDistribution> sizes;
  zs::server::MediaServerConfig config;
};

const zs::disk::DiskGeometry& Viking() {
  static const zs::disk::DiskGeometry geometry = zs::disk::QuantumViking2100();
  return geometry;
}
const zs::disk::SeekTimeModel& VikingSeek() {
  static const zs::disk::SeekTimeModel seek = zs::disk::QuantumViking2100Seek();
  return seek;
}

zs::common::StatusOr<Plan> SetUp(uint64_t seed, SpanBuffer* spans) {
  zs::workload::VbrTraceConfig trace_config;
  trace_config.mean_bandwidth_bps = 200e3;
  trace_config.bandwidth_stddev_bps = 95e3;
  trace_config.scene_correlation = 0.9;
  auto generator = zs::workload::VbrTraceGenerator::Create(trace_config, seed);
  if (!generator.ok()) return generator.status();
  std::vector<zs::workload::Fragment> fragments;
  for (int clip = 0; clip < kClips; ++clip) {
    const zs::workload::BandwidthProfile profile =
        Traced(spans, "workload.Generate", -1, -1,
               [&] { return generator->Generate(kClipSeconds); });
    auto clip_fragments = Traced(spans, "workload.FragmentObject", -1, -1, [&] {
      return zs::workload::FragmentObject(profile, kRoundLengthS);
    });
    if (!clip_fragments.ok()) return clip_fragments.status();
    fragments.insert(fragments.end(), clip_fragments->begin(),
                     clip_fragments->end());
  }
  const zs::workload::FragmentMoments moments =
      Traced(spans, "workload.MeasureFragmentMoments", -1, -1,
             [&] { return zs::workload::MeasureFragmentMoments(fragments); });

  auto config = Traced(spans, "server.PlanConfig", -1, -1, [&] {
    return zs::server::MediaServer::PlanConfig(
        Viking(), VikingSeek(), moments.mean_bytes, moments.variance_bytes2,
        kDisks, kRoundLengthS, kDelta, seed);
  });
  if (!config.ok()) return config.status();
  zs::server::RepairPolicy repair;
  repair.throttle_per_round = kRepairThrottle;
  repair.total_stripes = kRepairStripes;
  repair.read_bytes = moments.mean_bytes;
  auto degraded_limit = Traced(spans, "server.PlanDegradedLimit", -1, -1, [&] {
    return zs::server::MediaServer::PlanDegradedLimit(
        Viking(), VikingSeek(), moments.mean_bytes, moments.variance_bytes2,
        kRoundLengthS, kDelta, repair);
  });
  if (!degraded_limit.ok()) return degraded_limit.status();
  auto faults = zs::fault::ParseFaultSpec("disk_failure:at=" +
                                          std::to_string(kFailureRound));
  if (!faults.ok()) return faults.status();

  auto sizes = zs::workload::GammaSizeDistribution::Create(
      moments.mean_bytes, moments.variance_bytes2);
  if (!sizes.ok()) return sizes.status();
  Plan plan;
  plan.sizes =
      std::make_shared<zs::workload::GammaSizeDistribution>(*std::move(sizes));
  plan.config = *config;
  plan.config.parity = true;
  plan.config.repair = repair;
  plan.config.degraded_per_disk_stream_limit = *degraded_limit;
  plan.config.faults = *faults;
  plan.config.fault_disk = kFailedDisk;
  return plan;
}

enum Phase { kClean, kDegraded, kRebuilt };
const char* const kRoundSpan[] = {"server.RunRound.clean",
                                  "server.RunRound.degraded",
                                  "server.RunRound.rebuilt"};

struct PassResult {
  zs::server::ServerStats stats;
  // Untraced passes: rounds per second and round-time quantiles.
  double rounds_per_s = 0.0;
  double round_p50_us = 0.0;
  double round_p99_us = 0.0;
  double wall_s = 0.0;
  double run_round_s = 0.0;      // host time inside RunRound
  int64_t disk_requests = 0;     // the registry's server.requests
  int64_t opens = 0;
  int64_t opens_ok = 0;
  int64_t failed_rounds = 0;     // rounds with an unexpected error
  int64_t limit_violations = 0;  // rounds ending above the limit in force
  int64_t rebuild_done_round = -1;
  bool rebuild_complete = false;
  int64_t last_checkpoint_round = -1;
  bool checkpoint_decodes = false;  // the last checkpoint passed DecodeSnapshot
  std::vector<std::string> notes;
};

// One fixed-length pass on a fresh server. `registry` may be null (the
// obs-overhead comparison); `spans` is null for an untraced pass.
void RunPass(const Plan& plan, uint64_t pass_seed, zs::obs::Registry* registry,
             SpanBuffer* spans, int64_t first_op_id, PassResult* out) {
  zs::server::MediaServerConfig config = plan.config;
  config.seed = pass_seed;
  config.metrics = registry;
  auto created =
      zs::server::MediaServer::Create(Viking(), VikingSeek(), config);
  if (!created.ok()) {
    out->notes.push_back("Create: " + created.status().ToString());
    ++out->failed_rounds;
    return;
  }
  zs::server::MediaServer& server = *created;
  int limit_in_force = server.max_streams();
  server.SetLimitChangeCallback([&](int per_phase, int phases, bool) {
    limit_in_force = per_phase * phases;
  });
  zs::numeric::Rng churn(pass_seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<int> active;
  const auto note = [&](const std::string& what) {
    if (out->notes.size() < 5) out->notes.push_back(what);
  };
  std::vector<double> round_us;
  if (spans == nullptr) round_us.reserve(static_cast<size_t>(kPassRounds));
  std::string last_checkpoint;
  const Clock::time_point pass_start = Clock::now();
  for (int64_t round = 0; round < kPassRounds; ++round) {
    const int64_t op = first_op_id + round;
    const int32_t root = spans != nullptr ? spans->Begin("op", -1, op) : -1;
    const Clock::time_point start = Clock::now();
    bool failed = false;
    for (int k = 0; k < kArrivalsPerRound; ++k) {
      auto id = Traced(spans, "server.OpenStream", root, op,
                       [&] { return server.OpenStream(plan.sizes); });
      ++out->opens;
      if (id.ok()) {
        ++out->opens_ok;
        active.push_back(*id);
      } else if (id.status().code() !=
                 zs::common::StatusCode::kResourceExhausted) {
        note("OpenStream: " + id.status().ToString());
        failed = true;
      }
    }
    for (size_t i = 0; i < active.size();) {
      if (churn.Uniform01() < kDepartureProbability) {
        const auto status =
            Traced(spans, "server.CloseStream", root, op,
                   [&] { return server.CloseStream(active[i]); });
        if (!status.ok()) {
          note("CloseStream: " + status.ToString());
          failed = true;
        }
        active[i] = active.back();
        active.pop_back();
      } else {
        ++i;
      }
    }
    const int32_t run_span =
        spans != nullptr ? spans->Begin(kRoundSpan[kClean], root, op) : -1;
    const Clock::time_point round_start = Clock::now();
    server.RunRound();
    const Clock::time_point round_end = Clock::now();
    out->run_round_s += SecondsBetween(round_start, round_end);
    if (spans != nullptr) {
      spans->End(run_span);
      const Phase phase = server.degraded() || server.rebuild_active()
                              ? kDegraded
                          : server.repair_stripes_rebuilt() > 0 ? kRebuilt
                                                                 : kClean;
      spans->Rename(run_span, kRoundSpan[phase]);
    }
    if (out->rebuild_done_round < 0 && server.repair_stripes_rebuilt() > 0 &&
        !server.rebuild_active()) {
      out->rebuild_done_round = round;
    }
    // Streams the array shed when it turned degraded are gone.
    if (static_cast<size_t>(server.active_streams()) < active.size()) {
      std::erase_if(active,
                    [&](int id) { return !server.GetStreamStats(id).ok(); });
    }
    if (server.active_streams() > limit_in_force) ++out->limit_violations;
    if ((round + 1) % kCheckpointEvery == 0) {
      Traced(spans, "recovery.checkpoint", root, op, [&] {
        zs::recovery::Snapshot snapshot;
        snapshot.meta.round = round + 1;
        snapshot.meta.base_seed = pass_seed;
        snapshot.meta.producer = "perfbench.array_rebuild";
        snapshot.server = server.ExportState();
        if (registry != nullptr) snapshot.registry = registry->ExportState();
        last_checkpoint = zs::recovery::EncodeSnapshot(snapshot);
        out->last_checkpoint_round = round + 1;
        return 0;
      });
    }
    if (spans != nullptr) {
      spans->End(root);
    } else {
      round_us.push_back(1e6 * SecondsBetween(start, Clock::now()));
    }
    if (failed) ++out->failed_rounds;
  }
  out->wall_s = SecondsBetween(pass_start, Clock::now());
  out->rounds_per_s = static_cast<double>(kPassRounds) / out->wall_s;
  out->round_p50_us = Quantile(round_us, 0.5);
  out->round_p99_us = Quantile(round_us, 0.99);
  out->stats = server.GetServerStats();
  out->rebuild_complete = !server.rebuild_active() &&
                          out->stats.repair_stripes_rebuilt == kRepairStripes;
  if (registry != nullptr) {
    out->disk_requests = registry->GetCounter("server.requests")->value();
  }
  const auto decoded = zs::recovery::DecodeSnapshot(last_checkpoint);
  out->checkpoint_decodes =
      decoded.ok() && decoded->server.has_value() &&
      decoded->meta.round == out->last_checkpoint_round &&
      decoded->server->round == out->last_checkpoint_round;
}

// The CPUs the process may run on; empty when they cannot be read.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

// Moves the calling thread onto the `k`-th allowed CPU, cyclically.
void PinToCpu(const std::vector<int>& cpus, size_t k) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[k % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

uint64_t PassSeed(uint64_t seed, int64_t pass) {
  return seed * 0x100000001b3ULL + static_cast<uint64_t>(pass) + 1;
}

bool SameStats(const zs::server::ServerStats& a,
               const zs::server::ServerStats& b) {
  return a.rounds == b.rounds && a.fragments_served == b.fragments_served &&
         a.glitches == b.glitches &&
         a.fragments_retried == b.fragments_retried &&
         a.fragments_dropped == b.fragments_dropped &&
         a.streams_shed == b.streams_shed &&
         a.reconstructed_fragments == b.reconstructed_fragments &&
         a.repair_stripes_rebuilt == b.repair_stripes_rebuilt &&
         a.rounds_degraded == b.rounds_degraded &&
         a.disk_utilization == b.disk_utilization;
}

// The output checks every pass must pass.
void CheckPasses(const std::vector<PassResult>& passes, bool corrupt,
                 Report* report) {
  int64_t failed_rounds = 0, violations = 0, incomplete = 0;
  int64_t served = 0, glitches = 0;
  int64_t earliest_done = kPassRounds, latest_done = 0;
  for (const PassResult& p : passes) {
    failed_rounds += p.failed_rounds;
    violations += p.limit_violations;
    if (!p.rebuild_complete) ++incomplete;
    served += p.stats.fragments_served;
    glitches += p.stats.glitches;
    earliest_done = std::min(earliest_done, p.rebuild_done_round);
    latest_done = std::max(latest_done, p.rebuild_done_round);
    for (const std::string& n : p.notes) {
      std::printf("failure: %s\n", n.c_str());
    }
  }
  report->Check(failed_rounds == 0,
                "no public call returned an unexpected error (" +
                    std::to_string(failed_rounds) + " rounds failed)");
  report->Check(incomplete == 0,
                "the rebuild completed within every pass (rounds " +
                    std::to_string(earliest_done) + ".." +
                    std::to_string(latest_done) + " of " +
                    std::to_string(kPassRounds) + ")");
  report->Check(violations == 0,
                "active_streams() never exceeded the limit in force (" +
                    std::to_string(violations) + " rounds over)");
  const double rate = served > 0 ? static_cast<double>(glitches) /
                                       static_cast<double>(served)
                                 : 1.0;
  const double bound = corrupt ? -1.0 : kDelta;
  report->Check(rate <= bound, "glitched fragments per fragment served " +
                                   std::to_string(rate) + " <= delta " +
                                   std::to_string(bound));
  const auto undecodable = std::count_if(
      passes.begin(), passes.end(),
      [](const PassResult& p) { return !p.checkpoint_decodes; });
  report->Check(undecodable == 0,
                "every pass's last in-memory checkpoint passes DecodeSnapshot "
                "(" + std::to_string(undecodable) + " failed)");
}

}  // namespace

void RunArrayRebuild(const RunOptions& options, Report* report) {
  SpanBuffer setup_spans;
  std::vector<double> setup_s;
  zs::common::StatusOr<Plan> plan = zs::common::Status::Internal("unset");
  const int setups = options.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    const Clock::time_point start = Clock::now();
    plan = SetUp(options.seed, options.trace ? &setup_spans : nullptr);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    const std::string verdict =
        plan.ok() ? std::string("ok") : plan.status().ToString();
    if (!report->Check(plan.ok(), "set-up: " + verdict)) return;
  }
  report->AddContext("per_disk_stream_limit",
                     std::to_string(plan->config.per_disk_stream_limit));
  report->AddContext(
      "degraded_per_disk_stream_limit",
      std::to_string(plan->config.degraded_per_disk_stream_limit));

  const std::vector<int> cpus = AllowedCpus();
  if (!options.trace) {
    // One array, as video_server_sim drives it, running whole passes
    // until the window is used up: every pass has the same
    // clean/degraded/rebuilt mix.
    std::vector<PassResult> passes;
    const Clock::time_point start = Clock::now();
    do {
      PinToCpu(cpus, passes.size());
      zs::obs::Registry registry;
      passes.emplace_back();
      RunPass(*plan, PassSeed(options.seed, static_cast<int64_t>(passes.size())),
              &registry, nullptr, 0, &passes.back());
    } while (SecondsBetween(start, Clock::now()) < options.seconds);
    CheckPasses(passes, options.corrupt_expected, report);
    // Trimmed means over passes: a burst of interference lands in a
    // dropped tail, and a CPU slower than the others shifts the value by
    // its share of the passes instead of tipping a median.
    std::vector<double> rate, p50_us, p99_us;
    int64_t failed = 0;
    for (const PassResult& p : passes) {
      rate.push_back(p.rounds_per_s);
      p50_us.push_back(p.round_p50_us);
      p99_us.push_back(p.round_p99_us);
      failed += p.failed_rounds;
    }
    const auto n = static_cast<int64_t>(passes.size()) * kPassRounds;
    report->attempted = n;
    report->failed = failed;
    report->Add("setup_s", Quantile(setup_s, 0.5), "s",
                static_cast<int64_t>(setup_s.size()));
    report->Add("ops_per_s", TrimmedMean(rate, kPassTrim), "1/s", n);
    report->Add("op_p50_us", TrimmedMean(p50_us, kPassTrim), "us", n);
    report->Add("op_p99_us", TrimmedMean(p99_us, kPassTrim), "us", n);
    report->Add("ok_frac",
                static_cast<double>(n - failed) / static_cast<double>(n),
                "fraction", n);
    report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    return;
  }

  // Traced: pass 1 traced, untraced with the registry (its ServerStats
  // must match; the base of the tracing overhead) and untraced without
  // it (the observability overhead), repeated until the window is used,
  // the three of a round on one CPU. Only the first traced pass keeps its
  // spans.
  const uint64_t pass_seed = PassSeed(options.seed, 1);
  SpanBuffer spans(static_cast<size_t>(kPassRounds) * 12);
  PassResult traced;
  PassResult untraced;
  std::vector<double> traced_wall_s, untraced_wall_s;
  std::vector<double> with_registry_s, without_registry_s;
  int64_t differing = 0;
  const Clock::time_point start = Clock::now();
  do {
    const bool first = traced_wall_s.empty();
    PinToCpu(cpus, traced_wall_s.size());
    SpanBuffer discarded;
    zs::obs::Registry traced_registry, registry;
    PassResult t, with, without;
    RunPass(*plan, pass_seed, &traced_registry, first ? &spans : &discarded,
            0, &t);
    RunPass(*plan, pass_seed, &registry, nullptr, 0, &with);
    RunPass(*plan, pass_seed, nullptr, nullptr, 0, &without);
    traced_wall_s.push_back(t.wall_s);
    untraced_wall_s.push_back(with.wall_s);
    with_registry_s.push_back(with.run_round_s);
    without_registry_s.push_back(without.run_round_s);
    if (!SameStats(without.stats, with.stats) ||
        (!first && !SameStats(t.stats, with.stats))) {
      ++differing;
    }
    if (first) {
      traced = std::move(t);
      untraced = std::move(with);
    }
  } while (traced_wall_s.size() < 2 ||
           SecondsBetween(start, Clock::now()) < options.seconds);
  report->Check(differing == 0,
                "repeated traced passes and passes without the registry "
                "simulate the same array");
  CheckPasses({traced}, options.corrupt_expected, report);
  zs::server::ServerStats expected = untraced.stats;
  if (options.corrupt_expected) ++expected.fragments_served;
  report->Check(SameStats(traced.stats, expected),
                "the traced run's ServerStats equal the untraced run's");
  report->attempted = kPassRounds;
  report->failed = traced.failed_rounds;

  const std::vector<const SpanBuffer*> setup_buffers = {&setup_spans};
  const auto total = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return sum;
  };
  const auto count = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  const std::vector<double> generate_s =
      Durations(setup_buffers, "workload.Generate", 1e-9);
  std::vector<double> fragment_s =
      Durations(setup_buffers, "workload.FragmentObject", 1e-9);
  const std::vector<double> moments_s =
      Durations(setup_buffers, "workload.MeasureFragmentMoments", 1e-9);
  fragment_s.insert(fragment_s.end(), moments_s.begin(), moments_s.end());
  std::vector<double> plan_us =
      Durations(setup_buffers, "server.PlanConfig", 1e-3);
  const std::vector<double> degraded_plan_us =
      Durations(setup_buffers, "server.PlanDegradedLimit", 1e-3);
  plan_us.insert(plan_us.end(), degraded_plan_us.begin(),
                 degraded_plan_us.end());
  report->Add("workload.vbr_generate_s", total(generate_s), "s",
              count(generate_s));
  report->Add("workload.fragment_s", total(fragment_s), "s", count(fragment_s));
  report->Add("server.plan_us", total(plan_us), "us", count(plan_us));

  const std::vector<const SpanBuffer*> buffers = {&spans};
  const char* const round_metric[] = {"server.round_clean_p50_us",
                                      "server.round_degraded_p50_us",
                                      "server.round_rebuilt_p50_us"};
  for (int phase = kClean; phase <= kRebuilt; ++phase) {
    const std::vector<double> us = Durations(buffers, kRoundSpan[phase], 1e-3);
    report->Add(round_metric[phase], Quantile(us, 0.5), "us", count(us));
  }
  report->Add("server.host_ns_per_request",
              untraced.disk_requests > 0
                  ? 1e9 * untraced.run_round_s /
                        static_cast<double>(untraced.disk_requests)
                  : 0.0,
              "ns", untraced.disk_requests);
  const std::vector<double> open_ns =
      Durations(buffers, "server.OpenStream", 1.0);
  const std::vector<double> close_ns =
      Durations(buffers, "server.CloseStream", 1.0);
  report->Add("server.open_stream_ns", Mean(open_ns), "ns", count(open_ns));
  report->Add("server.close_stream_ns", Mean(close_ns), "ns", count(close_ns));
  report->Add("server.admit_ok_frac",
              static_cast<double>(traced.opens_ok) /
                  static_cast<double>(std::max<int64_t>(1, traced.opens)),
              "fraction", traced.opens);
  const std::vector<double> checkpoint_us =
      Durations(buffers, "recovery.checkpoint", 1e-3);
  report->Add("recovery.checkpoint_us", Mean(checkpoint_us), "us",
              count(checkpoint_us));
  report->Add("obs.round_overhead_frac",
              Quantile(with_registry_s, 0.5) /
                      Quantile(without_registry_s, 0.5) -
                  1.0,
              "fraction",
              static_cast<int64_t>(with_registry_s.size()) * kPassRounds);

  const zs::server::ServerStats& s = traced.stats;
  double utilization = 0.0;
  for (double u : s.disk_utilization) utilization += u;
  utilization /=
      static_cast<double>(std::max<size_t>(1, s.disk_utilization.size()));
  const std::pair<const char*, int64_t> counts[] = {
      {"server.sim.fragments_served", s.fragments_served},
      {"server.sim.glitches", s.glitches},
      {"server.sim.reconstructed_fragments", s.reconstructed_fragments},
      {"server.sim.repair_stripes_rebuilt", s.repair_stripes_rebuilt},
      {"server.sim.rounds_degraded", s.rounds_degraded},
      {"server.sim.streams_shed", s.streams_shed},
  };
  for (const auto& [name, value] : counts) {
    report->Add(name, static_cast<double>(value), "count", 1);
  }
  report->Add("server.sim.utilization_mean", utilization, "fraction",
              static_cast<int64_t>(s.disk_utilization.size()));

  const double unattributed = UnattributedFraction(buffers, "op");
  PrintReconciliation(unattributed);
  report->Add("unattributed_frac", unattributed, "fraction", kPassRounds);
  report->Add("trace.overhead_frac",
              Quantile(traced_wall_s, 0.5) / Quantile(untraced_wall_s, 0.5) -
                  1.0,
              "fraction", kPassRounds);
  report->Add("trace.spans", static_cast<double>(SpanCount(buffers)), "count",
              1);
  report->Check(WriteSpans(options.work_dir + "/spans-array_rebuild.csv",
                           {&setup_spans, &spans}),
                "spans written");
}

}  // namespace perfbench
