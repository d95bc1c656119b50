// admit_churn: the deployed control plane, closed loop. An in-process
// AdmitDaemon serves an AdmissionService (with an obs::Registry attached,
// as zonestream_admitd does) on its own thread; three persistent
// AdmitClient connections, one thread each, churn through their own
// ledgers of ~20k live sessions. Every answer must be the one the
// client's ledger predicts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/admission.h"
#include "core/service_time_model.h"
#include "disk/presets.h"
#include "obs/metrics.h"
#include "service/admission_service.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace zs = zonestream;
namespace svc = zonestream::service;

constexpr int kConnections = 3;
constexpr int64_t kLivePerConnection = 20000;
// A ledger flips admits to teardowns (and back) outside +-10% of its
// target, so the live set stays near 3 x 20k sessions.
constexpr double kLiveSlack = 0.1;
// limit_scale keeps every class at least 25% below its limit, so no
// admit is ever refused for capacity and a reject is a wrong answer.
constexpr double kHeadroom = 0.75;
constexpr int kSetups = 7;
// The window is cut into equal slices; end-to-end figures are medians
// over slices, so a burst of interference moves few of them.
constexpr size_t kSlices = 10;
constexpr size_t kMaxFailureNotes = 5;
constexpr double kMaxTracedSeconds = 3.0;

const svc::AdmissionClassConfig kClasses[] = {
    {"gold", 1e-3}, {"silver", 1e-2}, {"bronze", 5e-2}};
constexpr uint32_t kClassCount = 3;
// Tolerances AdmitTolerance asks for; each maps to the loosest class
// whose tolerance does not exceed it.
constexpr double kAskedTolerances[] = {1e-3, 4e-3, 1e-2, 2.5e-2, 5e-2, 0.2};

enum class Op : uint8_t {
  kAdmitClass,
  kAdmitTolerance,
  kTeardown,
  kTransition,
  kStats
};
const char* const kCallSpan[] = {
    "service.client.AdmitClass", "service.client.AdmitTolerance",
    "service.client.Teardown", "service.client.Transition",
    "service.client.Stats"};

uint32_t ClassForTolerance(double tolerance) {
  uint32_t chosen = 0;
  for (uint32_t i = 0; i < kClassCount; ++i) {
    if (kClasses[i].tolerance <= tolerance) chosen = i;
  }
  return chosen;
}

// One traced RPC, kept for the admission-layer replay and the codec pass.
struct RecordedOp {
  svc::Request request;
  svc::Response response;
};

struct Connection {
  std::unique_ptr<svc::AdmitClient> client;
  std::vector<std::pair<uint64_t, uint32_t>> ledger;  // owned sessions
  uint64_t next_session_id = 0;
  std::mt19937_64 rng;
  int64_t requests = 0;  // every RPC sent on this connection
  int64_t ops = 0;       // RPCs in measured windows
  int64_t failed = 0;
  int64_t admits = 0;
  int64_t admits_ok = 0;
  double max_occupancy_frac = 0.0;
  std::vector<std::string> failure_notes;
  bool corrupt_next_admit = false;
  // Untraced windows: latency (ns) and op count per time slice.
  std::vector<Histogram> slice_latency_ns;
  std::vector<int64_t> slice_ops;
  Clock::time_point window_start;
  double slice_s = 1.0;
  SpanBuffer spans;                // traced window
  double traced_cpu_s = 0.0;       // this thread's CPU in traced windows
  std::vector<RecordedOp> recorded;
};

struct Fixture {
  ~Fixture() { Stop(); }
  void Stop() {
    if (serve_thread.joinable()) {
      daemon->RequestShutdown();
      serve_thread.join();
    }
  }

  std::vector<int64_t> limits;
  zs::obs::Registry registry;
  std::unique_ptr<svc::AdmissionService> service;
  std::unique_ptr<svc::AdmitDaemon> daemon;
  std::thread serve_thread;
  std::vector<Connection> connections;
};

svc::AdmissionServiceConfig ServiceConfig(int64_t scale,
                                          zs::obs::Registry* registry) {
  svc::AdmissionServiceConfig config;
  config.classes.assign(std::begin(kClasses), std::end(kClasses));
  config.limit_scale = scale;
  config.registry.capacity = 1 << 17;
  config.metrics = registry;
  return config;
}

void NoteFailure(Connection& c, const std::string& what) {
  ++c.failed;
  if (c.failure_notes.size() < kMaxFailureNotes) {
    c.failure_notes.push_back(what);
  }
}

// Issues one RPC chosen from the op mix, checks the answer against the
// ledger, and updates the ledger with what the daemon actually did.
void OneOp(Connection& c, const std::vector<int64_t>& limits, bool traced,
           int64_t op_id) {
  const int32_t root = traced ? c.spans.Begin("op", -1, op_id) : -1;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double u = unit(c.rng);
  Op op = u < 0.01   ? Op::kStats
          : u < 0.10 ? Op::kTransition
          : u < 0.325 ? Op::kAdmitClass
          : u < 0.55  ? Op::kAdmitTolerance
                      : Op::kTeardown;
  const auto target = static_cast<double>(kLivePerConnection);
  const auto live = static_cast<double>(c.ledger.size());
  if (op <= Op::kAdmitTolerance && live >= target * (1.0 + kLiveSlack)) {
    op = Op::kTeardown;
  } else if (op == Op::kTeardown && live <= target * (1.0 - kLiveSlack)) {
    op = Op::kAdmitClass;
  }
  const bool is_admit = op <= Op::kAdmitTolerance;

  svc::Request request;
  size_t index = 0;
  uint32_t expected_class = 0;
  switch (op) {
    case Op::kAdmitClass:
      request.op = svc::OpCode::kAdmitClass;
      request.session_id = c.next_session_id++;
      request.class_index = static_cast<uint32_t>(c.rng() % kClassCount);
      expected_class = request.class_index;
      break;
    case Op::kAdmitTolerance:
      request.op = svc::OpCode::kAdmitTolerance;
      request.session_id = c.next_session_id++;
      request.tolerance =
          kAskedTolerances[c.rng() % std::size(kAskedTolerances)];
      expected_class = ClassForTolerance(request.tolerance);
      break;
    case Op::kTeardown:
      request.op = svc::OpCode::kTeardown;
      index = static_cast<size_t>(c.rng() % c.ledger.size());
      request.session_id = c.ledger[index].first;
      expected_class = c.ledger[index].second;
      break;
    case Op::kTransition:
      request.op = svc::OpCode::kTransition;
      index = static_cast<size_t>(c.rng() % c.ledger.size());
      request.session_id = c.ledger[index].first;
      request.class_index = static_cast<uint32_t>(
          (c.ledger[index].second + 1 + c.rng() % 2) % kClassCount);
      expected_class = request.class_index;
      break;
    case Op::kStats:
      request.op = svc::OpCode::kStats;
      break;
  }
  if (is_admit && c.corrupt_next_admit) {
    expected_class = (expected_class + 1) % kClassCount;
    c.corrupt_next_admit = false;
  }

  const int32_t call =
      traced ? c.spans.Begin(kCallSpan[static_cast<int>(op)], root, op_id)
             : -1;
  const Clock::time_point start = Clock::now();
  zs::common::StatusOr<svc::Response> response =
      zs::common::Status::Internal("unset");
  zs::common::StatusOr<svc::ServiceStats> stats =
      zs::common::Status::Internal("unset");
  switch (op) {
    case Op::kAdmitClass:
      response = c.client->AdmitClass(request.session_id, request.class_index);
      break;
    case Op::kAdmitTolerance:
      response = c.client->AdmitTolerance(request.session_id,
                                          request.tolerance);
      break;
    case Op::kTeardown:
      response = c.client->Teardown(request.session_id);
      break;
    case Op::kTransition:
      response = c.client->Transition(request.session_id, request.class_index);
      break;
    case Op::kStats:
      stats = c.client->Stats();
      break;
  }
  const Clock::time_point end = Clock::now();
  if (traced) {
    c.spans.End(call);
  } else {
    const auto slice = std::min(
        c.slice_ops.size() - 1,
        static_cast<size_t>(SecondsBetween(c.window_start, end) / c.slice_s));
    c.slice_latency_ns[slice].Add(1e9 * SecondsBetween(start, end));
    ++c.slice_ops[slice];
  }
  ++c.requests;
  ++c.ops;

  if (op == Op::kStats) {
    if (!stats.ok()) {
      NoteFailure(c, "stats: " + stats.status().ToString());
    } else if (stats->classes.size() != kClassCount) {
      NoteFailure(c, "stats: wrong class count");
    } else {
      for (uint32_t i = 0; i < kClassCount; ++i) {
        const svc::ServiceClassStats& cls = stats->classes[i];
        if (cls.limit != limits[i] || cls.occupancy < 0 ||
            cls.occupancy > cls.limit) {
          NoteFailure(c, "stats: class " + std::to_string(i) +
                             " limit/occupancy out of range");
          break;
        }
        c.max_occupancy_frac =
            std::max(c.max_occupancy_frac, static_cast<double>(cls.occupancy) /
                                               static_cast<double>(cls.limit));
      }
    }
    if (traced && stats.ok()) {
      svc::Response encoded;
      encoded.payload = svc::EncodeServiceStats(*stats);
      c.recorded.push_back({request, std::move(encoded)});
    }
    if (traced) c.spans.End(root);
    return;
  }

  if (is_admit) ++c.admits;
  if (!response.ok()) {
    NoteFailure(c, "transport: " + response.status().ToString());
  } else {
    const svc::Response& r = *response;
    if (r.status != svc::WireStatus::kOk) {
      NoteFailure(c, std::string(svc::WireStatusName(r.status)) +
                         " for session " + std::to_string(request.session_id));
    } else {
      if (is_admit) ++c.admits_ok;
      const bool checks_limit = is_admit || op == Op::kTransition;
      if (r.session_id != request.session_id ||
          r.class_index != expected_class ||
          (checks_limit && r.limit != limits[r.class_index % kClassCount])) {
        NoteFailure(c, "answer for session " +
                           std::to_string(request.session_id) +
                           " disagrees with the ledger (class " +
                           std::to_string(r.class_index) + ", expected " +
                           std::to_string(expected_class) + ")");
      }
      if (checks_limit && r.limit > 0) {
        c.max_occupancy_frac =
            std::max(c.max_occupancy_frac, static_cast<double>(r.occupancy) /
                                               static_cast<double>(r.limit));
      }
      // The ledger follows what the daemon did, so a wrong answer does
      // not cascade into later ones.
      if (is_admit) {
        c.ledger.emplace_back(request.session_id, r.class_index);
      } else if (op == Op::kTeardown) {
        c.ledger[index] = c.ledger.back();
        c.ledger.pop_back();
      } else {
        c.ledger[index].second = r.class_index;
      }
    }
    if (traced) c.recorded.push_back({request, r});
  }
  if (traced) c.spans.End(root);
}

// Runs `body(connection)` on one thread per connection and joins them.
template <typename Body>
void OnEveryConnection(Fixture& f, Body body) {
  std::vector<std::thread> threads;
  for (Connection& c : f.connections) {
    threads.emplace_back([&c, &body] { body(c); });
  }
  for (std::thread& t : threads) t.join();
}

zs::common::StatusOr<std::unique_ptr<Fixture>> SetUp(
    const RunOptions& options, const std::string& socket_path) {
  auto model = zs::core::ServiceTimeModel::ForMultiZoneDisk(
      zs::disk::QuantumViking2100(), zs::disk::QuantumViking2100Seek(), 200e3,
      100e3 * 100e3);
  if (!model.ok()) return model.status();
  std::vector<double> tolerances;
  for (const auto& cls : kClasses) tolerances.push_back(cls.tolerance);
  auto table = zs::core::AdmissionTable::Build(
      *model, zs::core::AdmissionCriterion::kLateProbability, 1.0, tolerances);
  if (!table.ok()) return table.status();
  int min_row = table->MaxStreams(tolerances[0]);
  for (double tolerance : tolerances) {
    min_row = std::min(min_row, table->MaxStreams(tolerance));
  }
  if (min_row <= 0) {
    return zs::common::Status::Internal("admission table admits nobody");
  }
  const auto scale = static_cast<int64_t>(std::ceil(
      kConnections * kLivePerConnection * (1.0 + kLiveSlack) / kHeadroom /
      min_row));

  auto f = std::make_unique<Fixture>();
  for (double tolerance : tolerances) {
    f->limits.push_back(table->MaxStreams(tolerance) * scale);
  }
  auto service =
      svc::AdmissionService::Create(ServiceConfig(scale, &f->registry));
  if (!service.ok()) return service.status();
  f->service = std::move(*service);
  f->service->PublishTable(*table);
  f->service->PublishScale(scale);

  svc::DaemonOptions daemon_options;
  daemon_options.socket_path = socket_path;
  auto daemon = svc::AdmitDaemon::Create(f->service.get(), daemon_options);
  if (!daemon.ok()) return daemon.status();
  f->daemon = std::move(*daemon);
  svc::AdmitDaemon* raw_daemon = f->daemon.get();
  f->serve_thread = std::thread([raw_daemon] {
    const auto status = raw_daemon->Serve();
    if (!status.ok()) {
      std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
    }
  });

  f->connections.resize(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    Connection& c = f->connections[static_cast<size_t>(i)];
    auto client = svc::AdmitClient::Connect(socket_path);
    if (!client.ok()) return client.status();
    c.client = std::move(*client);
    c.rng.seed(options.seed * 1000003u + static_cast<uint64_t>(i));
    c.next_session_id = (static_cast<uint64_t>(i) + 1) << 40;
    c.ledger.reserve(static_cast<size_t>(kLivePerConnection * 2));
  }
  OnEveryConnection(*f, [](Connection& c) {
    for (int64_t k = 0; k < kLivePerConnection; ++k) {
      const uint64_t id = c.next_session_id++;
      const auto cls = static_cast<uint32_t>(c.rng() % kClassCount);
      auto r = c.client->AdmitClass(id, cls);
      ++c.requests;
      if (r.ok() && r->status == svc::WireStatus::kOk) {
        c.ledger.emplace_back(id, cls);
      } else {
        NoteFailure(c, "prepopulating admit refused");
      }
    }
  });
  for (const Connection& c : f->connections) {
    if (c.failed != 0) {
      return zs::common::Status::Internal(
          "prepopulation failed: " + c.failure_notes.front());
    }
  }
  return f;
}

struct WindowResult {
  int64_t ops = 0;
  double wall_s = 0.0;
  double daemon_cpu_s = 0.0;
};

WindowResult RunWindow(Fixture& f, double seconds, bool traced) {
  const int64_t ops_before = [&] {
    int64_t n = 0;
    for (const Connection& c : f.connections) n += c.ops;
    return n;
  }();
  const double daemon_cpu_before =
      ThreadCpuSeconds(f.serve_thread.native_handle());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const std::vector<int64_t>& limits = f.limits;
  for (Connection& c : f.connections) {
    c.window_start = start;
    c.slice_s = seconds / kSlices;
    c.slice_latency_ns.assign(kSlices, Histogram());
    c.slice_ops.assign(kSlices, 0);
  }
  OnEveryConnection(f, [&](Connection& c) {
    // Op ids interleave the connections: op k of connection i is
    // k * kConnections + i.
    const auto index = static_cast<int64_t>(&c - f.connections.data());
    const double cpu_before = ThreadCpuSeconds();
    while (Clock::now() < deadline) {
      OneOp(c, limits, traced, c.ops * kConnections + index);
    }
    if (traced) c.traced_cpu_s += ThreadCpuSeconds() - cpu_before;
  });
  WindowResult result;
  result.wall_s = SecondsBetween(start, Clock::now());
  result.daemon_cpu_s =
      ThreadCpuSeconds(f.serve_thread.native_handle()) - daemon_cpu_before;
  for (const Connection& c : f.connections) result.ops += c.ops;
  result.ops -= ops_before;
  return result;
}

// Replays the traced window's admission ops against a second service
// that starts from the window's initial ledgers, timing each call.
void ReplayAdmission(
    const Fixture& f,
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& initial,
    Report* report) {
  zs::obs::Registry registry;
  auto service = svc::AdmissionService::Create(ServiceConfig(1, &registry));
  if (!report->Check(service.ok() && (*service)->PublishLimits(f.limits).ok(),
                     "replay service created with the daemon's limits")) {
    return;
  }
  for (const auto& ledger : initial) {
    for (const auto& [id, cls] : ledger) (*service)->Admit(id, cls);
  }
  std::vector<double> admit_ns, teardown_ns, transition_ns;
  int64_t mismatches = 0;
  for (const Connection& c : f.connections) {
    for (const RecordedOp& op : c.recorded) {
      const svc::Request& q = op.request;
      svc::ServiceOutcome out;
      const int64_t start = NowNs();
      switch (q.op) {
        case svc::OpCode::kAdmitClass:
          out = (*service)->Admit(q.session_id, q.class_index);
          break;
        case svc::OpCode::kAdmitTolerance:
          out = (*service)->AdmitByTolerance(q.session_id, q.tolerance);
          break;
        case svc::OpCode::kTeardown:
          out = (*service)->Teardown(q.session_id);
          break;
        case svc::OpCode::kTransition:
          out = (*service)->Transition(q.session_id, q.class_index);
          break;
        default:
          continue;
      }
      const auto ns = static_cast<double>(NowNs() - start);
      if (q.op == svc::OpCode::kTeardown) {
        teardown_ns.push_back(ns);
      } else if (q.op == svc::OpCode::kTransition) {
        transition_ns.push_back(ns);
      } else {
        admit_ns.push_back(ns);
      }
      if (svc::WireStatusFromResult(out.result) != op.response.status ||
          out.class_index != op.response.class_index) {
        ++mismatches;
      }
    }
  }
  report->Check(mismatches == 0,
                "replayed admission ops answer as the daemon did (" +
                    std::to_string(mismatches) + " mismatches)");
  report->Add("service.admission.admit_ns", Mean(admit_ns), "ns",
              static_cast<int64_t>(admit_ns.size()));
  report->Add("service.admission.teardown_ns", Mean(teardown_ns), "ns",
              static_cast<int64_t>(teardown_ns.size()));
  report->Add("service.admission.transition_ns", Mean(transition_ns), "ns",
              static_cast<int64_t>(transition_ns.size()));
}

// Encodes and decodes every traced request and response frame.
void MeasureCodec(const Fixture& f, Report* report) {
  int64_t frames = 0;
  int64_t bad = 0;
  const int64_t start = NowNs();
  for (const Connection& c : f.connections) {
    for (const RecordedOp& op : c.recorded) {
      const auto request = svc::DecodeRequest(svc::EncodeRequest(op.request));
      const auto response =
          svc::DecodeResponse(svc::EncodeResponse(op.response));
      if (!request.ok() || !response.ok() ||
          request->session_id != op.request.session_id ||
          response->status != op.response.status ||
          response->payload != op.response.payload) {
        ++bad;
      }
      ++frames;
    }
  }
  const auto elapsed = static_cast<double>(NowNs() - start);
  report->Check(bad == 0, "every traced frame survives an encode/decode "
                          "round trip");
  report->Add("service.protocol.codec_ns",
              frames > 0 ? elapsed / static_cast<double>(frames) : 0.0, "ns",
              frames);
}

}  // namespace

void RunAdmitChurn(const RunOptions& options, Report* report) {
  report->AddContext("client_connections", std::to_string(kConnections));
  const std::string socket_prefix =
      options.work_dir + "/admitd-" + std::to_string(::getpid()) + "-";

  // Set up several times and report the median; only the last fixture
  // serves the measured window.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  const int setups = options.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    fixture.reset();
    const Clock::time_point start = Clock::now();
    auto built = SetUp(options, socket_prefix + std::to_string(i) + ".sock");
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    const std::string verdict =
        built.ok() ? std::string("ok") : built.status().ToString();
    if (!report->Check(built.ok(), "setup: " + verdict)) return;
    fixture = std::move(*built);
  }
  Fixture& f = *fixture;
  f.connections[0].corrupt_next_admit = options.corrupt_expected;

  WindowResult untraced;
  WindowResult traced;
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> initial;
  if (!options.trace) {
    untraced = RunWindow(f, options.seconds, false);
  } else {
    // Untraced segments before and after the traced one are the base of
    // the tracing overhead; bracketing cancels a steady drift in host
    // speed. The traced segment is capped so that its spans and recorded
    // frames stay a few hundred MB at most.
    const double traced_s = std::min(0.3 * options.seconds, kMaxTracedSeconds);
    const double untraced_s = 0.5 * (options.seconds - traced_s);
    untraced = RunWindow(f, untraced_s, false);
    for (Connection& c : f.connections) {
      initial.push_back(c.ledger);
      c.recorded.reserve(1 << 20);
    }
    traced = RunWindow(f, traced_s, true);
    const WindowResult after = RunWindow(f, untraced_s, false);
    untraced.ops += after.ops;
    untraced.wall_s += after.wall_s;
  }

  // Drain: every connection tears down what it owns; then the service
  // must report an empty registry and zero occupancy.
  OnEveryConnection(f, [](Connection& c) {
    for (const auto& [id, cls] : c.ledger) {
      auto r = c.client->Teardown(id);
      ++c.requests;
      if (!r.ok() || r->status != svc::WireStatus::kOk ||
          r->class_index != cls) {
        NoteFailure(c, "drain teardown of " + std::to_string(id) + " failed");
      }
    }
    c.ledger.clear();
  });
  auto final_stats = f.connections[0].client->Stats();
  ++f.connections[0].requests;
  bool drained = final_stats.ok() && final_stats->live_sessions == 0;
  if (final_stats.ok()) {
    for (const auto& cls : final_stats->classes) {
      drained = drained && cls.occupancy == 0;
    }
  }
  int64_t client_requests = 0;
  int64_t retries = 0;
  for (const Connection& c : f.connections) {
    client_requests += c.requests;
    retries += c.client->retries();
  }
  f.Stop();

  int64_t ops = 0, failed = 0, admits = 0, admits_ok = 0;
  double max_occupancy_frac = 0.0;
  for (const Connection& c : f.connections) {
    ops += c.ops;
    failed += c.failed;
    admits += c.admits;
    admits_ok += c.admits_ok;
    max_occupancy_frac = std::max(max_occupancy_frac, c.max_occupancy_frac);
    for (const std::string& note : c.failure_notes) {
      std::printf("failure: %s\n", note.c_str());
    }
  }
  report->attempted = ops;
  report->failed = failed;
  report->Check(failed == 0, "every answer matches the client ledger (" +
                                 std::to_string(failed) + " of " +
                                 std::to_string(ops) + " differ)");
  report->Check(drained, "after the drain Stats() reports 0 live sessions "
                         "and 0 occupancy in every class");
  report->Check(f.daemon->requests_served() == client_requests,
                "the daemon served exactly the " +
                    std::to_string(client_requests) +
                    " requests the clients sent");
  report->Check(max_occupancy_frac <= kHeadroom,
                "every class stayed at least 25% below its limit (peak " +
                    std::to_string(max_occupancy_frac) + " of the limit)");

  if (!options.trace) {
    std::vector<double> rate, p50_us, p99_us;
    for (size_t k = 0; k < kSlices; ++k) {
      Histogram latency_ns;
      int64_t slice_ops = 0;
      for (const Connection& c : f.connections) {
        latency_ns.Merge(c.slice_latency_ns[k]);
        slice_ops += c.slice_ops[k];
      }
      rate.push_back(static_cast<double>(slice_ops) * kSlices /
                     untraced.wall_s);
      p50_us.push_back(1e-3 * latency_ns.Quantile(0.5));
      p99_us.push_back(1e-3 * latency_ns.Quantile(0.99));
    }
    report->Add("setup_s", Quantile(setup_s, 0.5), "s",
                static_cast<int64_t>(setup_s.size()));
    report->Add("ops_per_s", Quantile(rate, 0.5), "1/s", untraced.ops);
    report->Add("op_p50_us", Quantile(p50_us, 0.5), "us", untraced.ops);
    report->Add("op_p99_us", Quantile(p99_us, 0.5), "us", untraced.ops);
    report->Add("ok_frac",
                static_cast<double>(ops - failed) / static_cast<double>(ops),
                "fraction", ops);
    report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    return;
  }

  std::vector<const SpanBuffer*> buffers;
  for (const Connection& c : f.connections) buffers.push_back(&c.spans);
  std::vector<double> admit_us = Durations(buffers, kCallSpan[0], 1e-3);
  const std::vector<double> by_tolerance =
      Durations(buffers, kCallSpan[1], 1e-3);
  admit_us.insert(admit_us.end(), by_tolerance.begin(), by_tolerance.end());
  const std::vector<double> teardown_us =
      Durations(buffers, kCallSpan[2], 1e-3);
  const std::vector<double> transition_us =
      Durations(buffers, kCallSpan[3], 1e-3);
  const std::vector<double> stats_us = Durations(buffers, kCallSpan[4], 1e-3);
  std::vector<double> rtt_us;
  for (int k = 0; k < 5; ++k) {
    const std::vector<double> d = Durations(buffers, kCallSpan[k], 1e-3);
    rtt_us.insert(rtt_us.end(), d.begin(), d.end());
  }
  const auto count = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  report->Add("service.client.admit_p50_us", Quantile(admit_us, 0.5), "us",
              count(admit_us));
  report->Add("service.client.admit_p99_us", Quantile(admit_us, 0.99), "us",
              count(admit_us));
  report->Add("service.client.teardown_p50_us", Quantile(teardown_us, 0.5),
              "us", count(teardown_us));
  report->Add("service.client.transition_p50_us",
              Quantile(transition_us, 0.5), "us", count(transition_us));
  report->Add("service.client.stats_p50_us", Quantile(stats_us, 0.5), "us",
              count(stats_us));

  double client_cpu_s = 0.0;
  for (const Connection& c : f.connections) client_cpu_s += c.traced_cpu_s;
  const double requests = static_cast<double>(traced.ops);
  const double rtt_mean_us = Mean(rtt_us);
  const double daemon_us = 1e6 * traced.daemon_cpu_s / requests;
  const double client_us = 1e6 * client_cpu_s / requests;
  report->Add("service.client.rtt_mean_us", rtt_mean_us, "us", count(rtt_us));
  report->Add("service.daemon.cpu_us_per_req", daemon_us, "us", traced.ops);
  report->Add("service.client.cpu_us_per_req", client_us, "us", traced.ops);
  const double wait_us = rtt_mean_us - daemon_us - client_us;
  report->Add("service.wait_us_per_req", wait_us, "us", traced.ops);
  // Client CPU includes the benchmark's own ledger work around each call
  // (its share is unattributed_frac), so the sum may slightly exceed RTT.
  std::printf("reconcile: mean RTT %.3f us = client CPU %.3f + daemon CPU "
              "%.3f + socket/wakeup wait %.3f (wait %s)\n",
              rtt_mean_us, client_us, daemon_us, wait_us,
              wait_us >= 0 ? "non-negative" : "NEGATIVE: CPU exceeds RTT");

  ReplayAdmission(f, initial, report);
  MeasureCodec(f, report);

  report->Add("service.daemon.requests_served",
              static_cast<double>(f.daemon->requests_served()), "count", 1);
  report->Add("service.overload.shed_requests",
              static_cast<double>(f.daemon->overload_stats().shed_requests),
              "count", 1);
  report->Add("service.client.retries", static_cast<double>(retries), "count",
              1);
  report->Add("service.admit_ok_frac",
              admits > 0 ? static_cast<double>(admits_ok) /
                               static_cast<double>(admits)
                         : 0.0,
              "fraction", admits);
  const double unattributed = UnattributedFraction(buffers, "op");
  PrintReconciliation(unattributed);
  report->Add("unattributed_frac", unattributed, "fraction", traced.ops);
  const double untraced_rate =
      static_cast<double>(untraced.ops) / untraced.wall_s;
  const double traced_rate = requests / traced.wall_s;
  report->Add("trace.overhead_frac", untraced_rate / traced_rate - 1.0,
              "fraction", traced.ops);
  report->Add("trace.spans", static_cast<double>(SpanCount(buffers)), "count",
              1);
  report->Check(
      WriteSpans(options.work_dir + "/spans-admit_churn.csv", buffers),
      "spans written");
}

}  // namespace perfbench
