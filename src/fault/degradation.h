// Graceful degradation under detected disk misbehavior.
//
// The §3.3 contract promises each stream P[>= g glitches in m rounds] <=
// epsilon, derived from a per-round glitch bound b_glitch. When the disk
// leaves its calibrated envelope (slowdown epoch, zone dropout, failing
// neighbor in the array), the measured glitch rate can exceed b_glitch and
// the contract silently rots for *every* admitted stream. The
// DegradationController restores it by shedding load.
//
// The trip rule is a two-sided Bernoulli CUSUM over stream-rounds: each
// round adds its n stream-rounds, x of them glitched, to two log-
// likelihood-ratio sums, clamped at zero.
//
//   U tests p = b against p = k*b:  U += x ln(p1/b) + (n-x) ln((1-p1)/(1-b))
//   D tests p = b against p = b/k:  D += x ln(1/k)  + (n-x) ln((1-b/k)/(1-b))
//
// with p1 = min(k*b, (1+b)/2). In kNormal, U >= h trips to kDegraded:
// shed, close admissions, reset both sums. In kDegraded, U >= h again
// sheds again; D, which runs only while degraded, reaching h returns to
// kNormal and reopens admissions. The
// reset sums are the hysteresis: each edge needs h nats of fresh
// evidence. This judges the rate over a run of rounds rather than a
// fixed window (the interval view of a stochastic guarantee, Xie/Jiang,
// arXiv 0904.2018), so the bound b is the controller's only input.
//
// Shedding policy is the caller's (the server sheds lowest class first);
// the controller only decides *how many* streams must go. Admissions are
// open exactly when the state is kNormal.
#ifndef ZONESTREAM_FAULT_DEGRADATION_H_
#define ZONESTREAM_FAULT_DEGRADATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace zonestream::obs {
class Counter;
class Gauge;
class Registry;
}  // namespace zonestream::obs

namespace zonestream::fault {

enum class DegradationState {
  kNormal = 0,    // contract holding; admissions open
  kDegraded = 1,  // shedding; admissions closed
};

const char* DegradationStateName(DegradationState state);

// Transition log entry (also exported by the example CLI). A repeated
// shed while degraded is logged as kDegraded -> kDegraded.
struct DegradationEvent {
  int64_t round = 0;
  DegradationState from = DegradationState::kNormal;
  DegradationState to = DegradationState::kNormal;
  int shed_streams = 0;
  // Glitches / stream-rounds since U last left 0 (the CUSUM's change-
  // point estimate of the current rate); 0 on a return to kNormal.
  double glitch_rate = 0.0;
};

// Complete restartable state of a DegradationController: everything
// ObserveRound consults, so a restore continues it bit-identically.
struct DegradationControllerState {
  DegradationState state = DegradationState::kNormal;
  int64_t rounds_observed = 0;
  double up_sum = 0.0;    // U
  double down_sum = 0.0;  // D
  // Stream-rounds and glitches since U last left 0.
  int64_t excursion_stream_rounds = 0;
  int64_t excursion_glitches = 0;
  std::vector<DegradationEvent> events;
};

// Single-threaded controller; drive it from the server's round loop.
class DegradationController {
 public:
  // Detection ratio k: U looks for p = k*b, D for p = b/k.
  static constexpr double kRateRatio = 2.0;
  // Decision threshold h in nats, shared by both sums. At b = 1e-4 with
  // 116 streams the mean run length at p = b is ~4.5e5 rounds and the
  // mean delay at 10*b is ~105 rounds (docs/FAULTS.md).
  static constexpr double kThreshold = 7.0;
  // A shed never keeps fewer than this many streams ...
  static constexpr int kMinStreams = 1;
  // ... nor closes more than this fraction of the active streams.
  static constexpr double kMaxShedFraction = 0.5;

  // `glitch_rate_bound` is the §3.3 per-round glitch bound b the
  // controller defends (b_glitch for the admitted load, or g/m for a
  // lifetime contract); it must lie in (0, 1). `metrics` (optional, not
  // owned) receives "<prefix>.state" (gauge, 0 normal / 1 degraded),
  // "<prefix>.trips" and "<prefix>.shed_streams" (counters).
  explicit DegradationController(
      double glitch_rate_bound, obs::Registry* metrics = nullptr,
      const std::string& metric_prefix = "server.degradation");

  // Feeds one round's observation (0 <= glitched_streams <=
  // active_streams); returns how many streams the server must close now.
  int ObserveRound(int active_streams, int glitched_streams);

  DegradationState state() const { return state_; }
  const std::vector<DegradationEvent>& events() const { return events_; }

  // Checkpoint support: restoring an exported state onto a controller
  // built with the same bound continues it bit-identically.
  DegradationControllerState ExportState() const;
  common::Status ImportState(const DegradationControllerState& state);

 private:
  void Log(DegradationState to, int shed, double rate);
  // Streams to close now: active - clamp(floor(active * b / rate)).
  int ShedCount(int active_streams, double rate) const;
  void ResetUp();

  double bound_;
  // Per-stream-round CUSUM increments, fixed by the bound.
  double up_glitch_ = 0.0;
  double up_clean_ = 0.0;
  double down_glitch_ = 0.0;
  double down_clean_ = 0.0;

  DegradationState state_ = DegradationState::kNormal;
  int64_t rounds_observed_ = 0;
  double up_sum_ = 0.0;
  double down_sum_ = 0.0;
  int64_t excursion_stream_rounds_ = 0;
  int64_t excursion_glitches_ = 0;
  std::vector<DegradationEvent> events_;
  // Metric handles (null when disabled).
  obs::Gauge* state_gauge_ = nullptr;
  obs::Counter* trips_ = nullptr;
  obs::Counter* shed_streams_ = nullptr;
};

}  // namespace zonestream::fault

#endif  // ZONESTREAM_FAULT_DEGRADATION_H_
