#include "fault/degradation.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"

namespace zonestream::fault {

namespace {

// Transition log cap; after this the controller keeps counting via the
// metrics but stops appending (a flapping controller must not OOM).
constexpr size_t kMaxEvents = 4096;

}  // namespace

const char* DegradationStateName(DegradationState state) {
  switch (state) {
    case DegradationState::kNormal:
      return "normal";
    case DegradationState::kDegraded:
      return "degraded";
  }
  return "unknown";
}

DegradationController::DegradationController(double glitch_rate_bound,
                                             obs::Registry* metrics,
                                             const std::string& metric_prefix)
    : bound_(glitch_rate_bound) {
  ZS_CHECK(bound_ > 0.0 && bound_ < 1.0);
  // Keep the alternative below 1 for bounds at or above 1/k.
  const double up_rate = std::min(kRateRatio * bound_, (1.0 + bound_) / 2.0);
  const double down_rate = bound_ / kRateRatio;
  up_glitch_ = std::log(up_rate / bound_);
  up_clean_ = std::log1p(-up_rate) - std::log1p(-bound_);
  down_glitch_ = std::log(down_rate / bound_);
  down_clean_ = std::log1p(-down_rate) - std::log1p(-bound_);
  if (metrics != nullptr) {
    state_gauge_ = metrics->GetGauge(metric_prefix + ".state");
    trips_ = metrics->GetCounter(metric_prefix + ".trips");
    shed_streams_ = metrics->GetCounter(metric_prefix + ".shed_streams");
    state_gauge_->Set(0.0);
  }
}

void DegradationController::Log(DegradationState to, int shed, double rate) {
  if (events_.size() < kMaxEvents) {
    events_.push_back(
        DegradationEvent{rounds_observed_, state_, to, shed, rate});
  }
  state_ = to;
  if (state_gauge_ != nullptr) {
    state_gauge_->Set(static_cast<double>(static_cast<int>(to)));
  }
}

int DegradationController::ShedCount(int active_streams, double rate) const {
  // Proportional target: the measured rate scales roughly with the
  // admitted load near the operating point, so keeping bound/rate of the
  // streams is a first-order fix; U re-arms and sheds again if the rest
  // still runs over the bound.
  const double active = static_cast<double>(active_streams);
  double keep = std::min(active, std::floor(active * bound_ / rate));
  keep = std::max(keep, active - std::ceil(active * kMaxShedFraction));
  keep = std::max(keep, std::min(active, double{kMinStreams}));
  return active_streams - static_cast<int>(keep);
}

void DegradationController::ResetUp() {
  up_sum_ = 0.0;
  excursion_stream_rounds_ = 0;
  excursion_glitches_ = 0;
}

int DegradationController::ObserveRound(int active_streams,
                                        int glitched_streams) {
  ZS_CHECK_GE(active_streams, 0);
  ZS_CHECK_GE(glitched_streams, 0);
  ZS_CHECK_LE(glitched_streams, active_streams);
  ++rounds_observed_;
  const double glitched = static_cast<double>(glitched_streams);
  const double clean = static_cast<double>(active_streams - glitched_streams);

  up_sum_ += glitched * up_glitch_ + clean * up_clean_;
  if (up_sum_ > 0.0) {
    excursion_stream_rounds_ += active_streams;
    excursion_glitches_ += glitched_streams;
  } else {
    ResetUp();
  }
  if (state_ == DegradationState::kDegraded) {
    // D only runs while degraded: it is the evidence for reopening.
    down_sum_ = std::max(
        0.0, down_sum_ + glitched * down_glitch_ + clean * down_clean_);
  }

  int shed = 0;
  if (up_sum_ >= kThreshold) {
    // Trip (or, already degraded, shed again) down to the proportional
    // target; admissions stay closed. U > 0 implies a glitch since U last
    // left 0, so the rate is positive.
    const double rate = static_cast<double>(excursion_glitches_) /
                        static_cast<double>(excursion_stream_rounds_);
    shed = ShedCount(active_streams, rate);
    if (state_ == DegradationState::kNormal) {
      Log(DegradationState::kDegraded, shed, rate);
      if (trips_ != nullptr) trips_->Increment();
      down_sum_ = 0.0;
    } else if (shed > 0) {
      Log(DegradationState::kDegraded, shed, rate);
    }
    if (shed_streams_ != nullptr && shed > 0) shed_streams_->Increment(shed);
    ResetUp();
  } else if (state_ == DegradationState::kDegraded &&
             down_sum_ >= kThreshold) {
    Log(DegradationState::kNormal, 0, 0.0);
    down_sum_ = 0.0;
    ResetUp();
  }
  return shed;
}

DegradationControllerState DegradationController::ExportState() const {
  DegradationControllerState state;
  state.state = state_;
  state.rounds_observed = rounds_observed_;
  state.up_sum = up_sum_;
  state.down_sum = down_sum_;
  state.excursion_stream_rounds = excursion_stream_rounds_;
  state.excursion_glitches = excursion_glitches_;
  state.events = events_;
  return state;
}

common::Status DegradationController::ImportState(
    const DegradationControllerState& state) {
  const int s = static_cast<int>(state.state);
  if (s < 0 || s > 1) {
    return common::Status::InvalidArgument(
        "degradation state out of range");
  }
  const auto valid_sum = [](double sum) {
    return std::isfinite(sum) && sum >= 0.0;
  };
  if (state.rounds_observed < 0 || !valid_sum(state.up_sum) ||
      !valid_sum(state.down_sum) || state.excursion_glitches < 0 ||
      state.excursion_glitches > state.excursion_stream_rounds ||
      (state.up_sum > 0.0) != (state.excursion_glitches > 0)) {
    return common::Status::InvalidArgument(
        "degradation controller sums and counters must be finite and "
        "non-negative, with no more glitches than stream-rounds and a "
        "glitch in every open excursion");
  }
  state_ = state.state;
  rounds_observed_ = state.rounds_observed;
  up_sum_ = state.up_sum;
  down_sum_ = state.down_sum;
  excursion_stream_rounds_ = state.excursion_stream_rounds;
  excursion_glitches_ = state.excursion_glitches;
  events_ = state.events;
  if (state_gauge_ != nullptr) {
    state_gauge_->Set(static_cast<double>(static_cast<int>(state_)));
  }
  return common::Status::Ok();
}

}  // namespace zonestream::fault
