#include "server/repair.h"

#include <cmath>
#include <string>

namespace zonestream::server {

common::Status ValidateRepairPolicy(const RepairPolicy& policy) {
  if (policy.throttle_per_round < 1) {
    return common::Status::InvalidArgument(
        "repair throttle_per_round must be >= 1, got " +
        std::to_string(policy.throttle_per_round));
  }
  if (policy.total_stripes < 1) {
    return common::Status::InvalidArgument(
        "repair total_stripes must be >= 1, got " +
        std::to_string(policy.total_stripes));
  }
  if (!std::isfinite(policy.read_bytes) || policy.read_bytes <= 0.0) {
    return common::Status::InvalidArgument(
        "repair read_bytes must be finite and > 0");
  }
  return common::Status::Ok();
}

RepairController::RepairController(const RepairPolicy& policy,
                                   obs::Registry* metrics)
    : policy_(policy) {
  if (metrics != nullptr) {
    Metrics& m = metrics_.emplace();
    m.active = metrics->GetGauge("server.repair.active");
    m.target_disk = metrics->GetGauge("server.repair.target_disk");
    m.eta_rounds = metrics->GetGauge("server.repair.eta_rounds");
    m.cancelled = metrics->GetCounter("server.repair.cancelled");
    m.stripes_rebuilt = metrics->GetCounter("server.repair.stripes_rebuilt");
    m.bytes_rebuilt = metrics->GetCounter("server.repair.bytes_rebuilt");
    m.completed = metrics->GetCounter("server.repair.completed");
  }
  PublishGauges();
}

int64_t RepairController::EtaRounds() const {
  if (!active_) return 0;
  const int64_t remaining = stripes_remaining();
  const int64_t throttle = policy_.throttle_per_round;
  return (remaining + throttle - 1) / throttle;
}

void RepairController::StartRebuild(int target_disk) {
  if (active_ && target_disk_ == target_disk) return;
  active_ = true;
  target_disk_ = target_disk;
  stripes_rebuilt_ = 0;
  PublishGauges();
}

void RepairController::Cancel() {
  if (!active_) return;
  active_ = false;
  target_disk_ = -1;
  stripes_rebuilt_ = 0;
  if (metrics_) metrics_->cancelled->Increment();
  PublishGauges();
}

int RepairController::ClaimRoundBudget() const {
  if (!active_) return 0;
  const int64_t remaining = stripes_remaining();
  const int64_t throttle = policy_.throttle_per_round;
  return static_cast<int>(remaining < throttle ? remaining : throttle);
}

bool RepairController::RecordRoundOutcome(int completed) {
  if (!active_ || completed <= 0) {
    PublishGauges();
    return false;
  }
  stripes_rebuilt_ += completed;
  if (stripes_rebuilt_ > policy_.total_stripes) {
    stripes_rebuilt_ = policy_.total_stripes;
  }
  if (metrics_) {
    metrics_->stripes_rebuilt->Increment(completed);
    metrics_->bytes_rebuilt->Increment(static_cast<int64_t>(
        static_cast<double>(completed) * policy_.read_bytes));
  }
  const bool finished = stripes_rebuilt_ >= policy_.total_stripes;
  if (finished) {
    active_ = false;
    if (metrics_) metrics_->completed->Increment();
  }
  PublishGauges();
  return finished;
}

RepairControllerState RepairController::ExportState() const {
  RepairControllerState state;
  state.active = active_;
  state.target_disk = target_disk_;
  state.stripes_rebuilt = stripes_rebuilt_;
  return state;
}

common::Status RepairController::ImportState(
    const RepairControllerState& state) {
  if (state.stripes_rebuilt < 0 ||
      state.stripes_rebuilt > policy_.total_stripes) {
    return common::Status::InvalidArgument(
        "repair state: stripes_rebuilt " +
        std::to_string(state.stripes_rebuilt) + " outside [0, " +
        std::to_string(policy_.total_stripes) + "]");
  }
  if (state.active && state.target_disk < 0) {
    return common::Status::InvalidArgument(
        "repair state: active rebuild with no target disk");
  }
  active_ = state.active;
  target_disk_ = state.target_disk;
  stripes_rebuilt_ = state.stripes_rebuilt;
  PublishGauges();
  return common::Status::Ok();
}

void RepairController::PublishGauges() {
  if (!metrics_) return;
  metrics_->active->Set(active_ ? 1.0 : 0.0);
  metrics_->target_disk->Set(static_cast<double>(target_disk_));
  metrics_->eta_rounds->Set(static_cast<double>(EtaRounds()));
}

}  // namespace zonestream::server
