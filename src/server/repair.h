// Online rebuild of a failed parity-array disk, modeled as a workload.
//
// ROADMAP item 1 / SNS-repair shape: when a disk of a parity-striped
// array fails, a RepairController drives reconstruction of its contents
// onto a hot spare. Repair is not free background magic — each claimed
// stripe-rebuild job turns into one reconstruction read on every
// surviving disk, issued through the same SCAN-scheduled round as stream
// I/O, so repair and streams contend for the same round time. The
// throttle (stripe jobs per round) is the knob trading rebuild time
// against stream headroom; the matching admission bound is
// core::MaxStreamsByLateProbabilityDegraded.
//
// The controller itself only does bookkeeping: which disk is being
// rebuilt, how many stripes are done, and how the round's budget is
// claimed. MediaServer owns scheduling the reads and reporting which
// jobs completed on time (a stripe counts as rebuilt only when every
// surviving disk's read met the round deadline; incomplete jobs are
// simply retried by later rounds, so progress needs no carry state).
#ifndef ZONESTREAM_SERVER_REPAIR_H_
#define ZONESTREAM_SERVER_REPAIR_H_

#include <cstdint>
#include <optional>

#include "common/status.h"
#include "obs/metrics.h"

namespace zonestream::server {

// Tuning for one rebuild. All fields are validated by ValidateRepairPolicy.
struct RepairPolicy {
  // Stripe-rebuild jobs claimed per round while degraded. Each job costs
  // one reconstruction read per surviving disk, so with D disks a round
  // carries up to throttle_per_round * (D - 1) repair reads.
  int throttle_per_round = 4;

  // Stripes the failed disk holds; the rebuild finishes when this many
  // stripes have been reconstructed onto the spare.
  int64_t total_stripes = 0;

  // Bytes per reconstruction read. Pair it with the streams' mean
  // fragment size so the degraded admission bound (which models repair
  // reads as stream-like requests) stays honest.
  double read_bytes = 0.0;
};

common::Status ValidateRepairPolicy(const RepairPolicy& policy);

// Serialized rebuild progress (recovery:: snapshots).
struct RepairControllerState {
  bool active = false;
  int target_disk = -1;        // meaningful while active or after completion
  int64_t stripes_rebuilt = 0;
};

// Bookkeeping for rebuilding one failed disk onto a spare.
class RepairController {
 public:
  // `metrics` may be null; when present the controller publishes
  // server.repair.active / .target_disk / .eta_rounds gauges and
  // server.repair.{stripes_rebuilt,bytes_rebuilt,completed,cancelled}
  // counters, all registered here (at zero) and resolved once.
  RepairController(const RepairPolicy& policy, obs::Registry* metrics);

  const RepairPolicy& policy() const { return policy_; }
  bool active() const { return active_; }
  int target_disk() const { return target_disk_; }
  int64_t stripes_rebuilt() const { return stripes_rebuilt_; }
  int64_t stripes_remaining() const {
    return policy_.total_stripes - stripes_rebuilt_;
  }

  // Rounds left at full throttle (ceiling); 0 when idle or finished.
  int64_t EtaRounds() const;

  // Arms a rebuild of `target_disk` onto the spare. No-op when already
  // rebuilding that disk; switching disks restarts progress from zero.
  void StartRebuild(int target_disk);

  // The target came back on its own (transient fault): its data is
  // intact, so drop the rebuild and reset progress.
  void Cancel();

  // Stripe-rebuild jobs the server should schedule this round:
  // min(throttle, stripes remaining), 0 when not active.
  int ClaimRoundBudget() const;

  // Accounts one round's outcomes: `completed` of the claimed jobs had
  // every surviving disk's read finish on time. Returns true exactly
  // when this call finished the rebuild (caller promotes the spare);
  // the controller then deactivates but keeps target/progress for
  // inspection.
  bool RecordRoundOutcome(int completed);

  RepairControllerState ExportState() const;
  common::Status ImportState(const RepairControllerState& state);

 private:
  void PublishGauges();

  struct Metrics {
    obs::Gauge* active = nullptr;
    obs::Gauge* target_disk = nullptr;
    obs::Gauge* eta_rounds = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* stripes_rebuilt = nullptr;
    obs::Counter* bytes_rebuilt = nullptr;
    obs::Counter* completed = nullptr;
  };

  RepairPolicy policy_;
  std::optional<Metrics> metrics_;  // empty when constructed without one
  bool active_ = false;
  int target_disk_ = -1;
  int64_t stripes_rebuilt_ = 0;
};

}  // namespace zonestream::server

#endif  // ZONESTREAM_SERVER_REPAIR_H_
