// SCAN (elevator) scheduling of one round's requests (§2.3).
//
// All requests of a round are sorted by cylinder and served in one sweep of
// the disk arm; there are no deadlines within a round, only the round-end
// deadline for the batch.
//
// The simulators and the media server execute rounds with
// sim::SweepRound (sim/round_kernel.h); these allocating, struct-based
// functions are its reference implementation, which
// tests/sim/round_kernel_test.cc compares it against bit for bit.
#ifndef ZONESTREAM_SCHED_SCAN_H_
#define ZONESTREAM_SCHED_SCAN_H_

#include <vector>

#include "disk/seek_model.h"
#include "sched/request.h"

namespace zonestream::sched {

// Sweep direction of the arm for a round.
enum class SweepDirection {
  kAscending,   // inner -> outer cylinders
  kDescending,  // outer -> inner cylinders
};

// Orders `requests` in SCAN order for the given sweep direction (stable, so
// co-located requests keep issue order).
void SortForScan(std::vector<DiskRequest>* requests, SweepDirection direction);

// Timing breakdown of one serviced request.
struct RequestTiming {
  int stream_id = 0;
  double seek_s = 0.0;
  double rotation_s = 0.0;
  double transfer_s = 0.0;
  double completion_s = 0.0;  // time since round start when fully transferred
};

// Timing of a whole round.
struct RoundTiming {
  std::vector<RequestTiming> per_request;  // in service order
  double total_service_time_s = 0.0;       // T_N, eq. (3.1.1)
  int final_arm_cylinder = 0;              // arm position after the sweep
};

// Serves `requests` (already in SCAN order) starting with the arm at
// `start_cylinder`. Each request costs seek(distance) + rotational latency +
// transfer time; completion times are cumulative from round start.
RoundTiming ExecuteScanRound(const disk::SeekTimeModel& seek_model,
                             const std::vector<DiskRequest>& requests,
                             int start_cylinder);

}  // namespace zonestream::sched

#endif  // ZONESTREAM_SCHED_SCAN_H_
