// What one benchmark run reports: named metrics with unit and sample
// count, op counts, and the verdict of every output check, plus the
// clocks and order statistics the workloads share.
#ifndef ZONESTREAM_PERFBENCH_REPORT_H_
#define ZONESTREAM_PERFBENCH_REPORT_H_

#include <pthread.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  // observations behind the value
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);

  // Records one output check; a failed check makes the run incorrect.
  // Returns `ok` so callers can branch on it.
  bool Check(bool ok, const std::string& what);

  // Free-form `key value` lines describing the run (seed, host, build).
  void AddContext(const std::string& key, const std::string& value);

  bool correct() const { return failed_checks_ == 0; }

  // Human-readable context, check and metric lines, then the result as
  // one JSON object on the last line.
  void Print() const;

  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  int64_t failed_checks_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Latency histogram with 1/128-octave log buckets: fixed memory however
// many ops a run makes, so peak RSS does not grow with throughput.
// Quantiles interpolate within a bucket by rank.
class Histogram {
 public:
  Histogram();
  void Add(double value);  // value > 0; smaller values land in bucket 0
  void Merge(const Histogram& other);
  double Quantile(double q) const;
  int64_t count() const { return count_; }

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

// Quantile with linear interpolation between order statistics (q in
// [0, 1]), so the median of an even count is the mean of the middle two;
// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
// Mean of the values left after dropping the `trim` share (in [0, 0.5))
// at each end: bursts at the tails do not move it, and unlike a median
// it moves smoothly when the values form clusters.
double TrimmedMean(std::vector<double> values, double trim);

double ThreadCpuSeconds();
double ProcessCpuSeconds();
// CPU time consumed so far by another live thread of this process.
double ThreadCpuSeconds(pthread_t thread);
// Peak resident set size of this process.
double PeakRssMb();

}  // namespace perfbench

#endif  // ZONESTREAM_PERFBENCH_REPORT_H_
