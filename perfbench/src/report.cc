#include "report.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {
namespace {

double ToSeconds(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return ToSeconds(ts);
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  // JSON has no NaN or infinity; a metric that cannot be computed is a
  // broken measurement, not a number.
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, samples});
}

bool Report::Check(bool ok, const std::string& what) {
  std::printf("check %s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failed_checks_;
  return ok;
}

void Report::AddContext(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::Print() const {
  for (const auto& [key, value] : context_) {
    std::printf("context %s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("metric %-40s %16.6g %-6s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\", "
                "\"samples\": %lld}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples));
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {
constexpr int kBucketsPerOctave = 128;
constexpr int kOctaves = 48;  // values from 1 to 2^48 of the caller's unit
}  // namespace

Histogram::Histogram() : buckets_(kBucketsPerOctave * kOctaves, 0) {}

void Histogram::Add(double value) {
  const double position =
      value > 1.0 ? std::log2(value) * kBucketsPerOctave : 0.0;
  const auto index =
      std::min(static_cast<size_t>(position), buckets_.size() - 1);
  ++buckets_[index];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  int64_t below = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (static_cast<double>(below + buckets_[i]) >= rank) {
      const double within = (rank - static_cast<double>(below)) /
                            static_cast<double>(buckets_[i]);
      return std::exp2((static_cast<double>(i) + within) / kBucketsPerOctave);
    }
    below += buckets_[i];
  }
  return std::exp2(static_cast<double>(buckets_.size()) / kBucketsPerOctave);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<size_t>(position);
  if (below + 1 >= values.size()) return values.back();
  const double weight = position - static_cast<double>(below);
  return values[below] + weight * (values[below + 1] - values[below]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double TrimmedMean(std::vector<double> values, double trim) {
  std::sort(values.begin(), values.end());
  const auto cut = static_cast<size_t>(trim * static_cast<double>(values.size()));
  return Mean(std::vector<double>(values.begin() + cut, values.end() - cut));
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds(pthread_t thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0.0;
  return ClockSeconds(clock);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's footprint.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

}  // namespace perfbench
