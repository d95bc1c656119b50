// In-memory spans for the traced run. The benchmark records a span
// around each call it makes into a zonestream module's public functions
// (and one root span per op), keeps them per thread in memory, and
// writes them out when the run ends. Nothing inside the library is
// instrumented; a span measures the call from the caller's side.
#ifndef ZONESTREAM_PERFBENCH_TRACE_H_
#define ZONESTREAM_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  // a string literal: "op", "server.OpenStream"
  int32_t parent = -1;         // index in the same buffer; -1 for a root
  int64_t op = -1;             // op id shared by every span of one op
  int64_t start_ns = 0;        // steady clock
  int64_t end_ns = 0;
  double duration_ns() const { return static_cast<double>(end_ns - start_ns); }
};

int64_t NowNs();

// One thread's spans. Not thread-safe: each recording thread owns one.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t reserve = 0) { spans_.reserve(reserve); }

  int32_t Begin(const char* name, int32_t parent, int64_t op) {
    spans_.push_back({name, parent, op, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  // Names a span after the fact, when the call's outcome decides it.
  void Rename(int32_t index, const char* name) {
    spans_[static_cast<size_t>(index)].name = name;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Runs `body` inside a span named `name` when `spans` is not null (an
// untraced run passes null) and returns what it returns.
template <typename Body>
auto Traced(SpanBuffer* spans, const char* name, int32_t parent, int64_t op,
            Body body) {
  const int32_t span = spans != nullptr ? spans->Begin(name, parent, op) : -1;
  auto result = body();
  if (spans != nullptr) spans->End(span);
  return result;
}

// Durations (in `scale` units per nanosecond) of every span named `name`.
std::vector<double> Durations(const std::vector<const SpanBuffer*>& buffers,
                              const char* name, double scale);

// Share of root-span time that no direct child span covers. Children of
// one root never overlap (each buffer belongs to one thread), so the
// covered time is the sum of their durations.
double UnattributedFraction(const std::vector<const SpanBuffer*>& buffers,
                            const char* root_name);

// The tolerance the reconciliation reports |unattributed_frac| against,
// as a share of op time. A report, not an output check: it is timing.
inline constexpr double kUnattributedTolerance = 0.10;

// Prints whether an unattributed fraction is within the tolerance.
void PrintReconciliation(double unattributed);

// Writes every span as CSV (thread,index,name,parent,op,start_ns,end_ns).
bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers);

int64_t SpanCount(const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench

#endif  // ZONESTREAM_PERFBENCH_TRACE_H_
