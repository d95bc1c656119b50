#include "trace.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> Durations(const std::vector<const SpanBuffer*>& buffers,
                              const char* name, double scale) {
  std::vector<double> out;
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& span : buffer->spans()) {
      if (std::strcmp(span.name, name) == 0) {
        out.push_back(span.duration_ns() * scale);
      }
    }
  }
  return out;
}

double UnattributedFraction(const std::vector<const SpanBuffer*>& buffers,
                            const char* root_name) {
  double root_ns = 0.0;
  double covered_ns = 0.0;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<uint8_t> is_root(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0 && std::strcmp(spans[i].name, root_name) == 0) {
        is_root[i] = 1;
        root_ns += spans[i].duration_ns();
      }
    }
    for (const Span& span : spans) {
      if (span.parent >= 0 && is_root[static_cast<size_t>(span.parent)]) {
        covered_ns += span.duration_ns();
      }
    }
  }
  return root_ns > 0.0 ? 1.0 - covered_ns / root_ns : 0.0;
}

void PrintReconciliation(double unattributed) {
  std::printf("reconcile: layer spans leave %.4f of op time unattributed "
              "(tolerance +-%.2f: %s)\n",
              unattributed, kUnattributedTolerance,
              std::abs(unattributed) <= kUnattributedTolerance ? "within"
                                                                : "OUTSIDE");
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers) {
  // Span names become small ids listed in the header, and times count
  // from the earliest span, to keep a million-span file compact.
  std::vector<const char*> names;
  int64_t origin = INT64_MAX;
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& span : buffer->spans()) {
      origin = std::min(origin, span.start_ns);
      if (std::none_of(names.begin(), names.end(), [&](const char* n) {
            return std::strcmp(n, span.name) == 0;
          })) {
        names.push_back(span.name);
      }
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t id = 0; id < names.size(); ++id) {
    std::fprintf(file, "# name %zu %s\n", id, names[id]);
  }
  std::fputs("thread,index,name,parent,op,start_ns,end_ns\n", file);
  for (size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<Span>& spans = buffers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto named = [&](const char* n) {
        return std::strcmp(n, s.name) == 0;
      };
      const auto id = static_cast<size_t>(
          std::find_if(names.begin(), names.end(), named) - names.begin());
      std::fprintf(file, "%zu,%zu,%zu,%d,%lld,%lld,%lld\n", t, i, id, s.parent,
                   static_cast<long long>(s.op),
                   static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin));
    }
  }
  return std::fclose(file) == 0;
}

int64_t SpanCount(const std::vector<const SpanBuffer*>& buffers) {
  int64_t count = 0;
  for (const SpanBuffer* buffer : buffers) {
    count += static_cast<int64_t>(buffer->spans().size());
  }
  return count;
}

}  // namespace perfbench
