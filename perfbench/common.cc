#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace perfbench {
namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NowSeconds() { return static_cast<double>(oodgnn::NowMicros()) * 1e-6; }

void SpanLog::Add(const std::string& name, const std::string& parent,
                  std::int64_t id, std::int64_t start_us, std::int64_t end_us,
                  int track) {
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, parent, id, start_us, end_us, track});
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::int64_t origin = 0;
  if (!spans_.empty()) {
    origin = std::min_element(spans_.begin(), spans_.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_us < b.start_us;
                              })->start_us;
  }
  // Span names are fixed identifiers from this benchmark, so they need
  // no JSON escaping.
  std::fprintf(file, "{\"displayTimeUnit\":\"us\",\"otherData\":{"
                     "\"dropped_spans\":%lld},\"traceEvents\":[",
               static_cast<long long>(dropped_));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%lld,\"dur\":%lld,\"args\":{\"id\":%lld,"
                 "\"parent\":\"%s\"}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.track,
                 static_cast<long long>(s.start_us - origin),
                 static_cast<long long>(s.end_us - s.start_us),
                 static_cast<long long>(s.id), s.parent.c_str());
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

KernelTotals ReadKernelTotals() {
  KernelTotals totals;
  const oodgnn::obs::MetricsSnapshot snapshot =
      oodgnn::obs::MetricsRegistry::Global().GetSnapshot();
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("kernel/", 0) != 0) continue;
    // kernel/simd/* counts vector-vs-scalar dispatches of calls that
    // are already counted under their op name.
    if (name.rfind("kernel/simd/", 0) == 0) continue;
    if (EndsWith(name, "/parallel_calls")) {
      totals.parallel_calls += value;
    } else if (EndsWith(name, "/calls")) {
      totals.calls += value;
    } else if (EndsWith(name, "/us")) {
      totals.us += value;
    }
  }
  return totals;
}

KernelTotals operator-(const KernelTotals& a, const KernelTotals& b) {
  return {a.calls - b.calls, a.us - b.us, a.parallel_calls - b.parallel_calls};
}

std::map<std::string, PhaseTotals> ReadPhases() {
  std::map<std::string, PhaseTotals> phases;
  for (const oodgnn::obs::PhaseStats& stats : oodgnn::obs::TraceSnapshot()) {
    phases[stats.name] = {stats.count, stats.total_us, stats.self_us()};
  }
  return phases;
}

}  // namespace perfbench
