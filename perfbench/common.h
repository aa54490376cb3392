// Shared plumbing of the perfbench binary: run options, the result
// record every workload fills, sample statistics, the in-memory span
// log behind the Chrome trace file, and the obs counter readers the
// traced runs take per-layer numbers from.
#ifndef OODGNN_PERFBENCH_COMMON_H_
#define OODGNN_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run (see main.cc for the flags).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event file written by a traced run ("" = none).
  std::string trace_out;
};

/// One named metric value with its unit, in report order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the metrics of the mode it ran
/// in (end-to-end untraced, per-layer traced), the operation counts of
/// the contract, the outcome of every correctness check, and
/// human-readable notes (the metrics under their workload-specific
/// names, sample counts).
struct WorkloadResult {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Names of failed correctness checks; empty means correct.
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;
  /// Threads that ran compute, for the fingerprint.
  int backend_threads = 1;
  int engine_workers = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

using WorkloadFn = WorkloadResult (*)(const RunOptions&);
WorkloadResult RunTrainSizeshift(const RunOptions& options);
WorkloadResult RunServePoisson(const RunOptions& options);
WorkloadResult RunServeSaturate(const RunOptions& options);

// --- statistics -------------------------------------------------------

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample; 0
/// for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Seconds on the monotonic clock (the library's NowMicros clock).
double NowSeconds();

// --- spans ------------------------------------------------------------

/// In-memory span log written out as Chrome trace-event JSON at the
/// end of a traced run (chrome://tracing and Perfetto read it). Each
/// span has a name, start, end, the id of the train run, eval pass or
/// request it belongs to, and its parent span's name ("" for a root).
class SpanLog {
 public:
  explicit SpanLog(size_t max_spans) : max_spans_(max_spans) {}

  /// Spans past the cap are counted but not kept.
  void Add(const std::string& name, const std::string& parent,
           std::int64_t id, std::int64_t start_us, std::int64_t end_us,
           int track);
  /// Writes {"traceEvents":[...]} to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string parent;
    std::int64_t id;
    std::int64_t start_us;
    std::int64_t end_us;
    int track;
  };
  const size_t max_spans_;
  std::vector<Span> spans_;
  std::int64_t dropped_ = 0;
};

// --- obs readers --------------------------------------------------------

/// Sums of the backend's kernel/<op>/{calls,us,parallel_calls}
/// counters in the global registry (nonzero only while profiling).
struct KernelTotals {
  std::int64_t calls = 0;
  std::int64_t us = 0;
  std::int64_t parallel_calls = 0;
};
KernelTotals ReadKernelTotals();
KernelTotals operator-(const KernelTotals& a, const KernelTotals& b);

/// obs::TraceSnapshot() as name -> {count, total_us, self_us}.
struct PhaseTotals {
  std::int64_t count = 0;
  std::int64_t total_us = 0;
  std::int64_t self_us = 0;
};
std::map<std::string, PhaseTotals> ReadPhases();

}  // namespace perfbench

#endif  // OODGNN_PERFBENCH_COMMON_H_
