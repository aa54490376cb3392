// perfbench: the repository benchmark. One run executes one workload
// for a fixed time and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Built and
// invoked by run.py; see README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--source-rev <rev>]
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/tensor/simd.h"

extern char** environ;

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; selfcheck.py verifies that it does.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"graphs_per_s", "graphs/s"},
    {"p50_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"train.encode_us", "us"},
    {"train.reweight_us", "us"},
    {"train.loss_step_us", "us"},
    {"train.unattributed_us", "us"},
    {"train.unattributed_share", "share"},
    {"train.eval_pass_us", "us"},
    {"train.eval_unattributed_share", "share"},
    {"core.rff_us", "us"},
    {"core.hsic_us", "us"},
    {"core.weight_opt_us", "us"},
    {"tensor.kernel_share", "share"},
    {"tensor.kernel_calls_per_step", "count"},
    {"tensor.parallel_call_share", "share"},
    {"tensor.pool2_speedup", "x"},
    {"tensor.heap_allocs_per_step", "count"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_build_p50_us", "us"},
    {"serve.batch_build_p99_us", "us"},
    {"serve.execute_p50_us", "us"},
    {"serve.execute_p99_us", "us"},
    {"serve.batch_graphs_mean", "graphs"},
    {"serve.publish_us", "us"},
    {"serve.shed_count", "count"},
    {"serve.gen_lag_p99_us", "us"},
    {"serve.unattributed_share", "share"},
    {"serve.latency_p99_us", "us"},
    {"gnn.predict_direct_us", "us"},
    {"trace.overhead_share", "share"},
};

struct WorkloadEntry {
  const char* name;
  WorkloadFn fn;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"train-sizeshift", RunTrainSizeshift},
    {"serve-poisson", RunServePoisson},
    {"serve-saturate", RunServeSaturate},
};

// Every environment variable the library reads to pick an execution
// mode (or to inject faults, profile, or journal).
constexpr const char* kModeVariables[] = {
    "OODGNN_COMPILED",          "OODGNN_COMPILED_TRAIN",
    "OODGNN_CRASH_AFTER_EPOCH", "OODGNN_CRASH_IN_WRITE",
    "OODGNN_FORCE_SCALAR",      "OODGNN_LOG_LEVEL",
    "OODGNN_METRICS_INTERVAL_MS", "OODGNN_METRICS_OUT",
    "OODGNN_PROFILE",           "OODGNN_QUANTIZE",
    "OODGNN_THREADS",           "OODGNN_TRACE_JSON",
    "OODGNN_TRAIN_BUCKET_EDGES", "OODGNN_TRAIN_BUCKET_NODES",
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train-sizeshift|serve-poisson|serve-saturate> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--source-rev <rev>]\n",
               message);
  return 2;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Fingerprint(const std::string& source_rev,
                        const WorkloadResult& result) {
  std::string modes;
  for (const char* name : kModeVariables) {
    const char* value = std::getenv(name);
    modes += std::string(modes.empty() ? "" : ",") + JsonString(name) + ":" +
             JsonString(value != nullptr ? value : "unset");
  }
  return "{\"source_rev\":" + JsonString(source_rev) +
         ",\"cpu\":" + JsonString(CpuModel()) + ",\"simd_isa\":" +
         JsonString(std::string(oodgnn::simd::IsaName()) +
                    (oodgnn::simd::Enabled() ? "" : " (off)")) +
         ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"backend_threads\":" + std::to_string(result.backend_threads) +
         ",\"engine_workers\":" + std::to_string(result.engine_workers) +
         ",\"modes\":{" + modes + "}}";
}

/// Completes `result` to exactly the metric set of its mode, in
/// catalog order. A per-layer metric off this workload's path reads 0.
void Normalize(bool trace, WorkloadResult* result) {
  std::vector<Metric> ordered;
  std::set<std::string> known;
  const auto take = [&](const MetricSpec& spec, bool optional) {
    known.insert(spec.name);
    for (const Metric& m : result->metrics) {
      if (m.name == spec.name) {
        result->Check(m.unit == spec.unit, std::string("unit of ") + spec.name);
        result->Check(std::isfinite(m.value),
                      std::string(spec.name) + " is finite");
        ordered.push_back({m.name, std::isfinite(m.value) ? m.value : 0.0,
                           spec.unit});
        return;
      }
    }
    result->Check(optional, std::string("missing metric ") + spec.name);
    ordered.push_back({spec.name, 0.0, spec.unit});
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) take(spec, /*optional=*/true);
  } else {
    for (const MetricSpec& spec : kEndToEnd) take(spec, /*optional=*/false);
  }
  for (const Metric& m : result->metrics) {
    result->Check(known.count(m.name) != 0, "unknown metric " + m.name);
  }
  result->metrics = std::move(ordered);
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string source_rev = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--source-rev") {
      source_rev = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  WorkloadFn fn = nullptr;
  for (const WorkloadEntry& entry : kWorkloads) {
    if (options.workload == entry.name) fn = entry.fn;
  }
  if (fn == nullptr) return Usage(("unknown workload " + options.workload).c_str());

  // A parent and a change are only comparable in the same execution
  // mode, so the benchmark always runs in the default one.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "OODGNN_", 7) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; unset every "
                   "OODGNN_* variable so all runs use the default mode\n",
                   *env);
      return 2;
    }
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  WorkloadResult result = fn(options);
  Normalize(options.trace, &result);
  result.Check(result.attempted >= 1, "attempted at least one operation");

  std::printf("fingerprint %s\n", Fingerprint(source_rev, result).c_str());
  for (const std::string& note : result.notes) std::printf("  %s\n", note.c_str());
  std::printf("%s metrics (%s):\n", options.workload.c_str(),
              options.trace ? "per-layer, traced" : "end-to-end, untraced");
  for (const Metric& m : result.metrics) {
    std::printf("  %-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::set<std::string> failures(result.check_failures.begin(),
                                 result.check_failures.end());
  for (const std::string& failure : failures) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = failures.empty();
  std::string metrics;
  for (const Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", m.value);
    metrics += std::string(metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + value + ", \"unit\": " + JsonString(m.unit) +
               "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
