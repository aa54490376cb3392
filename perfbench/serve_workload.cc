// Workloads serve-poisson (open loop, fixed rate, hot weight publishes)
// and serve-saturate (closed loop, 64 requests in flight), both driven
// through InferenceEngine::Submit / SyncFrom / stats with single graphs
// sampled from the TRIANGLES test split.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "src/data/triangles.h"
#include "src/graph/batch.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/serve/inference.h"
#include "src/tensor/arena.h"
#include "src/tensor/backend.h"
#include "src/tensor/variable.h"
#include "src/train/experiment.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace perfbench {
namespace {

using oodgnn::Graph;
using oodgnn::GraphPredictionModel;
using oodgnn::NowMicros;
using oodgnn::Tensor;

constexpr int kBackendThreads = 1;
constexpr int kWorkers = 2;
constexpr int kMaxBatchGraphs = 16;
constexpr int kSetupRepeats = 3;
constexpr int kWarmupRequests = 256;
/// Open loop: absolute arrival rate (never relative to a calibrated
/// capacity, so every commit is offered the same load). ~1/8 of the
/// saturated capacity: at single-graph batches a request costs several
/// times its share of a full batch, and higher rates let queueing
/// amplify the host's speed drift into the latency metrics.
constexpr double kPoissonRps = 500.0;
/// A completion counts toward goodput only within this limit.
constexpr std::int64_t kGoodputLimitUs = 20000;
constexpr std::int64_t kPublishPeriodUs = 1000000;
/// Closed loop: requests kept in flight.
constexpr int kInFlight = 64;
/// Closed loop: the recorder's capacity per second of window, ~2x the
/// engine's measured capacity. A window that fills it ends early; its
/// metrics stay valid.
constexpr double kMaxClosedRps = 8000.0;
/// Every kCheckStride-th completed request, up to kMaxChecked per
/// window, is checked bitwise against a direct forward.
constexpr size_t kCheckStride = 97;
constexpr size_t kMaxChecked = 256;
constexpr int kDirectProbeGraphs = 400;

enum class Outcome : std::int8_t { kOk, kShed, kFailed };

/// A request in flight: the engine writes its span before fulfilling
/// the future with its logits row.
struct Slot {
  std::int32_t graph = 0;  // index into Fixture::mix
  /// Latency origin: the due time (open loop) or the submit time
  /// (closed loop).
  std::int64_t start_us = 0;
  std::int64_t submit_us = 0;
  oodgnn::obs::RequestSpan span;
  std::future<Tensor> future;
};

/// A finished request. Times are microseconds after the window origin,
/// which keeps a record at 40 bytes.
struct Record {
  std::int32_t graph;
  std::int32_t version;
  std::int32_t start, submit, enqueue, admit, execute, done;
  Outcome outcome;

  double latency_us() const { return done - start; }
};

/// Data, the two weight sets publishes alternate between, and the
/// engine. Members are declared so the engine is destroyed (drained
/// and joined) before the registry and models it uses.
struct Fixture {
  oodgnn::GraphDataset dataset;
  std::vector<const Graph*> mix;
  oodgnn::serve::ModelSpec spec;
  std::unique_ptr<GraphPredictionModel> model_a;
  std::unique_ptr<GraphPredictionModel> model_b;
  oodgnn::obs::MetricsRegistry registry;
  std::mutex versions_mu;
  /// Weight version -> the model it published.
  std::map<std::int64_t, GraphPredictionModel*> versions;
  std::unique_ptr<oodgnn::serve::InferenceEngine> engine;

  /// SyncFrom, remembering which model the new version holds.
  /// Returns the publish's {start, end} in us.
  std::pair<std::int64_t, std::int64_t> Publish(GraphPredictionModel& model) {
    const std::int64_t t0 = NowMicros();
    engine->SyncFrom(model);
    const std::int64_t t1 = NowMicros();
    // Only this fixture publishes, so the latest version is ours.
    const std::int64_t version = engine->stats().weight_version;
    std::lock_guard<std::mutex> lock(versions_mu);
    versions[version] = &model;
    return {t0, t1};
  }
};

std::unique_ptr<Fixture> MakeFixture(std::uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  f->dataset = oodgnn::MakeTrianglesDataset(oodgnn::TrianglesConfig{}, seed);
  for (size_t idx : f->dataset.test_idx) {
    f->mix.push_back(&f->dataset.graphs[idx]);
  }
  f->spec.method = oodgnn::Method::kOodGnn;
  f->spec.encoder.feature_dim = f->dataset.feature_dim;
  f->spec.encoder.hidden_dim = 64;
  f->spec.encoder.num_layers = 3;
  f->spec.encoder.readout = oodgnn::RecommendedReadout("TRIANGLES");
  f->spec.output_dim = f->dataset.OutputDim();
  oodgnn::Rng rng(seed ^ 0x5E12u);
  f->model_a = std::make_unique<GraphPredictionModel>(
      f->spec.method, f->spec.encoder, f->spec.output_dim, &rng);
  f->model_b = std::make_unique<GraphPredictionModel>(
      f->spec.method, f->spec.encoder, f->spec.output_dim, &rng);

  oodgnn::serve::InferenceOptions options;
  options.num_workers = kWorkers;
  options.max_batch_graphs = kMaxBatchGraphs;  // default 200 us window
  options.compiled = false;
  options.quantize = oodgnn::serve::QuantizeMode::kOff;
  options.telemetry_registry = &f->registry;
  f->engine = std::make_unique<oodgnn::serve::InferenceEngine>(f->spec, options);
  f->Publish(*f->model_a);

  std::vector<std::future<Tensor>> warmup;
  for (int i = 0; i < kWarmupRequests; ++i) {
    warmup.push_back(f->engine->Submit(*f->mix[i % f->mix.size()]));
  }
  for (auto& future : warmup) future.get();
  return f;
}

/// Fixed-capacity store of finished requests. It is allocated and
/// touched before the clock starts, so the benchmark's own memory does
/// not grow with the engine's throughput (peak_rss_mb would otherwise
/// charge a faster engine). It keeps the logits of every
/// kCheckStride-th completed request, up to kMaxChecked, for the
/// bitwise check.
class Recorder {
 public:
  Recorder(size_t capacity, std::int64_t origin_us)
      : records_(capacity), origin_us_(origin_us) {
    checked_.reserve(kMaxChecked);
  }

  bool full() const { return size_ == records_.size(); }
  size_t capacity() const { return records_.size(); }
  std::int64_t origin_us() const { return origin_us_; }
  const Record* begin() const { return records_.data(); }
  const Record* end() const { return records_.data() + size_; }
  /// (record index, served logits row) of the sampled requests.
  const std::vector<std::pair<size_t, Tensor>>& checked() const {
    return checked_;
  }

  /// Waits for `slot`'s future and records the outcome.
  void Finish(Slot* slot) {
    OODGNN_CHECK(!full());
    Record& r = records_[size_];
    Tensor row;
    try {
      row = slot->future.get();
      r.outcome = Outcome::kOk;
    } catch (const oodgnn::serve::ShedError&) {
      r.outcome = Outcome::kShed;
    } catch (...) {
      r.outcome = Outcome::kFailed;
    }
    const oodgnn::obs::RequestSpan& s = slot->span;
    r.graph = slot->graph;
    r.version = static_cast<std::int32_t>(s.model_version);
    r.start = Rel(slot->start_us);
    r.submit = Rel(slot->submit_us);
    r.enqueue = Rel(s.enqueue_us);
    r.admit = Rel(s.admit_us);
    r.execute = Rel(s.execute_us);
    r.done = Rel(s.done_us);
    if (r.outcome == Outcome::kOk && size_ % kCheckStride == 0 &&
        checked_.size() < kMaxChecked) {
      checked_.emplace_back(size_, std::move(row));
    }
    ++size_;
  }

 private:
  std::int32_t Rel(std::int64_t us) const {
    return static_cast<std::int32_t>(us - origin_us_);
  }

  std::vector<Record> records_;
  size_t size_ = 0;
  const std::int64_t origin_us_;
  std::vector<std::pair<size_t, Tensor>> checked_;
};

void Submit(Fixture* f, std::int32_t graph, std::int64_t start_us,
            Slot* slot) {
  slot->graph = graph;
  slot->start_us = start_us;
  slot->submit_us = NowMicros();
  slot->future =
      f->engine->Submit(*f->mix[static_cast<size_t>(graph)], &slot->span);
}

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Poisson arrivals at kPoissonRps over `seconds`, with the graph each
/// one carries: offsets from the window start, built from `seed`
/// before the clock starts.
struct Schedule {
  std::vector<std::int64_t> offsets_us;
  std::vector<std::int32_t> graphs;
};

Schedule MakeSchedule(size_t mix_size, std::uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_us(kPoissonRps * 1e-6);
  std::uniform_int_distribution<std::int32_t> pick(
      0, static_cast<std::int32_t>(mix_size) - 1);
  Schedule schedule;
  for (double t = gap_us(rng); t < seconds * 1e6; t += gap_us(rng)) {
    schedule.offsets_us.push_back(static_cast<std::int64_t>(t));
    schedule.graphs.push_back(pick(rng));
  }
  return schedule;
}

/// Open loop: submits on `schedule`, and publishes every
/// kPublishPeriodUs, alternating the two weight sets.
void RunOpenLoop(Fixture* f, const Schedule& schedule, double seconds,
                 Recorder* recorder, std::vector<Interval>* publishes) {
  std::vector<Slot> slots(schedule.offsets_us.size());
  const std::int64_t t0 = NowMicros() + 1000;
  const auto clock_at = [](std::int64_t us) {
    return std::chrono::steady_clock::time_point(std::chrono::microseconds(us));
  };
  const double window_us = seconds * 1e6;
  std::jthread publisher([&] {
    for (std::int64_t k = 1; k * kPublishPeriodUs < window_us; ++k) {
      std::this_thread::sleep_until(clock_at(t0 + k * kPublishPeriodUs));
      publishes->push_back(
          f->Publish(k % 2 == 1 ? *f->model_b : *f->model_a));
    }
  });
  // Completed requests are recorded in submission order as the loop
  // goes, so finished rows are released instead of piling up.
  size_t finished = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    const std::int64_t due = t0 + schedule.offsets_us[i];
    if (NowMicros() < due) std::this_thread::sleep_until(clock_at(due));
    Submit(f, schedule.graphs[i], due, &slots[i]);
    while (finished <= i && slots[finished].future.wait_for(
                                std::chrono::seconds(0)) ==
                                std::future_status::ready) {
      recorder->Finish(&slots[finished++]);
    }
  }
  publisher.join();
  while (finished < slots.size()) recorder->Finish(&slots[finished++]);
}

/// Closed loop for `seconds` (or until the recorder is full): keeps
/// kInFlight requests in flight, submitting a new one each time the
/// oldest completes. Returns the time submission stopped.
std::int64_t RunClosedLoop(Fixture* f, std::uint64_t seed, double seconds,
                           Recorder* recorder) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int32_t> pick(
      0, static_cast<std::int32_t>(f->mix.size()) - 1);
  std::vector<Slot> slots(kInFlight);
  std::deque<Slot*> inflight;
  size_t submitted = 0;
  std::int64_t end_us = NowMicros() + static_cast<std::int64_t>(seconds * 1e6);
  const auto submit = [&](Slot* slot) {
    Submit(f, pick(rng), 0, slot);
    slot->start_us = slot->submit_us;
    inflight.push_back(slot);
    ++submitted;
  };
  for (Slot& slot : slots) submit(&slot);
  while (!inflight.empty()) {
    Slot* slot = inflight.front();
    inflight.pop_front();
    recorder->Finish(slot);
    const std::int64_t now = NowMicros();
    if (now < end_us && submitted == recorder->capacity()) end_us = now;
    if (now < end_us) submit(slot);
  }
  return end_us;
}

/// Latency and phase samples of one window's completed requests.
struct WindowStats {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t shed = 0;
  std::int64_t failed = 0;
  std::int64_t within_limit = 0;
  std::vector<double> latency_us;
  std::vector<double> queue_wait_us;
  std::vector<double> batch_build_us;
  std::vector<double> execute_us;
  std::vector<double> gen_lag_us;
  std::vector<double> client_share;
};

WindowStats Summarize(const Recorder& recorder) {
  WindowStats s;
  for (const Record& r : recorder) {
    ++s.attempted;
    if (r.outcome == Outcome::kShed) ++s.shed;
    if (r.outcome == Outcome::kFailed) ++s.failed;
    if (r.outcome != Outcome::kOk) continue;
    ++s.ok;
    const double latency = r.latency_us();
    if (latency <= static_cast<double>(kGoodputLimitUs)) ++s.within_limit;
    s.latency_us.push_back(latency);
    s.queue_wait_us.push_back(r.admit - r.enqueue);
    s.batch_build_us.push_back(r.execute - r.admit);
    s.execute_us.push_back(r.done - r.execute);
    s.gen_lag_us.push_back(r.submit - r.start);
    // Time the engine's spans do not cover: before the request reached
    // the queue (generator lateness plus Submit's own work).
    s.client_share.push_back((r.enqueue - r.start) / std::max(1.0, latency));
  }
  return s;
}

/// Correctness of one window: request conservation against the
/// engine's own accounting, and served rows bitwise equal to a direct
/// no-grad forward of the weight version that served them.
void CheckWindow(Fixture* f, const Recorder& recorder, const WindowStats& s,
                 std::int64_t submitted_by_engine, std::uint64_t seed,
                 WorkloadResult* out) {
  out->Check(s.ok + s.shed + s.failed == s.attempted,
             "request conservation: completed + shed + failed == attempted");
  out->Check(submitted_by_engine == s.attempted,
             "engine counted every submitted request");
  out->Check(s.ok > 0 && !recorder.checked().empty(),
             "requests completed and were sampled for checking");
  oodgnn::NoGradGuard no_grad;
  oodgnn::Rng rng(seed);
  for (const auto& [index, row] : recorder.checked()) {
    const Record& r = recorder.begin()[index];
    auto it = f->versions.find(r.version);
    if (it == f->versions.end()) {
      out->Check(false, "served by a published weight version");
      continue;
    }
    const oodgnn::GraphBatch batch = oodgnn::GraphBatch::FromGraphs(
        {f->mix[static_cast<size_t>(r.graph)]});
    const Tensor direct =
        it->second->Predict(batch, /*training=*/false, &rng).value();
    out->Check(direct.size() == row.size() &&
                   std::memcmp(direct.data(), row.data(),
                               direct.size() * sizeof(float)) == 0,
               "served logits bitwise equal to a direct forward of their "
               "weight version");
  }
}

/// Single-graph no-grad forward without the engine (batch build plus
/// Predict), over graphs sampled from the mix.
struct DirectProbe {
  double median_us = 0;
  double heap_allocs_per_forward = 0;
};

DirectProbe ProbeDirect(Fixture* f, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> pick(0, f->mix.size() - 1);
  oodgnn::NoGradGuard no_grad;
  oodgnn::Rng model_rng(seed);
  std::vector<double> us;
  const std::int64_t allocs0 = oodgnn::TensorHeapAllocsThisThread();
  for (int i = 0; i < kDirectProbeGraphs; ++i) {
    const Graph* graph = f->mix[pick(rng)];
    const std::int64_t t0 = NowMicros();
    const oodgnn::GraphBatch batch = oodgnn::GraphBatch::FromGraphs({graph});
    f->model_a->Predict(batch, /*training=*/false, &model_rng);
    us.push_back(static_cast<double>(NowMicros() - t0));
  }
  const double allocs = static_cast<double>(
      oodgnn::TensorHeapAllocsThisThread() - allocs0);
  return {Median(us), allocs / kDirectProbeGraphs};
}

/// Spans of one traced window: a root per request with its four
/// phases, each request on the first free track, plus the publishes.
void LogSpans(const Recorder& recorder, const std::vector<Interval>& publishes,
              SpanLog* spans) {
  const std::int64_t o = recorder.origin_us();
  std::vector<std::int64_t> track_end;
  std::int64_t id = 0;
  for (const Record& r : recorder) {
    ++id;
    if (r.outcome != Outcome::kOk) continue;
    size_t track = 0;
    while (track < track_end.size() && track_end[track] > r.start) ++track;
    if (track == track_end.size()) track_end.push_back(0);
    track_end[track] = r.done;
    const int tid = static_cast<int>(track) + 1;
    spans->Add("serve/request", "", id, o + r.start, o + r.done, tid);
    spans->Add("serve/client", "serve/request", id, o + r.start,
               o + r.enqueue, tid);
    spans->Add("serve/queue_wait", "serve/request", id, o + r.enqueue,
               o + r.admit, tid);
    spans->Add("serve/batch_build", "serve/request", id, o + r.admit,
               o + r.execute, tid);
    spans->Add("serve/execute", "serve/request", id, o + r.execute,
               o + r.done, tid);
  }
  for (size_t k = 0; k < publishes.size(); ++k) {
    spans->Add("serve/publish", "", static_cast<std::int64_t>(k),
               publishes[k].first, publishes[k].second, 0);
  }
}

enum class Loop { kOpen, kClosed };

/// One measured window of either loop, with its correctness checks.
struct Window {
  std::unique_ptr<Recorder> recorder;
  WindowStats stats;
  std::vector<Interval> publishes;
  double graphs_per_s = 0;
};

Window RunWindow(Fixture* f, Loop loop, std::uint64_t seed, double seconds,
                 WorkloadResult* out) {
  Window w;
  const std::int64_t submitted0 = f->engine->stats().scheduler.submitted;
  if (loop == Loop::kOpen) {
    const Schedule schedule = MakeSchedule(f->mix.size(), seed, seconds);
    w.recorder = std::make_unique<Recorder>(schedule.offsets_us.size(),
                                            NowMicros());
    RunOpenLoop(f, schedule, seconds, w.recorder.get(), &w.publishes);
  } else {
    w.recorder = std::make_unique<Recorder>(
        static_cast<size_t>(kMaxClosedRps * seconds), NowMicros());
    const std::int64_t t0 = NowMicros();
    const std::int64_t end_us =
        RunClosedLoop(f, seed, seconds, w.recorder.get());
    const std::int32_t end = static_cast<std::int32_t>(end_us - w.recorder->origin_us());
    std::int64_t done = 0;
    for (const Record& r : *w.recorder) {
      if (r.outcome == Outcome::kOk && r.done <= end) ++done;
    }
    w.graphs_per_s = static_cast<double>(done) /
                     (static_cast<double>(end_us - t0) * 1e-6);
  }
  w.stats = Summarize(*w.recorder);
  if (loop == Loop::kOpen) {
    // Goodput: completions within the limit per second of schedule.
    w.graphs_per_s = static_cast<double>(w.stats.within_limit) / seconds;
  }
  CheckWindow(f, *w.recorder, w.stats,
              f->engine->stats().scheduler.submitted - submitted0, seed, out);
  out->attempted += w.stats.attempted;
  out->failed += w.stats.shed + w.stats.failed;
  return w;
}

WorkloadResult RunServe(const RunOptions& options, Loop loop) {
  WorkloadResult out;
  out.backend_threads = kBackendThreads;
  out.engine_workers = kWorkers;
  oodgnn::ScopedBackendThreads backend(kBackendThreads);

  // Set-up: data, the two weight sets, the engine with its first
  // publish, and a warm-up burst. Repeated; the median is reported.
  std::unique_ptr<Fixture> f;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = NowSeconds();
    f.reset();
    f = MakeFixture(options.seed);
    setup_s.push_back(NowSeconds() - t0);
  }
  const char* loop_name =
      loop == Loop::kOpen ? "open loop, 500 rps Poisson, publish every 1 s"
                          : "closed loop, 64 in flight";
  out.Note(std::string(loop_name) + "; " + std::to_string(f->mix.size()) +
           " test-split graphs; " + std::to_string(kWorkers) +
           " workers, batch <= " + std::to_string(kMaxBatchGraphs));

  if (!options.trace) {
    const Window w = RunWindow(f.get(), loop, options.seed, options.seconds,
                               &out);
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    out.Add("graphs_per_s", w.graphs_per_s, "graphs/s");
    out.Add("p50_us", Median(w.stats.latency_us), "us");
    const std::string n = std::to_string(w.stats.latency_us.size());
    out.Note(std::string(loop == Loop::kOpen ? "serve_goodput_rps"
                                             : "serve_graphs_per_s") +
             " = " + std::to_string(w.graphs_per_s));
    out.Note("serve_p50_us = " + std::to_string(Median(w.stats.latency_us)) +
             ", serve_p99_us = " +
             std::to_string(Percentile(w.stats.latency_us, 99)) + " over " +
             n + " requests (timed from " +
             (loop == Loop::kOpen ? "due time)" : "submit)"));
    return out;
  }

  // Traced run: an untraced window, then a window with the tracer and
  // kernel counters on. Same length, fresh schedule each.
  const double half = options.seconds / 2;
  const Window plain = RunWindow(f.get(), loop, options.seed, half, &out);
  const DirectProbe direct = ProbeDirect(f.get(), options.seed);

  oodgnn::obs::SetProfilingEnabled(true);
  oodgnn::obs::ResetTrace();
  const KernelTotals k0 = ReadKernelTotals();
  const oodgnn::serve::InferenceStats s0 = f->engine->stats();
  const Window w = RunWindow(f.get(), loop, options.seed + 1, half, &out);
  const oodgnn::serve::InferenceStats s1 = f->engine->stats();
  const KernelTotals k = ReadKernelTotals() - k0;
  const std::map<std::string, PhaseTotals> phases = ReadPhases();
  oodgnn::obs::SetProfilingEnabled(false);

  const PhaseTotals batch_phase = phases.count("serve/batch") != 0
                                      ? phases.at("serve/batch")
                                      : PhaseTotals{};
  const double batches = static_cast<double>(s1.batches - s0.batches);
  const WindowStats& st = w.stats;
  out.Add("tensor.kernel_share",
          static_cast<double>(k.us) /
              std::max<double>(1.0, static_cast<double>(batch_phase.total_us)),
          "share");
  out.Add("tensor.kernel_calls_per_step",
          static_cast<double>(k.calls) / std::max(1.0, batches), "count");
  out.Add("tensor.parallel_call_share",
          static_cast<double>(k.parallel_calls) /
              std::max<double>(1.0, static_cast<double>(k.calls)),
          "share");
  out.Add("tensor.heap_allocs_per_step", direct.heap_allocs_per_forward,
          "count");
  out.Add("serve.queue_wait_p50_us", Median(st.queue_wait_us), "us");
  out.Add("serve.queue_wait_p99_us", Percentile(st.queue_wait_us, 99), "us");
  out.Add("serve.batch_build_p50_us", Median(st.batch_build_us), "us");
  out.Add("serve.batch_build_p99_us", Percentile(st.batch_build_us, 99), "us");
  out.Add("serve.execute_p50_us", Median(st.execute_us), "us");
  out.Add("serve.execute_p99_us", Percentile(st.execute_us, 99), "us");
  out.Add("serve.batch_graphs_mean",
          static_cast<double>(s1.scheduler.dispatched -
                              s0.scheduler.dispatched) /
              std::max(1.0, batches),
          "graphs");
  std::vector<double> publish_us;
  for (const Interval& p : w.publishes) {
    publish_us.push_back(static_cast<double>(p.second - p.first));
  }
  out.Add("serve.publish_us", Median(publish_us), "us");
  out.Add("serve.shed_count",
          static_cast<double>(s1.scheduler.shed - s0.scheduler.shed), "count");
  out.Add("serve.gen_lag_p99_us",
          loop == Loop::kOpen ? Percentile(st.gen_lag_us, 99) : 0.0, "us");
  out.Add("serve.unattributed_share", Median(st.client_share), "share");
  out.Add("serve.latency_p99_us", Percentile(st.latency_us, 99), "us");
  out.Add("gnn.predict_direct_us", direct.median_us, "us");
  out.Add("trace.overhead_share",
          loop == Loop::kOpen
              ? Median(st.latency_us) / Median(plain.stats.latency_us) - 1.0
              : plain.graphs_per_s / w.graphs_per_s - 1.0,
          "share");
  out.Note("traced window: " + std::to_string(st.attempted) + " requests, " +
           std::to_string(static_cast<long long>(batches)) + " batches; " +
           "unattributed share of the request path " +
           std::to_string(Median(st.client_share)));

  SpanLog spans(60000);
  LogSpans(*w.recorder, w.publishes, &spans);
  out.Check(options.trace_out.empty() ||
                spans.WriteChromeTrace(options.trace_out),
            "span file written");
  return out;
}

}  // namespace

WorkloadResult RunServePoisson(const RunOptions& options) {
  return RunServe(options, Loop::kOpen);
}

WorkloadResult RunServeSaturate(const RunOptions& options) {
  return RunServe(options, Loop::kClosed);
}

}  // namespace perfbench
