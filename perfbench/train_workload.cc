// Workload train-sizeshift: the paper's TRIANGLES size-shift protocol
// driven through TrainAndEvaluate (training) and EvaluateSplit (the
// OOD test split, graphs up to 4x larger than in training).
#include <algorithm>
#include <map>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/data/triangles.h"
#include "src/graph/batch.h"
#include "src/obs/trace.h"
#include "src/tensor/arena.h"
#include "src/tensor/backend.h"
#include "src/tensor/variable.h"
#include "src/train/experiment.h"
#include "src/train/trainer.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace perfbench {
namespace {

using oodgnn::GraphDataset;
using oodgnn::NowMicros;
using oodgnn::TrainConfig;
using oodgnn::TrainResult;

/// The measured runs use a 1-thread backend: on a shared host the
/// 2-thread pool was both slower and far less steady (every parallel
/// dispatch waits for a second vCPU). A traced run still measures the
/// 2-thread pool, as per-layer metrics.
constexpr int kBackendThreads = 1;
constexpr int kPoolThreads = 2;
constexpr int kEpochsPerRun = 4;
constexpr int kSetupRepeats = 3;
constexpr int kEvalBatch = 64;
/// Share of a traced segment spent training; the rest runs eval
/// passes.
constexpr double kTrainShare = 0.5;

TrainConfig MakeConfig(std::uint64_t seed, int epochs) {
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 64;
  config.seed = seed;
  config.eval_every = epochs;  // evaluate only at the last epoch
  config.encoder.hidden_dim = 64;
  config.encoder.num_layers = 3;
  config.encoder.readout = oodgnn::RecommendedReadout("TRIANGLES");
  return config;  // default OodGnnConfig
}

/// The trained-model stand-in for the eval passes: an OOD-GNN model of
/// the trained architecture. Eval cost does not depend on the weight
/// values, and TrainAndEvaluate keeps its model private.
std::unique_ptr<oodgnn::GraphPredictionModel> MakeEvalModel(
    const GraphDataset& dataset, std::uint64_t seed) {
  oodgnn::EncoderConfig encoder = MakeConfig(seed, 1).encoder;
  encoder.feature_dim = dataset.feature_dim;
  oodgnn::Rng rng(seed ^ 0xE7A1u);
  return std::make_unique<oodgnn::GraphPredictionModel>(
      oodgnn::Method::kOodGnn, encoder, dataset.OutputDim(), &rng);
}

/// Checks the paper's invariants on one TrainAndEvaluate result.
void CheckTrainResult(const TrainResult& result, int num_classes,
                      WorkloadResult* out) {
  bool finite = true;
  bool nonnegative = true;
  double sum = 0.0;
  for (float w : result.final_weights) {
    finite = finite && std::isfinite(w);
    nonnegative = nonnegative && w >= 0.f;
    sum += w;
  }
  const double mean =
      result.final_weights.empty()
          ? 0.0
          : sum / static_cast<double>(result.final_weights.size());
  out->Check(!result.final_weights.empty() && finite,
             "Eq. 7: final weights present and finite");
  out->Check(nonnegative, "Eq. 7: final weights w >= 0");
  out->Check(std::fabs(mean - 1.0) < 1e-3, "Eq. 7: final weights mean 1");
  bool losses_finite =
      static_cast<int>(result.epoch_losses.size()) == kEpochsPerRun;
  for (double loss : result.epoch_losses) {
    losses_finite = losses_finite && std::isfinite(loss);
  }
  out->Check(losses_finite, "epoch losses finite, one per epoch");
  out->Check(result.test_metric > 1.0 / num_classes,
             "OOD test accuracy above chance");
}

/// Wall times of the TrainAndEvaluate runs or EvaluateSplit passes
/// one measuring loop made.
using Walls = std::vector<double>;

/// Repeats TrainAndEvaluate runs until `seconds` have passed (at least
/// one run). Every run is checked, counted, and (with `spans`) logged.
Walls MeasureTrain(const GraphDataset& dataset, std::uint64_t seed,
                   double seconds, SpanLog* spans, WorkloadResult* out) {
  Walls walls;
  const double end = NowSeconds() + seconds;
  do {
    const int run = static_cast<int>(walls.size());
    const std::int64_t t0 = NowMicros();
    const TrainResult result = oodgnn::TrainAndEvaluate(
        oodgnn::Method::kOodGnn, dataset,
        MakeConfig(seed + 1 + static_cast<std::uint64_t>(run), kEpochsPerRun));
    const std::int64_t t1 = NowMicros();
    walls.push_back(static_cast<double>(t1 - t0));
    if (spans != nullptr) spans->Add("train/run", "", run, t0, t1, 0);
    const size_t failures = out->check_failures.size();
    CheckTrainResult(result, dataset.num_tasks, out);
    ++out->attempted;
    if (out->check_failures.size() != failures) ++out->failed;
  } while (NowSeconds() < end);
  return walls;
}

/// Repeats EvaluateSplit passes over the OOD test split until
/// `seconds` have passed. Eval is deterministic, so every pass must
/// reproduce `expected` exactly.
Walls MeasureEval(const GraphDataset& dataset,
                  oodgnn::GraphPredictionModel* model, std::uint64_t seed,
                  double seconds, double expected, SpanLog* spans,
                  WorkloadResult* out) {
  Walls walls;
  oodgnn::Rng rng(seed);
  const double end = NowSeconds() + seconds;
  do {
    const int pass = static_cast<int>(walls.size());
    const std::int64_t t0 = NowMicros();
    const double accuracy = oodgnn::EvaluateSplit(model, dataset,
                                                  dataset.test_idx,
                                                  kEvalBatch, &rng);
    const std::int64_t t1 = NowMicros();
    walls.push_back(static_cast<double>(t1 - t0));
    if (spans != nullptr) spans->Add("train/eval_pass", "", pass, t0, t1, 1);
    const bool ok = accuracy == expected;
    out->Check(ok, "eval pass reproduces the reference accuracy");
    ++out->attempted;
    if (!ok) ++out->failed;
  } while (NowSeconds() < end);
  return walls;
}

double Sum(const Walls& walls) {
  double sum = 0;
  for (double w : walls) sum += w;
  return sum;
}

std::int64_t TotalUs(const std::map<std::string, PhaseTotals>& phases,
                     const std::string& name) {
  auto it = phases.find(name);
  return it == phases.end() ? 0 : it->second.total_us;
}

std::int64_t SelfUs(const std::map<std::string, PhaseTotals>& phases,
                    const std::vector<std::string>& names) {
  std::int64_t sum = 0;
  for (const std::string& name : names) {
    auto it = phases.find(name);
    if (it != phases.end()) sum += it->second.self_us;
  }
  return sum;
}

}  // namespace

WorkloadResult RunTrainSizeshift(const RunOptions& options) {
  WorkloadResult out;
  out.backend_threads = kBackendThreads;
  oodgnn::ScopedBackendThreads backend(kBackendThreads);

  // Set-up: generate the data, build the eval model and warm every
  // path once (one 1-epoch training run, one eval pass). Repeated, and
  // the median reported, so set-up time is a steady metric.
  GraphDataset dataset;
  std::unique_ptr<oodgnn::GraphPredictionModel> eval_model;
  double expected_eval = 0.0;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = NowSeconds();
    dataset = oodgnn::MakeTrianglesDataset(oodgnn::TrianglesConfig{},
                                           options.seed);
    eval_model = MakeEvalModel(dataset, options.seed);
    oodgnn::TrainAndEvaluate(oodgnn::Method::kOodGnn, dataset,
                             MakeConfig(options.seed, 1));
    oodgnn::Rng rng(options.seed);
    expected_eval = oodgnn::EvaluateSplit(eval_model.get(), dataset,
                                          dataset.test_idx, kEvalBatch, &rng);
    setup_s.push_back(NowSeconds() - t0);
  }
  out.Check(expected_eval >= 0.0 && expected_eval <= 1.0,
            "eval accuracy within [0, 1]");
  double max_nodes = 0;
  double mean_nodes = 0;
  for (size_t idx : dataset.test_idx) {
    const double n = dataset.graphs[idx].num_nodes();
    max_nodes = std::max(max_nodes, n);
    mean_nodes += n / static_cast<double>(dataset.test_idx.size());
  }
  out.Note("train-sizeshift: " + std::to_string(dataset.train_idx.size()) +
           " train graphs, OOD test split of " +
           std::to_string(dataset.test_idx.size()) + " graphs (max " +
           std::to_string(static_cast<int>(max_nodes)) + " nodes, mean " +
           std::to_string(static_cast<int>(mean_nodes)) + ")");

  const size_t train_graphs = dataset.train_idx.size();
  const double test_graphs = static_cast<double>(dataset.test_idx.size());
  const auto graphs_per_s = [&](const Walls& runs) {
    return kEpochsPerRun * static_cast<double>(train_graphs) /
           (Median(runs) * 1e-6);
  };

  if (!options.trace) {
    // The whole window trains: eval passes are traced only (README.md).
    const Walls runs =
        MeasureTrain(dataset, options.seed, options.seconds, nullptr, &out);
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    out.Add("graphs_per_s", graphs_per_s(runs), "graphs/s");
    out.Add("p50_us", Median(runs), "us");
    out.Note("train_graphs_per_s = " + std::to_string(graphs_per_s(runs)) +
             " (median of " + std::to_string(runs.size()) + " runs of " +
             std::to_string(kEpochsPerRun) + " epochs; p50_us is per run)");
    return out;
  }

  // Traced run, in thirds. The first runs untraced and the second with
  // the tracer and kernel counters on: the difference is the tracing
  // overhead, and the second gives the per-layer numbers. The third
  // trains, traced, on a 2-thread backend pool.
  const double third = options.seconds / 3;
  const Walls plain_runs = MeasureTrain(dataset, options.seed,
                                        kTrainShare * third, nullptr, &out);
  MeasureEval(dataset, eval_model.get(), options.seed,
              (1 - kTrainShare) * third, expected_eval, nullptr, &out);

  // Direct forward (untraced): one graph at a time, batch build plus
  // no-grad Predict, over the OOD test split.
  std::vector<double> direct_us;
  for (size_t idx : dataset.test_idx) {
    oodgnn::NoGradGuard no_grad;
    oodgnn::Rng rng(options.seed);
    const std::int64_t t0 = NowMicros();
    const oodgnn::GraphBatch batch =
        oodgnn::GraphBatch::FromGraphs({&dataset.graphs[idx]});
    eval_model->Predict(batch, /*training=*/false, &rng);
    direct_us.push_back(static_cast<double>(NowMicros() - t0));
  }

  SpanLog spans(50000);
  oodgnn::obs::SetProfilingEnabled(true);
  oodgnn::obs::ResetTrace();
  const KernelTotals k0 = ReadKernelTotals();
  const std::int64_t allocs0 = oodgnn::TensorHeapAllocsThisThread();
  const Walls runs = MeasureTrain(dataset, options.seed, kTrainShare * third,
                                  &spans, &out);
  const std::map<std::string, PhaseTotals> phases = ReadPhases();
  const KernelTotals train_k = ReadKernelTotals() - k0;
  const std::int64_t train_allocs =
      oodgnn::TensorHeapAllocsThisThread() - allocs0;
  oodgnn::obs::ResetTrace();
  const KernelTotals k1 = ReadKernelTotals();
  const Walls passes =
      MeasureEval(dataset, eval_model.get(), options.seed,
                  (1 - kTrainShare) * third, expected_eval, &spans, &out);
  const KernelTotals eval_k = ReadKernelTotals() - k1;
  Walls pool_runs;
  KernelTotals pool_k;
  {
    oodgnn::ScopedBackendThreads pool(kPoolThreads);
    const KernelTotals k2 = ReadKernelTotals();
    pool_runs = MeasureTrain(dataset, options.seed, third, nullptr, &out);
    pool_k = ReadKernelTotals() - k2;
  }
  oodgnn::obs::SetProfilingEnabled(false);

  // Per step: the tracer counts one train/loss_step per step. Step
  // wall time is the runs' wall time minus their in-run evaluation.
  const double steps =
      std::max<double>(1.0, phases.count("train/loss_step") != 0
                                ? phases.at("train/loss_step").count
                                : 0);
  const double encode = TotalUs(phases, "train/encode") / steps;
  const double reweight = TotalUs(phases, "train/reweight") / steps;
  const double loss_step = TotalUs(phases, "train/loss_step") / steps;
  const double step_wall =
      (Sum(runs) - static_cast<double>(TotalUs(phases, "train/eval"))) / steps;
  const double unattributed = step_wall - encode - reweight - loss_step;
  const double eval_wall = Sum(passes);

  out.Add("train.encode_us", encode, "us");
  out.Add("train.reweight_us", reweight, "us");
  out.Add("train.loss_step_us", loss_step, "us");
  out.Add("train.unattributed_us", unattributed, "us");
  out.Add("train.unattributed_share", unattributed / step_wall, "share");
  out.Add("train.eval_pass_us", Median(passes), "us");
  out.Add("train.eval_unattributed_share",
          1.0 - static_cast<double>(eval_k.us) / eval_wall, "share");
  out.Add("core.rff_us", SelfUs(phases, {"core/rff_transform"}) / steps, "us");
  out.Add("core.hsic_us",
          SelfUs(phases, {"core/decorrelation_loss", "core/dependence_matrix",
                          "core/hsic_exact", "core/hsic_pairwise"}) /
              steps,
          "us");
  out.Add("core.weight_opt_us",
          SelfUs(phases, {"core/weight_optimize", "core/compute_weights"}) /
              steps,
          "us");
  out.Add("tensor.kernel_share", static_cast<double>(train_k.us) / Sum(runs),
          "share");
  out.Add("tensor.kernel_calls_per_step",
          static_cast<double>(train_k.calls) / steps, "count");
  out.Add("tensor.parallel_call_share",
          static_cast<double>(pool_k.parallel_calls) /
              std::max<double>(1.0, static_cast<double>(pool_k.calls)),
          "share");
  out.Add("tensor.pool2_speedup", Median(runs) / Median(pool_runs), "x");
  out.Add("tensor.heap_allocs_per_step",
          static_cast<double>(train_allocs) / steps, "count");
  out.Add("gnn.predict_direct_us", Median(direct_us), "us");
  out.Add("trace.overhead_share", Median(runs) / Median(plain_runs) - 1.0,
          "share");
  out.Note("traced " + std::to_string(runs.size()) + " runs (" +
           std::to_string(static_cast<long long>(steps)) + " steps) and " +
           std::to_string(passes.size()) + " eval passes (eval_graphs_per_s " +
           std::to_string(test_graphs / (Median(passes) * 1e-6)) +
           "); untraced: " +
           std::to_string(plain_runs.size()) + " runs; 2-thread pool: " +
           std::to_string(pool_runs.size()) + " runs");
  out.Note("unattributed share: train step " +
           std::to_string(unattributed / step_wall) + ", eval pass " +
           std::to_string(1.0 - static_cast<double>(eval_k.us) / eval_wall));
  out.Check(options.trace_out.empty() ||
                spans.WriteChromeTrace(options.trace_out),
            "span file written");
  return out;
}

}  // namespace perfbench
