// train-small and train-paper: PRIM training measured through the library's
// public functions (data::GenerateSyntheticCity, train::PrepareExperiment,
// train::Trainer::Fit, core::PrimIndex::Build, io::SaveTrainedModel).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/prim_index.h"
#include "core/prim_model.h"
#include "data/presets.h"
#include "io/model_io.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/profiler.h"
#include "train/batch_assembler.h"
#include "train/evaluator.h"
#include "train/experiment.h"
#include "train/trainer.h"
#include "workloads.h"

namespace primbench {
namespace {

using namespace prim;

// A city and the experiment prepared over it. Heap-held: the context keeps a
// pointer to the dataset.
struct Prepared {
  data::PoiDataset city;
  train::ExperimentConfig config;
  train::ExperimentData data;
};

std::unique_ptr<Prepared> Prepare(const data::SyntheticCityConfig& city_config,
                                  const train::ExperimentConfig& config,
                                  Result* result) {
  auto p = std::make_unique<Prepared>();
  const double t0 = NowS();
  p->city = data::GenerateSyntheticCity(city_config);
  const double t1 = NowS();
  p->config = config;
  p->config.SyncDims();
  p->data = train::PrepareExperiment(p->city, /*train_fraction=*/0.6, p->config);
  const double t2 = NowS();
  result->Set("data.generate_s", t1 - t0);
  result->Set("train.prepare_s", t2 - t1);
  return p;
}

// Wall time of each phase of one full-batch step.
struct StepTimes {
  double assemble = 0, forward = 0, loss = 0, backward = 0, step = 0;
  double total() const { return assemble + forward + loss + backward + step; }
};

// One optimiser step per call, phase for phase what Trainer::Fit does per
// epoch (same BatchAssembler stream, loss, clipping and Adam settings), so
// its phases can be timed from outside the library.
class StepRunner {
 public:
  StepRunner(models::RelationModel& model, const Prepared& p,
             const train::TrainConfig& config)
      : model_(model),
        assembler_(model.context(), p.data.split.train, *p.data.full_graph,
                   config),
        optimizer_(model.Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
                   config.weight_decay),
        config_(config) {}

  StepTimes Step(float* loss_value) {
    StepTimes t;
    double mark = NowS();
    auto lap = [&mark](double* into) {
      const double now = NowS();
      *into = now - mark;
      mark = now;
    };
    assembler_.BeginEpoch();
    const train::TripleBatch batch = assembler_.Assemble(
        0, assembler_.positives_per_epoch(), assembler_.phi_per_epoch());
    lap(&t.assemble);
    optimizer_.ZeroGrad();
    nn::Tensor h = model_.EncodeNodes(/*training=*/true);
    nn::Tensor logits = model_.ScorePairs(h, batch.pairs);
    lap(&t.forward);
    nn::Tensor loss =
        config_.objective == train::TrainObjective::kSoftmax
            ? nn::SoftmaxCrossEntropy(logits, batch.classes)
            : nn::BceWithLogits(nn::TakePerRow(logits, batch.classes),
                                batch.targets);
    lap(&t.loss);
    loss.Backward();
    lap(&t.backward);
    optimizer_.ClipGradNorm(config_.grad_clip);
    optimizer_.Step();
    lap(&t.step);
    *loss_value = loss.item();
    return t;
  }

 private:
  models::RelationModel& model_;
  train::BatchAssembler assembler_;
  nn::Adam optimizer_;
  train::TrainConfig config_;
};

// Warm-up steps (the end of set-up), then timed steps, with the traced run's
// per-phase, per-op and process counters.
struct StepSeries {
  std::vector<double> step_s;
  std::vector<float> warmup_losses;
  int steps_run = 0;
};

StepSeries RunSteps(StepRunner& runner, int warmup, int min_timed,
                    double min_timed_s, const Options& options,
                    Result* result) {
  StepSeries series;
  float loss = 0.0f;
  for (int s = 0; s < warmup; ++s) {
    runner.Step(&loss);
    series.warmup_losses.push_back(loss);
  }
  // Warm-up (first-touch allocation, thread-pool start) ends the set-up.
  result->Set("setup_s", NowS() - ProcessStartS());
  if (options.trace) {
    nn::ResetProfiler();
    nn::SetProfilerEnabled(true);
  }
  StepTimes sum;
  const CpuCounters cpu0 = SelfCpu();
  const double t0 = NowS();
  while (static_cast<int>(series.step_s.size()) < min_timed ||
         NowS() - t0 < min_timed_s) {
    const StepTimes t = runner.Step(&loss);
    if (!std::isfinite(loss)) result->CheckFailed("training loss is not finite");
    series.step_s.push_back(t.total());
    sum.assemble += t.assemble;
    sum.forward += t.forward;
    sum.loss += t.loss;
    sum.backward += t.backward;
    sum.step += t.step;
  }
  const double wall = NowS() - t0;
  const CpuCounters cpu1 = SelfCpu();
  series.steps_run = warmup + static_cast<int>(series.step_s.size());
  if (!options.trace) return series;

  nn::SetProfilerEnabled(false);
  const double n = static_cast<double>(series.step_s.size());
  result->Set("train.assemble_ms", sum.assemble * 1e3 / n);
  result->Set("train.forward_ms", sum.forward * 1e3 / n);
  result->Set("train.loss_ms", sum.loss * 1e3 / n);
  result->Set("train.backward_ms", sum.backward * 1e3 / n);
  result->Set("train.step_ms", sum.step * 1e3 / n);
  result->Set("proc.cpu_util",
              (cpu1.user_s + cpu1.sys_s - cpu0.user_s - cpu0.sys_s) / wall);
  result->Set("proc.sys_s", (cpu1.sys_s - cpu0.sys_s) / n);
  result->Set("proc.minflt", static_cast<double>(cpu1.minflt - cpu0.minflt) / n);
  const std::vector<nn::OpProfile> rows = nn::ProfilerSnapshot();
  for (const char* op : {"MatMul", "FusedGammaSegSum", "FusedAttnScore",
                         "SegmentSoftmax", "Tanh", "Gather"}) {
    double fwd_s = 0, bwd_s = 0, flops = 0;
    for (const nn::OpProfile& row : rows) {
      if (row.name == op) {
        fwd_s = row.seconds;
        flops += static_cast<double>(row.flops);
      } else if (row.name == std::string(op) + "/bwd") {
        bwd_s = row.seconds;
        flops += static_cast<double>(row.flops);
      }
    }
    const std::string prefix = std::string("nn.") + op;
    result->Set(prefix + ".ms", fwd_s * 1e3 / n);
    result->Set(prefix + ".bwd.ms", bwd_s * 1e3 / n);
    result->Set(prefix + ".gflops",
                fwd_s + bwd_s > 0 ? flops / (fwd_s + bwd_s) / 1e9 : 0.0);
  }
  return series;
}

// Argmax of one row of class scores.
int Argmax(const float* row, int n) {
  int best = 0;
  for (int c = 1; c < n; ++c)
    if (row[c] > row[best]) best = c;
  return best;
}

// PrimIndex argmax must equal the model's ScorePairs argmax on sampled test
// pairs; a pair whose top two logits are within float-rounding reach is a
// near-tie and may go either way.
void CheckIndexAgainstModel(core::PrimModel& model,
                            const core::PrimIndex& index,
                            const models::PairBatch& test, uint64_t seed,
                            Result* result) {
  Rng rng(seed);
  models::PairBatch sample;
  for (int s = 0; s < 512; ++s) {
    const int p = static_cast<int>(rng.UniformInt(test.size()));
    sample.Add(test.src[p], test.dst[p], test.dist_km[p], test.labels[p]);
  }
  nn::NoGradGuard no_grad;
  nn::Tensor h = model.EncodeNodes(/*training=*/false);
  nn::Tensor logits = model.ScorePairs(h, sample);
  const int classes = logits.cols();
  std::vector<float> scores(classes);
  int mismatches = 0;
  for (int p = 0; p < sample.size(); ++p) {
    const float* row = logits.data() + static_cast<size_t>(p) * classes;
    const int model_best = Argmax(row, classes);
    index.Query(sample.src[p], sample.dst[p], sample.dist_km[p],
                /*project=*/true, scores.data());
    const int index_best = Argmax(scores.data(), classes);
    if (index_best == model_best) continue;
    const float gap = row[model_best] - row[index_best];
    if (gap > 1e-4f * (1.0f + std::fabs(row[model_best]))) ++mismatches;
  }
  if (mismatches > 0)
    result->CheckFailed(std::to_string(mismatches) +
                        " sampled test pairs: PrimIndex argmax differs from "
                        "the model's ScorePairs argmax");
}

// Macro-F1 over the relationship classes (phi excluded), from predictions.
double MacroF1(const std::vector<int>& predictions,
               const std::vector<int>& labels, int num_classes) {
  const int phi = num_classes - 1;
  double sum = 0.0;
  int active = 0;
  for (int c = 0; c < phi; ++c) {
    long tp = 0, fp = 0, fn = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (predictions[i] == c && labels[i] == c) ++tp;
      if (predictions[i] == c && labels[i] != c) ++fp;
      if (predictions[i] != c && labels[i] == c) ++fn;
    }
    if (tp + fp + fn == 0) continue;
    sum += 2.0 * tp / static_cast<double>(2 * tp + fp + fn);
    ++active;
  }
  return active > 0 ? sum / active : 0.0;
}

// Saves the trained model with its index, maps it back and checks the
// loaded index is the saved one.
void SaveAndLoad(const core::PrimModel& model, const core::PrimIndex& index,
                 const Prepared& p, const Options& options, Result* result) {
  const std::string path = options.work_dir + "/trained.ckpt";
  const double t0 = NowS();
  if (io::Result r = io::SaveTrainedModel(path, model, "PRIM", &p.config.prim,
                                          &index, p.city);
      !r) {
    result->CheckFailed("SaveTrainedModel: " + r.error);
    return;
  }
  const double t1 = NowS();
  io::ModelCheckpoint loaded;
  if (io::Result r = io::LoadModelCheckpointMapped(path, &loaded); !r) {
    result->CheckFailed("LoadModelCheckpointMapped: " + r.error);
    return;
  }
  const double t2 = NowS();
  result->Set("io.save_ms", (t1 - t0) * 1e3);
  result->Set("io.load_ms", (t2 - t1) * 1e3);
  const size_t floats = static_cast<size_t>(index.num_nodes()) * index.dim();
  if (loaded.index == nullptr || loaded.index->num_nodes() != index.num_nodes() ||
      std::memcmp(loaded.index->embeddings_data(), index.embeddings_data(),
                  floats * sizeof(float)) != 0)
    result->CheckFailed("the reloaded checkpoint's index differs from the saved one");
  unlink(path.c_str());
}

}  // namespace

void RunTrainSmall(const Options& options, Result* result) {
  // The default preset and trainer settings: the same training problem in
  // every run, so fit_s and macro_f1 compare one fixed job across commits.
  // The seed drives the extra timed steps' batch stream and the samples the
  // checks draw. One worker thread: at the default thread count the step
  // median spread 26% over 10 runs on a shared 4-core host, at one thread
  // 5%, for a 6% difference in the medians.
  SetNumWorkerThreads(1);
  std::unique_ptr<Prepared> p =
      Prepare(data::BeijingConfig(data::DatasetScale::kSmall),
              train::ExperimentConfig(), result);

  train::TrainConfig step_config = p->config.trainer;
  step_config.seed = 1000 + options.seed;
  Rng rng_a(options.seed + 1);
  core::PrimModel model_a(p->data.ctx, p->config.prim, rng_a);
  StepRunner runner_a(model_a, *p, step_config);
  const StepSeries series =
      RunSteps(runner_a, /*warmup=*/3, /*min_timed=*/20, 0.0, options, result);

  // Thread determinism: the first steps' losses are bitwise equal at 1
  // thread and at the host's default thread count.
  SetNumWorkerThreads(0);
  Rng rng_b(options.seed + 1);
  core::PrimModel model_b(p->data.ctx, p->config.prim, rng_b);
  StepRunner runner_b(model_b, *p, step_config);
  for (size_t s = 0; s < series.warmup_losses.size(); ++s) {
    float loss = 0.0f;
    runner_b.Step(&loss);
    if (std::memcmp(&loss, &series.warmup_losses[s], sizeof(float)) != 0)
      result->CheckFailed("step " + std::to_string(s) + " loss differs between " +
                          "1 and " + std::to_string(NumWorkerThreads()) +
                          " threads");
  }
  SetNumWorkerThreads(1);

  // Fit to early stop on the default preset.
  Rng rng_c(1);
  core::PrimModel model(p->data.ctx, p->config.prim, rng_c);
  const double untrained = train::EvaluateModel(model, p->data.test).macro_f1;
  train::Trainer trainer(model, p->data.split.train, *p->data.full_graph,
                         p->config.trainer);
  const double fit0 = NowS();
  const train::TrainResult fit = trainer.Fit(&p->data.validation);
  const double fit_s = NowS() - fit0;

  // Macro-F1 recomputed from the predictions.
  const std::vector<int> predictions =
      train::PredictClasses(model, p->data.test);
  const double macro = MacroF1(predictions, p->data.test.labels,
                               model.num_classes());
  const double library = train::EvaluateModel(model, p->data.test).macro_f1;
  if (std::fabs(macro - library) > 1e-12)
    result->CheckFailed("macro-F1 from predictions " + std::to_string(macro) +
                        " != EvaluateModel's " + std::to_string(library));
  if (!(macro > untrained))
    result->CheckFailed("trained macro-F1 " + std::to_string(macro) +
                        " does not beat the untrained model's " +
                        std::to_string(untrained));

  const double build0 = NowS();
  const core::PrimIndex index = core::PrimIndex::Build(model);
  const double encode_ms = (NowS() - build0) * 1e3;
  CheckIndexAgainstModel(model, index, p->data.test, options.seed, result);
  SaveAndLoad(model, index, *p, options, result);

  if (options.trace) {
    const double eval0 = NowS();
    train::EvaluateModel(model, p->data.validation);
    // Fit validates every eval_every epochs: its per-epoch share.
    result->Set("train.eval_ms",
                (NowS() - eval0) * 1e3 / p->config.trainer.eval_every);
  }

  result->Set("job_s", fit_s);
  result->Set("p50_ms", Median(series.step_s) * 1e3);
  result->Set("peak_rss_mb", PeakRssMb(0));
  result->Set("fit_s", fit_s);
  result->Set("epoch_ms", Median(series.step_s) * 1e3);
  result->Set("macro_f1", macro);
  result->Set("encode_ms", encode_ms);
  result->attempted = series.steps_run +
                      static_cast<int64_t>(series.warmup_losses.size()) +
                      fit.epochs_run;
}

void RunTrainPaper(const Options& options, Result* result) {
  // Paper-sized BJ city (Table 1) at the §5.1.3 model size.
  data::SyntheticCityConfig city = data::BeijingConfig(data::DatasetScale::kPaper);
  city.seed += options.seed;
  train::ExperimentConfig config;
  config.model.dim = 128;
  config.model.tax_dim = 128;
  config.model.layers = 3;
  config.model.heads = 4;
  std::unique_ptr<Prepared> p = Prepare(city, config, result);

  train::TrainConfig step_config = p->config.trainer;
  step_config.seed = 1000 + options.seed;
  Rng rng(options.seed + 1);
  core::PrimModel model(p->data.ctx, p->config.prim, rng);
  StepRunner runner(model, *p, step_config);
  const StepSeries series =
      RunSteps(runner, /*warmup=*/1, /*min_timed=*/2, options.seconds, options,
               result);

  // Full-graph inference plus index build, the serving snapshot's cost.
  std::vector<double> encode_s;
  std::unique_ptr<core::PrimIndex> index;
  for (int b = 0; b < 3; ++b) {
    const double t0 = NowS();
    index = std::make_unique<core::PrimIndex>(core::PrimIndex::Build(model));
    encode_s.push_back(NowS() - t0);
  }
  CheckIndexAgainstModel(model, *index, p->data.test, options.seed, result);
  SaveAndLoad(model, *index, *p, options, result);

  if (options.trace) {
    const double eval0 = NowS();
    train::EvaluateModel(model, p->data.validation);
    result->Set("train.eval_ms",
                (NowS() - eval0) * 1e3 / p->config.trainer.eval_every);
  }

  result->Set("job_s", Median(encode_s));
  result->Set("p50_ms", Median(series.step_s) * 1e3);
  result->Set("peak_rss_mb", PeakRssMb(0));
  result->Set("epoch_ms", Median(series.step_s) * 1e3);
  result->Set("encode_ms", Median(encode_s) * 1e3);
  result->attempted = series.steps_run + static_cast<int64_t>(encode_s.size());
}

}  // namespace primbench
