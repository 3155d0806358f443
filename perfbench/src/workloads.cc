#include "workloads.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include <sched.h>

#include "core/calibrator.h"
#include "core/fae_pipeline.h"
#include "core/input_processor.h"
#include "data/batch_view.h"
#include "data/dataset_io.h"
#include "data/synthetic.h"
#include "embedding/embedding_bag.h"
#include "embedding/sparse_sgd.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "serve/serving_loop.h"
#include "sim/device.h"
#include "tensor/ops.h"
#include "trace.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    // The whole FAE path on one thread: calibrator, classifier, shuffle
    // scheduler transitions and hot-slice syncs, plus the host GEMMs and
    // interaction backward. The budget and sample rate put it in the
    // paper's majority-hot regime. No thread pool, no pipeline, no cache.
    WorkloadSpec kaggle;
    kaggle.name = "train-kaggle-fae";
    kaggle.entry = Entry::kFae;
    kaggle.kind = fae::WorkloadKind::kKaggleDlrm;
    kaggle.inputs = 60000;
    kaggle.batch = 1024;
    kaggle.budget_bytes = 8ull << 20;
    kaggle.sample_rate = 0.5;
    w.push_back(kaggle);
    // The hybrid baseline at dim 64 with the BatchPipeline producer thread
    // beside the step thread, and a binding oracle-cache budget (Belady
    // eviction runs). It never calls the calibrator. Its timed passes use
    // one kernel thread: with two, ParallelFor's per-call wake-ups made the
    // run's throughput swing by 0.39 across seeds on a shared VM, against
    // about 1% with one. ParallelFor scaling is the traced run's
    // 1-vs-2-thread probe instead.
    WorkloadSpec tera;
    tera.name = "train-terabyte-hybrid-mt";
    tera.entry = Entry::kHybrid;
    tera.kind = fae::WorkloadKind::kTerabyteDlrm;
    tera.inputs = 24000;
    tera.scaling_threads = 2;
    tera.batch = 256;
    tera.pipeline = fae::PipelineMode::kOverlap;
    tera.cache = fae::CacheMode::kOracle;
    tera.cache_budget_rows = 3072;
    tera.budget_bytes = 384ull << 10;
    w.push_back(tera);
    // Online serving under popularity drift: read-mostly lookups beside
    // one training step per batch, repeated calibration over a sliding
    // window, and hot-set swaps through the FaeFormat container.
    WorkloadSpec serve;
    serve.name = "serve-taobao-drift";
    serve.entry = Entry::kServe;
    serve.kind = fae::WorkloadKind::kTaobaoTbsm;
    serve.inputs = 100000;
    serve.drift = 0.5;
    serve.batch = 256;
    serve.budget_bytes = 2ull << 20;
    serve.sample_rate = 0.25;
    w.push_back(serve);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

fae::Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& path) {
  fae::SyntheticOptions options;
  options.seed = seed;
  options.zipf_exponent = spec.zipf;
  options.popularity_drift = spec.drift;
  fae::SyntheticGenerator generator(fae::MakeSchema(spec.kind, spec.scale),
                                    options);
  return fae::DatasetIo::Save(path, generator.Generate(spec.inputs));
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kModelSeed = 7;
// Set-up passes timed after one warm-up pass; setup_s is their median.
constexpr int kSetupPasses = 7;
// Bounds on the timed passes of one run: it stops at --seconds once it has
// the minimum, and after kMaxPasses attempts in any case.
constexpr size_t kMinPasses = 5;
constexpr size_t kMaxPasses = 200;
// Repetitions of each per-layer probe after a warm-up call.
constexpr int kProbeReps = 5;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Counts library operations and the correctness checks they fail.
class Checks {
 public:
  bool Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
    return ok;
  }
  bool Ok(const fae::Status& status, const std::string& what) {
    return Op(status.ok(), what + ": " + status.ToString());
  }
  Result Finish(std::vector<Metric> metrics) const {
    Result r;
    r.attempted = attempted_;
    r.failed = failed_;
    r.correct = failed_ == 0 && attempted_ > 0;
    r.metrics = std::move(metrics);
    return r;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

fae::FaeConfig MakeFaeConfig(const WorkloadSpec& spec) {
  fae::FaeConfig config;
  config.sample_rate = spec.sample_rate;
  config.gpu_memory_budget = spec.budget_bytes;
  config.large_table_bytes = 4 * 1024;
  config.num_threads = 1;
  return config;
}

fae::SystemSpec MakeSystem(const WorkloadSpec& spec) {
  fae::SystemSpec system = fae::MakePaperServer(spec.gpus);
  system.hot_embedding_budget = spec.budget_bytes;
  return system;
}

fae::TrainOptions MakeTrainOptions(const WorkloadSpec& spec) {
  fae::TrainOptions options;
  options.per_gpu_batch = spec.batch;
  options.num_threads = 1;
  options.pipeline = spec.pipeline;
  options.cache = spec.cache;
  if (spec.cache != fae::CacheMode::kOff) {
    options.cache_budget_rows = spec.cache_budget_rows;
  }
  return options;
}

size_t GlobalBatch(const WorkloadSpec& spec) {
  return spec.entry == Entry::kServe
             ? spec.batch
             : spec.batch * static_cast<size_t>(spec.gpus);
}

/// What set-up builds before the first training step or request.
struct Setup {
  std::optional<fae::Dataset> dataset;
  /// Serving replays every input, so its `train` list holds all ids.
  fae::Dataset::Split split;
  fae::FaePlan plan;
};

bool RunSetup(const WorkloadSpec& spec, const std::string& path,
              Tracer& tracer, Checks& checks, Setup* out) {
  Tracer::Scope all(tracer, "setup");
  {
    Tracer::Scope span(tracer, "data.load");
    auto loaded = fae::DatasetIo::Load(path);
    if (!checks.Ok(loaded.status(), "DatasetIo::Load")) return false;
    out->dataset.emplace(std::move(loaded).value());
  }
  const fae::Dataset& dataset = *out->dataset;
  if (spec.entry == Entry::kServe) {
    out->split.train.resize(dataset.size());
    std::iota(out->split.train.begin(), out->split.train.end(), 0);
  } else {
    out->split = dataset.MakeSplit(0.1);
  }
  if (spec.entry != Entry::kHybrid) {
    Tracer::Scope span(tracer, "core.prepare");
    auto plan = fae::FaePipeline(MakeFaeConfig(spec))
                    .Prepare(dataset, out->split.train);
    if (!checks.Ok(plan.status(), "FaePipeline::Prepare")) return false;
    out->plan = std::move(plan).value();
  }
  {
    // Every pass trains a fresh model; set-up pays for building one.
    Tracer::Scope span(tracer, "models.make");
    fae::MakeModel(dataset.schema(), false, kModelSeed);
  }
  return true;
}

/// One training or serving pass on a fresh model.
struct Pass {
  bool ok = false;
  double host_s = 0.0;
  uint64_t samples = 0;
  double modeled_s = 0.0;
  double loss = 0.0;
  fae::Timeline timeline;
  fae::TrainReport train;
  fae::ServeReport serve;
};

bool PhaseSumMatches(const fae::Timeline& timeline) {
  double sum = 0.0;
  for (int p = 0; p < static_cast<int>(fae::Phase::kNumPhases); ++p) {
    sum += timeline.seconds(static_cast<fae::Phase>(p));
  }
  return SameBits(sum, timeline.PhaseSumSeconds());
}

/// Runs one pass with `options` (training entries) and checks every
/// contract that holds within a single pass. `span` names the traced span
/// around the library call.
Pass RunPass(const WorkloadSpec& spec, const Setup& setup,
             const fae::TrainOptions& options, const RunOptions& run,
             Tracer& tracer, const char* span, Checks& checks) {
  Pass pass;
  const fae::Dataset& dataset = *setup.dataset;
  auto model = fae::MakeModel(dataset.schema(), false, kModelSeed);
  const fae::SystemSpec system = MakeSystem(spec);
  if (spec.entry == Entry::kServe) {
    fae::ServeOptions serve_options;
    serve_options.batch_size = spec.batch;
    serve_options.swap_path = run.scratch_dir + "/swap.faef";
    fae::ServingLoop loop(model.get(), system, MakeFaeConfig(spec),
                          serve_options);
    const auto t0 = Clock::now();
    fae::StatusOr<fae::ServeReport> report = [&] {
      Tracer::Scope s(tracer, span);
      return loop.Serve(dataset, setup.plan);
    }();
    pass.host_s = SecondsSince(t0);
    if (!checks.Ok(report.status(), "ServingLoop::Serve")) return pass;
    pass.serve = std::move(report).value();
    const fae::ServeReport& r = pass.serve;
    pass.samples = r.requests;
    pass.modeled_s = r.modeled_seconds;
    pass.loss = r.train_loss;
    pass.timeline = r.timeline;
    checks.Op(r.hot_hits + r.stale_hits + r.master_fallbacks + r.cache_hits +
                      r.misses ==
                  r.lookups,
              "serving lookup partition sums to lookups");
    checks.Op(!r.interrupted && r.requests > 0, "serving ran to the end");
  } else {
    fae::Trainer trainer(model.get(), system, options);
    const auto t0 = Clock::now();
    fae::StatusOr<fae::TrainReport> report = [&] {
      Tracer::Scope s(tracer, span);
      if (spec.entry == Entry::kFae) {
        return trainer.TrainFaeWithPlan(dataset, setup.split,
                                        MakeFaeConfig(spec), setup.plan);
      }
      return trainer.TrainBaselineResumable(dataset, setup.split);
    }();
    pass.host_s = SecondsSince(t0);
    if (!checks.Ok(report.status(), "Trainer::Train")) return pass;
    pass.train = std::move(report).value();
    const fae::TrainReport& r = pass.train;
    pass.samples = setup.split.train.size() * options.epochs;
    pass.modeled_s = r.modeled_seconds;
    pass.loss = r.final_test_loss;
    pass.timeline = r.timeline;
    checks.Op(!r.interrupted && r.num_batches > 0, "training ran to the end");
  }
  checks.Op(PhaseSumMatches(pass.timeline),
            "phase seconds sum to Timeline::PhaseSumSeconds");
  checks.Op(pass.modeled_s > 0.0 && pass.host_s > 0.0,
            "pass took modeled and host time");
  pass.ok = true;
  return pass;
}

/// Share of embedding lookups answered by a GPU-resident row without a
/// CPU round trip: the fresh hot-slice hit rate when serving, the hot
/// share for FAE training (every input has one lookup per table, so the
/// input share is the lookup share), and the oracle cache's hit rate on
/// the hybrid baseline.
double GpuHitRate(const WorkloadSpec& spec, const Pass& pass) {
  switch (spec.entry) {
    case Entry::kServe:
      return pass.serve.hit_rate;
    case Entry::kFae:
      return pass.train.hot_fraction;
    case Entry::kHybrid:
      return pass.train.cache_hit_rate;
  }
  return 0.0;
}

/// Moves the calling thread, and the threads it starts afterwards, to the
/// next window of `width` CPUs in turn, so successive passes sample every
/// core. On a shared VM each vCPU slows down and recovers on its own, in
/// spells of several seconds. A run that stays on the same cores measures
/// their spells; a run that rotates measures the machine. The window is as
/// wide as the workload's busy threads, so they never share a core.
class CpuRotation {
 public:
  explicit CpuRotation(size_t width) : width_(width) {
    cpu_set_t saved{};
    if (sched_getaffinity(0, sizeof(saved), &saved) != 0) return;
    saved_ = saved;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() <= width_) return;  // nothing to rotate over
    next_ = (next_ + 1) % cpus_.size();
    cpu_set_t window{};
    for (size_t i = 0; i < width_; ++i) {
      CPU_SET(cpus_[(next_ + i) % cpus_.size()], &window);
    }
    sched_setaffinity(0, sizeof(window), &window);
  }

 private:
  size_t width_;
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Set-up passes: one warm-up, then kSetupPasses timed. Returns the
/// median and leaves the last pass's state in `keep`.
bool TimedSetup(const WorkloadSpec& spec, const RunOptions& run,
                Checks& checks, Setup* keep, double* median_s) {
  Tracer off(false);
  std::vector<double> seconds;
  CpuRotation rotation(1);  // set-up runs on one thread
  for (int i = 0; i <= kSetupPasses; ++i) {
    rotation.Next();
    *keep = Setup();  // release the previous pass before loading again
    const auto t0 = Clock::now();
    if (!RunSetup(spec, run.data_path, off, checks, keep)) return false;
    if (i > 0) seconds.push_back(SecondsSince(t0));
  }
  *median_s = Median(seconds);
  return true;
}

Result RunEndToEnd(const WorkloadSpec& spec, const RunOptions& run) {
  Checks checks;
  Tracer off(false);
  Setup setup;
  double setup_s = 0.0;
  if (!TimedSetup(spec, run, checks, &setup, &setup_s)) {
    return checks.Finish({});
  }

  const fae::TrainOptions options = MakeTrainOptions(spec);
  const Pass first =
      RunPass(spec, setup, options, run, off, "warm-up", checks);
  if (!first.ok) return checks.Finish({});
  std::vector<double> rates;
  const auto start = Clock::now();
  CpuRotation rotation(spec.pipeline != fae::PipelineMode::kOff ? 2 : 1);
  for (size_t attempt = 0;
       (SecondsSince(start) < run.seconds || rates.size() < kMinPasses) &&
       attempt < kMaxPasses;
       ++attempt) {
    rotation.Next();
    const Pass p = RunPass(spec, setup, options, run, off, "timed", checks);
    if (!p.ok) continue;
    rates.push_back(static_cast<double>(p.samples) / p.host_s);
    checks.Op(SameBits(p.loss, first.loss) &&
                  SameBits(p.modeled_s, first.modeled_s),
              "loss and modeled time bit-identical across passes");
  }
  std::fprintf(stderr, "perfbench: %zu timed passes, samples/s:",
               rates.size());
  for (double r : rates) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\n");
  if (spec.entry == Entry::kHybrid) {
    // The bit-exactness contract: thread count, pipelining and the cache
    // never change the math.
    fae::TrainOptions reference = options;
    reference.num_threads = spec.scaling_threads;
    reference.pipeline = fae::PipelineMode::kOff;
    reference.cache = fae::CacheMode::kOff;
    const Pass ref =
        RunPass(spec, setup, reference, run, off, "reference", checks);
    checks.Op(ref.ok && SameBits(ref.loss, first.loss),
              "loss equals a pass with other threads, pipeline and cache "
              "off");
  }

  std::vector<Metric> metrics;
  const std::map<std::string, double> values = {
      {"setup_s", setup_s},
      {"host_samples_per_s", Median(rates)},
      {"modeled_samples_per_s",
       static_cast<double>(first.samples) / first.modeled_s},
      {"loss", first.loss},
      {"peak_rss_mb", PeakRssMb()},
      {"hit_rate", GpuHitRate(spec, first)},
  };
  for (const MetricDef& def : EndToEndMetrics()) {
    metrics.push_back({def.name, values.at(def.name), def.unit});
  }
  return checks.Finish(std::move(metrics));
}

/// Per-layer probes: direct calls into each layer's public functions on
/// the workload's own inputs, one warm-up call then kProbeReps traced.
void RunProbes(const WorkloadSpec& spec, const Setup& setup, Tracer& tracer,
               Checks& checks, std::map<std::string, double>* values) {
  Tracer off(false);
  const fae::Dataset& dataset = *setup.dataset;
  const fae::FaeConfig config = MakeFaeConfig(spec);
  const auto reps = [&](const char* name, const auto& fn) {
    fn(off);
    for (int i = 0; i < kProbeReps; ++i) {
      Tracer::Scope s(tracer, name);
      fn(tracer);
    }
    return Median(SpanSeconds(tracer.spans(), name));
  };

  if (spec.entry != Entry::kHybrid) {
    Tracer::Scope group(tracer, "probe.core");
    (*values)["core.calibrate_s"] = reps("core.calibrate", [&](Tracer&) {
      checks.Ok(fae::Calibrator(config).Calibrate(dataset).status(),
                "Calibrator::Calibrate");
    });
    const fae::InputProcessor processor(config.num_threads);
    (*values)["core.classify_s"] = reps("core.classify", [&](Tracer&) {
      const fae::ProcessedInputs inputs =
          processor.Classify(dataset, setup.plan.hot_set, setup.split.train);
      checks.Op(inputs.hot_ids.size() == setup.plan.inputs.hot_ids.size(),
                "InputProcessor::Classify reproduces the plan's hot set");
    });
    (*values)["core.pack_s"] = reps("core.pack", [&](Tracer&) {
      const auto packed =
          fae::InputProcessor::PackFlat(dataset, setup.plan.inputs, 1);
      checks.Op(packed.hot.size() + packed.cold.size() ==
                    setup.plan.inputs.hot_ids.size() +
                        setup.plan.inputs.cold_ids.size(),
                "InputProcessor::PackFlat keeps every input");
    });
  }

  Tracer::Scope group(tracer, "probe.kernels");
  const size_t batch = std::min(GlobalBatch(spec), setup.split.train.size());
  fae::Xoshiro256 rng(kModelSeed);
  std::vector<uint64_t> ids = fae::RandomPermutation(
      static_cast<uint64_t>(setup.split.train.size()), rng);
  ids.resize(batch);
  fae::FlatDataset gathered;
  (*values)["data.gather_s"] = reps("data.gather", [&](Tracer&) {
    dataset.flat().GatherInto(ids, &gathered);
  });
  const fae::BatchView view =
      fae::MakeBatchView(gathered, 0, gathered.size(), false);

  auto model = fae::MakeModel(dataset.schema(), false, kModelSeed);
  std::vector<fae::EmbeddingTable*> tables;
  for (fae::EmbeddingTable& t : model->tables()) tables.push_back(&t);
  std::vector<fae::SparseSgd> sgd(tables.size(), fae::SparseSgd(0.1f));

  // With a pool, the model and the fused steps run on it; the model drops
  // the pool again before the caller's pool goes away.
  const auto fwd_bwd = [&](const char* name, fae::ThreadPool* p) {
    model->SetThreadPool(p);
    const double seconds = reps(name, [&](Tracer& tr) {
      const fae::SparseApplyFn apply =
          [&](size_t t, const fae::Tensor& grad,
              std::span<const uint32_t> indices,
              std::span<const uint32_t> offsets) {
            Tracer::Scope s(tr, "embedding.fused_step");
            sgd[t].FusedBackwardStep(*tables[t], grad, indices, offsets, p);
          };
      const fae::StepResult step =
          model->ForwardBackwardFusedOn(view, tables, apply);
      checks.Op(step.batch_size == view.batch_size(),
                "RecModel::ForwardBackwardFusedOn covers the batch");
    });
    model->SetThreadPool(nullptr);
    return seconds;
  };
  (*values)["models.fwd_bwd_s"] = fwd_bwd("models.fwd_bwd", nullptr);
  (*values)["util.thread_speedup"] = 1.0;
  if (spec.scaling_threads > 1) {
    fae::ThreadPool wide(spec.scaling_threads);
    (*values)["util.thread_speedup"] =
        (*values)["models.fwd_bwd_s"] / fwd_bwd("models.fwd_bwd_mt", &wide);
  }
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = SelfSeconds(spans);
  std::vector<double> fwd_self;
  std::vector<double> fused;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "models.fwd_bwd") continue;
    fwd_self.push_back(self[i]);
    double sum = 0.0;
    for (size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[j].parent == static_cast<int>(i)) sum += spans[j].seconds();
    }
    fused.push_back(sum);
  }
  (*values)["models.fwd_bwd_self_s"] = Median(fwd_self);
  (*values)["embedding.fused_step_s"] = Median(fused);
  (*values)["embedding.rows_touched"] =
      static_cast<double>(model->Work(view).touched_rows);

  std::vector<fae::Tensor> pooled(tables.size());
  (*values)["embedding.bag_forward_s"] = reps("embedding.bag_forward",
                                              [&](Tracer&) {
    for (size_t t = 0; t < tables.size(); ++t) {
      fae::EmbeddingBag::ForwardInto(pooled[t], *tables[t], view.indices(t),
                                     view.offsets(t), nullptr);
    }
  });
  const fae::BatchView eval_view =
      fae::MakeBatchView(gathered, 0, std::min<size_t>(512, batch), false);
  (*values)["models.eval_s"] = reps("models.eval", [&](Tracer&) {
    const fae::Tensor logits = model->EvalLogits(eval_view);
    checks.Op(logits.rows() == eval_view.batch_size(),
              "RecModel::EvalLogits covers the batch");
  });

  // The first top-MLP layer's GEMM at the training batch.
  const std::vector<size_t> top =
      fae::MakeModelConfig(dataset.schema(), false).top_mlp;
  const fae::Tensor a = fae::Tensor::RandUniform(batch, top[0], 1.0f, rng);
  const fae::Tensor b = fae::Tensor::RandUniform(top[0], top[1], 1.0f, rng);
  fae::Tensor c;
  const double gemm_s = reps("tensor.gemm", [&](Tracer&) {
    fae::MatMulInto(c, a, b, nullptr);
  });
  (*values)["tensor.gemm_s"] = gemm_s;
  (*values)["tensor.gemm_gflops"] =
      2.0 * static_cast<double>(batch * top[0] * top[1]) / gemm_s / 1e9;
}

void TimelineMetrics(const fae::Timeline& tl,
                     std::map<std::string, double>* values) {
  for (int p = 0; p < static_cast<int>(fae::Phase::kNumPhases); ++p) {
    const auto phase = static_cast<fae::Phase>(p);
    (*values)["sim.phase." + std::string(fae::PhaseName(phase)) + "_s"] =
        tl.seconds(phase);
  }
  (*values)["sim.pcie_bytes"] = static_cast<double>(tl.pcie_bytes());
  (*values)["sim.nvlink_bytes"] = static_cast<double>(tl.nvlink_bytes());
}

Result RunTraced(const WorkloadSpec& spec, const RunOptions& run) {
  Checks checks;
  Tracer tracer(true);
  Tracer off(false);
  std::map<std::string, double> values;
  for (const MetricDef& def : PerLayerMetrics()) values[def.name] = 0.0;

  Setup setup;
  if (!RunSetup(spec, run.data_path, off, checks, &setup)) {
    return checks.Finish({});
  }
  setup = Setup();
  const double begin = tracer.Now();
  if (!RunSetup(spec, run.data_path, tracer, checks, &setup)) {
    return checks.Finish({});
  }
  values["data.load_s"] = Median(SpanSeconds(tracer.spans(), "data.load"));
  if (spec.entry != Entry::kHybrid) {
    values["core.prepare_s"] =
        Median(SpanSeconds(tracer.spans(), "core.prepare"));
    values["core.hot_input_share"] = setup.plan.inputs.HotFraction();
    values["core.hot_bytes"] = static_cast<double>(setup.plan.hot_bytes);
    values["core.threshold"] = setup.plan.threshold;
  }
  RunProbes(spec, setup, tracer, checks, &values);

  const fae::TrainOptions options = MakeTrainOptions(spec);
  const bool serving = spec.entry == Entry::kServe;
  const char* pass_span = serving ? "serve.serve" : "engine.train";
  const Pass traced =
      RunPass(spec, setup, options, run, tracer, pass_span, checks);
  if (!traced.ok) return checks.Finish({});
  TimelineMetrics(traced.timeline, &values);
  if (serving) {
    const fae::ServeReport& r = traced.serve;
    values["serve.serve_s"] = traced.host_s;
    values["serve.recal_attempts"] = static_cast<double>(r.recal_attempts);
    values["serve.swaps"] = static_cast<double>(r.swaps);
    values["serve.swap_rejects"] = static_cast<double>(r.swap_rejects);
    values["serve.stale_hits"] = static_cast<double>(r.stale_hits);
    values["serve.misses"] = static_cast<double>(r.misses);
    values["serve.coverage_ema"] = r.coverage_ema;
    values["serve.train_steps"] = static_cast<double>(r.train_steps);
    values["serve.modeled_p99_us"] =
        static_cast<double>(r.p99_latency_ns) / 1e3;
  } else {
    const fae::TrainReport& r = traced.train;
    values["engine.train_s"] = traced.host_s;
    values["engine.transitions"] = static_cast<double>(r.transitions);
    values["engine.sync_bytes"] = static_cast<double>(r.sync_bytes);
    values["engine.hot_batch_share"] =
        r.num_batches > 0 ? static_cast<double>(r.hot_batches) /
                                static_cast<double>(r.num_batches)
                          : 0.0;
    values["engine.cache_hit_rate"] = r.cache_hit_rate;
    values["engine.cache_saved_s"] = r.cache_saved_seconds;
    values["engine.cache_prefetch_bytes"] =
        static_cast<double>(r.cache_prefetch_bytes);
    values["engine.cache_writeback_bytes"] =
        static_cast<double>(r.cache_writeback_bytes);
    values["engine.overlap_saved_s"] = r.overlap_saved_seconds;
    fae::TrainOptions cost_only = options;
    cost_only.run_math = false;
    const Pass c = RunPass(spec, setup, cost_only, run, tracer,
                           "engine.cost_only", checks);
    values["engine.cost_only_s"] = c.host_s;
  }
  values["trace.coverage"] =
      TopLevelCoverage(tracer.spans(), tracer.Now() - begin);

  // Tracing overhead: alternate untraced and traced passes and compare
  // their medians. Every pass must reproduce the traced pass's loss.
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  const auto start = Clock::now();
  for (size_t attempt = 0;
       (SecondsSince(start) < run.seconds || plain_s.size() < 2) &&
       attempt < kMaxPasses;
       ++attempt) {
    for (Tracer* tr : {&off, &tracer}) {
      const Pass p = RunPass(spec, setup, options, run, *tr, pass_span,
                             checks);
      if (!p.ok) continue;
      (tr == &off ? plain_s : traced_s).push_back(p.host_s);
      checks.Op(SameBits(p.loss, traced.loss),
                "loss bit-identical between traced and untraced passes");
    }
  }
  values["trace.overhead_frac"] = Median(traced_s) / Median(plain_s) - 1.0;

  if (!run.trace_out.empty()) {
    checks.Ok(tracer.WriteChromeTrace(run.trace_out), "write trace");
  }
  std::vector<Metric> metrics;
  for (const MetricDef& def : PerLayerMetrics()) {
    metrics.push_back({def.name, values.at(def.name), def.unit});
  }
  FAE_CHECK_EQ(values.size(), metrics.size())
      << "a per-layer value was set under a name the benchmark does not "
         "declare";
  return checks.Finish(std::move(metrics));
}

}  // namespace

Result RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  return options.trace ? RunTraced(spec, options) : RunEndToEnd(spec, options);
}

}  // namespace perfbench
