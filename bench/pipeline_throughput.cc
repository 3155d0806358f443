// Seed-vs-flat data-pipeline throughput bench (the PR gate for the flat
// SoA dataset layout).
//
// The "seed" implementations below are verbatim copies of the pre-flat
// data layer: an array-of-structs `std::vector<SparseInput>` dataset,
// per-sample nested-vector walks in the Embedding Logger and Input
// Processor, copying MiniBatch assembly (Pack), and the materialized
// step loop (SparseGrad per table per step, separate optimizer pass)
// feeding the training epoch. The "flat" measurements run the current
// layer: one contiguous
// FlatDataset per class (PackFlat's Gather) viewed zero-copy by BatchViews,
// with streaming logger/classifier passes and the trainer-style
// allocation-free fused step (prebuilt apply functor, cached dense params).
//
// Every stage is also checked for bit-exact agreement — the determinism
// contract says the layout rework changes speed, never results.
//
// Usage:
//   pipeline_throughput [--out=BENCH_pipeline.json] [--inputs=24000]
//                       [--batch=128] [--epochs=2] [--reps=3] [--smoke]
//
// --smoke shrinks the workload so the whole suite runs in well under a
// second; ctest's bench_pipeline_smoke target uses it (see EXPERIMENTS.md).
//
// The headline number this PR is gated on — the epoch's layout-dependent
// work (logger + classification + pack, i.e. everything a training run's
// data path does besides the math kernels), single-thread, seed layout vs
// flat layout — is surfaced as the top-level field
// "criterion_epoch_setup_speedup". The with-math epoch is measured and
// bit-exactness-checked too ("end_to_end_epoch"); its speedup is reported
// but not gated, because the math kernels are shared by both layouts (and
// bit-exact by construction), so at any model size they only dilute the
// layout comparison.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/embedding_classifier.h"
#include "core/embedding_logger.h"
#include "core/input_processor.h"
#include "data/batch_view.h"
#include "data/dataset.h"
#include "data/minibatch.h"
#include "embedding/sparse_sgd.h"
#include "models/factory.h"
#include "stats/access_profile.h"
#include "tensor/sgd.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace fae {
namespace {

// ---------------------------------------------------------------------------
// Seed implementations (the pre-flat AoS data layer), kept here as the
// measurement baseline. Do not "improve" these: their value is being what
// the repo shipped before the layout rework.
// ---------------------------------------------------------------------------

/// Seed Embedding Logger: per-sample nested-vector walk (embedding_logger.cc
/// before the flat rework).
AccessProfile SeedProfile(const DatasetSchema& schema,
                          const std::vector<SparseInput>& samples,
                          uint64_t* num_lookups) {
  AccessProfile profile(schema.table_rows);
  *num_lookups = 0;
  for (const SparseInput& s : samples) {
    for (size_t t = 0; t < s.indices.size(); ++t) {
      for (uint32_t row : s.indices[t]) {
        profile.Record(t, row);
        ++*num_lookups;
      }
    }
  }
  return profile;
}

/// Seed Input Processor classification: the serial inner loop of the
/// pre-flat Classify (input_processor.cc before the rework).
void SeedClassify(const std::vector<SparseInput>& samples,
                  const HotSet& hot_set, std::vector<uint64_t>* hot_ids,
                  std::vector<uint64_t>* cold_ids) {
  hot_ids->clear();
  cold_ids->clear();
  for (size_t i = 0; i < samples.size(); ++i) {
    const SparseInput& s = samples[i];
    bool hot = true;
    for (size_t t = 0; t < s.indices.size() && hot; ++t) {
      for (uint32_t row : s.indices[t]) {
        if (!hot_set.IsHot(t, row)) {
          hot = false;
          break;
        }
      }
    }
    (hot ? hot_ids : cold_ids)->push_back(i);
  }
}

/// Seed copying batch assembly (minibatch.cc before the rework), reading
/// the AoS sample store.
MiniBatch SeedAssembleBatch(const DatasetSchema& schema,
                            const std::vector<SparseInput>& samples,
                            std::span<const uint64_t> sample_ids, bool hot) {
  const size_t b = sample_ids.size();
  MiniBatch batch;
  batch.hot = hot;
  batch.dense = Tensor(b, schema.num_dense);
  batch.indices.resize(schema.num_tables());
  batch.offsets.assign(schema.num_tables(), std::vector<uint32_t>(1, 0));
  batch.labels.resize(b);
  for (size_t i = 0; i < b; ++i) {
    const SparseInput& s = samples[sample_ids[i]];
    std::copy(s.dense.begin(), s.dense.end(), batch.dense.row(i));
    batch.labels[i] = s.label;
    for (size_t t = 0; t < schema.num_tables(); ++t) {
      auto& idx = batch.indices[t];
      idx.insert(idx.end(), s.indices[t].begin(), s.indices[t].end());
      batch.offsets[t].push_back(static_cast<uint32_t>(idx.size()));
    }
  }
  return batch;
}

std::vector<MiniBatch> SeedAssembleBatches(
    const DatasetSchema& schema, const std::vector<SparseInput>& samples,
    const std::vector<uint64_t>& sample_ids, size_t batch_size, bool hot) {
  std::vector<MiniBatch> out;
  for (size_t begin = 0; begin < sample_ids.size(); begin += batch_size) {
    const size_t end = std::min(sample_ids.size(), begin + batch_size);
    out.push_back(SeedAssembleBatch(
        schema, samples,
        std::span<const uint64_t>(sample_ids).subspan(begin, end - begin),
        hot));
  }
  return out;
}

/// Seed Pack: Fisher-Yates within each class (same RNG sequence as the
/// current Pack/PackFlat), then copying assembly.
struct SeedPacked {
  std::vector<MiniBatch> hot;
  std::vector<MiniBatch> cold;
};
SeedPacked SeedPack(const DatasetSchema& schema,
                    const std::vector<SparseInput>& samples,
                    const std::vector<uint64_t>& hot_ids,
                    const std::vector<uint64_t>& cold_ids, size_t batch_size,
                    uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> hot = hot_ids;
  std::vector<uint64_t> cold = cold_ids;
  for (size_t i = hot.size(); i > 1; --i) {
    std::swap(hot[i - 1], hot[rng.NextBounded(i)]);
  }
  for (size_t i = cold.size(); i > 1; --i) {
    std::swap(cold[i - 1], cold[rng.NextBounded(i)]);
  }
  SeedPacked packed;
  packed.hot = SeedAssembleBatches(schema, samples, hot, batch_size, true);
  packed.cold = SeedAssembleBatches(schema, samples, cold, batch_size, false);
  return packed;
}

/// Seed per-step math (the step loop the repo started with, trainer.cc at
/// PR1): materialize every table's SparseGrad, then take a separate
/// optimizer pass over it — plus a fresh DenseParams() vector per step.
/// Bit-exact with the fused step (same per-row accumulation order, same
/// update arithmetic; pinned by FlatEquivalenceTest).
void SeedMathStep(RecModel& model, const BatchView& view,
                  std::vector<EmbeddingTable*>& tables, SparseSgd& sparse_sgd,
                  Sgd& dense_sgd, double* loss_sum) {
  StepResult step = model.ForwardBackwardOn(view, tables);
  dense_sgd.Step(model.DenseParams());
  for (size_t t = 0; t < step.table_grads.size(); ++t) {
    if (step.table_grads[t].empty()) continue;
    sparse_sgd.Step(*tables[t], step.table_grads[t]);
  }
  *loss_sum += step.loss;
}

// ---------------------------------------------------------------------------
// Flat epoch runner: mirrors the trainer's allocation-free steady state
// (prebuilt single-pointer apply functor, cached dense params).
// ---------------------------------------------------------------------------

class FlatStepper {
 public:
  FlatStepper(RecModel& model, float lr)
      : model_(model), dense_sgd_(lr), sparse_sgd_(lr) {
    for (EmbeddingTable& t : model.tables()) tables_.push_back(&t);
    dense_params_ = model.DenseParams();
    ctx_.sgd = &sparse_sgd_;
    ctx_.tables = &tables_;
    apply_ = [c = &ctx_](size_t t, const Tensor& grad_out,
                         std::span<const uint32_t> indices,
                         std::span<const uint32_t> offsets) {
      c->sgd->FusedBackwardStep(*(*c->tables)[t], grad_out, indices, offsets,
                                nullptr);
    };
  }

  void Step(const BatchView& view, double* loss_sum) {
    StepResult step = model_.ForwardBackwardFusedOn(view, tables_, apply_);
    dense_sgd_.Step(dense_params_);
    *loss_sum += step.loss;
  }

 private:
  struct Ctx {
    SparseSgd* sgd;
    std::vector<EmbeddingTable*>* tables;
  };
  RecModel& model_;
  Sgd dense_sgd_;
  SparseSgd sparse_sgd_;
  std::vector<EmbeddingTable*> tables_;
  std::vector<Parameter*> dense_params_;
  Ctx ctx_;
  SparseApplyFn apply_;
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct StageResult {
  std::string stage;
  std::string impl;  // seed | flat
  double seconds = 0.0;
  double samples_per_sec = 0.0;
  double speedup_vs_seed = 1.0;
  bool bitexact_vs_seed = true;
};

template <typename Fn>
double MinSeconds(Fn&& fn, int reps) {
  fn();  // warm caches and the allocator
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.ElapsedSeconds());
  }
  return best;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Resident bytes of the AoS sample store: struct + every nested vector's
/// heap block (what the seed layout actually holds in memory).
size_t AosBytes(const std::vector<SparseInput>& samples) {
  size_t bytes = samples.capacity() * sizeof(SparseInput);
  for (const SparseInput& s : samples) {
    bytes += s.dense.capacity() * sizeof(float);
    bytes += s.indices.capacity() * sizeof(std::vector<uint32_t>);
    for (const auto& v : s.indices) bytes += v.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

size_t FlatBytes(const FlatDataset& flat) {
  size_t bytes = flat.dense_data().size() * sizeof(float) +
                 flat.labels().size() * sizeof(float);
  for (size_t t = 0; t < flat.schema().num_tables(); ++t) {
    bytes += flat.indices(t).size() * sizeof(uint32_t) +
             flat.offsets(t).size() * sizeof(uint32_t);
  }
  return bytes;
}

bool ProfilesEqual(const AccessProfile& a, const AccessProfile& b) {
  if (a.num_tables() != b.num_tables()) return false;
  for (size_t t = 0; t < a.num_tables(); ++t) {
    if (a.counts(t) != b.counts(t)) return false;
  }
  return true;
}

/// A view must describe exactly the batch the copying path assembled
/// (offsets compared after rebasing on the view's base — see DESIGN.md §10).
bool ViewMatchesBatch(const BatchView& view, const MiniBatch& batch) {
  if (view.batch_size() != batch.batch_size()) return false;
  if (view.hot != batch.hot) return false;
  for (size_t i = 0; i < view.batch_size(); ++i) {
    if (view.labels[i] != batch.labels[i]) return false;
    for (size_t d = 0; d < view.dense.cols; ++d) {
      if (view.dense(i, d) != batch.dense(i, d)) return false;
    }
  }
  for (size_t t = 0; t < view.num_tables(); ++t) {
    const std::span<const uint32_t> vi = view.indices(t);
    if (vi.size() != batch.indices[t].size()) return false;
    for (size_t k = 0; k < vi.size(); ++k) {
      if (vi[k] != batch.indices[t][k]) return false;
    }
    const std::span<const uint32_t> vo = view.offsets(t);
    if (vo.size() != batch.offsets[t].size()) return false;
    const uint32_t base = vo.front();
    for (size_t k = 0; k < vo.size(); ++k) {
      if (vo[k] - base != batch.offsets[t][k]) return false;
    }
  }
  return true;
}

bool TablesEqual(const RecModel& a, const RecModel& b) {
  for (size_t t = 0; t < a.tables().size(); ++t) {
    if (a.tables()[t].raw() != b.tables()[t].raw()) return false;
  }
  return true;
}

struct SuiteConfig {
  size_t num_inputs = 24000;
  size_t batch = 128;
  size_t epochs = 2;
  int reps = 3;
  uint64_t pack_seed = 17;
  float lr = 0.05f;
};

void WriteJson(const std::string& path, const SuiteConfig& cfg,
               const std::vector<StageResult>& results, double criterion,
               double epoch_with_math_speedup, size_t aos_bytes,
               size_t flat_bytes, bool all_bitexact) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": \"pipeline_throughput\",\n");
  std::fprintf(f, "  \"workload\": \"kaggle_dlrm\",\n");
  std::fprintf(f, "  \"num_inputs\": %zu,\n", cfg.num_inputs);
  std::fprintf(f, "  \"batch\": %zu,\n", cfg.batch);
  std::fprintf(f, "  \"epochs\": %zu,\n", cfg.epochs);
  std::fprintf(f, "  \"aos_bytes\": %zu,\n", aos_bytes);
  std::fprintf(f, "  \"flat_bytes\": %zu,\n", flat_bytes);
  std::fprintf(f, "  \"peak_rss_mb\": %.1f,\n", PeakRssMb());
  std::fprintf(f, "  \"all_bitexact\": %s,\n", all_bitexact ? "true" : "false");
  std::fprintf(f,
               "  \"criterion_definition\": \"epoch_setup = logger + "
               "classification + pack, the epoch's layout-dependent work; "
               "the math kernels are shared by both layouts and bit-exact, "
               "so end_to_end_epoch (with math) is reported but not "
               "gated\",\n");
  std::fprintf(f, "  \"criterion_epoch_setup_speedup\": %.3f,\n", criterion);
  std::fprintf(f, "  \"epoch_with_math_speedup\": %.3f,\n",
               epoch_with_math_speedup);
  std::fprintf(f, "  \"stages\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const StageResult& r = results[i];
    std::fprintf(f,
                 "    {\"stage\": \"%s\", \"impl\": \"%s\", "
                 "\"seconds\": %.9f, \"samples_per_sec\": %.1f, "
                 "\"speedup_vs_seed\": %.3f, \"bitexact_vs_seed\": %s}%s\n",
                 r.stage.c_str(), r.impl.c_str(), r.seconds, r.samples_per_sec,
                 r.speedup_vs_seed, r.bitexact_vs_seed ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void AddPair(std::vector<StageResult>& results, const std::string& stage,
             double seed_sec, double flat_sec, size_t samples, size_t passes,
             bool bitexact) {
  const double n = static_cast<double>(samples * passes);
  results.push_back({stage, "seed", seed_sec, n / seed_sec, 1.0, true});
  results.push_back(
      {stage, "flat", flat_sec, n / flat_sec, seed_sec / flat_sec, bitexact});
}

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  args.AcceptsOnly("pipeline_throughput",
                   {"batch", "epochs", "inputs", "out", "reps", "smoke"});
  SuiteConfig cfg;
  const bool smoke = args.GetBool("smoke", false);
  if (smoke) {
    cfg.num_inputs = 512;
    cfg.batch = 32;
    cfg.epochs = 1;
    cfg.reps = 1;
  }
  cfg.num_inputs =
      static_cast<size_t>(args.GetNonNegativeInt("inputs", (long)cfg.num_inputs));
  cfg.batch = static_cast<size_t>(args.GetPositiveInt("batch", (long)cfg.batch));
  cfg.epochs = static_cast<size_t>(args.GetPositiveInt("epochs", (long)cfg.epochs));
  cfg.reps = static_cast<int>(args.GetPositiveInt("reps", cfg.reps));

  bench::PrintHeader(
      "Data-pipeline throughput: seed AoS layout vs flat SoA layout");
  std::printf("inputs=%zu batch=%zu epochs=%zu reps=%d\n", cfg.num_inputs,
              cfg.batch, cfg.epochs, cfg.reps);

  const Dataset dataset = bench::MakeWorkloadDataset(
      WorkloadKind::kKaggleDlrm, DatasetScale::kTiny, cfg.num_inputs);
  const DatasetSchema& schema = dataset.schema();
  std::vector<uint64_t> all_ids(dataset.size());
  for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;

  // The seed layout, materialized once (what the repo used to keep in
  // memory as the dataset itself).
  std::vector<SparseInput> aos;
  aos.reserve(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) aos.push_back(dataset.sample(i));
  const size_t aos_bytes = AosBytes(aos);
  const size_t flat_bytes = FlatBytes(dataset.flat());

  std::vector<StageResult> results;
  bool all_bitexact = true;

  // --- Stage 1: Embedding Logger pass -----------------------------------
  uint64_t seed_lookups = 0;
  const double logger_seed = MinSeconds(
      [&] { SeedProfile(schema, aos, &seed_lookups); }, cfg.reps);
  const double logger_flat = MinSeconds(
      [&] { EmbeddingLogger::Profile(dataset, all_ids); }, cfg.reps);
  const AccessProfile seed_profile = SeedProfile(schema, aos, &seed_lookups);
  const EmbeddingLogger::Result flat_log =
      EmbeddingLogger::Profile(dataset, all_ids);
  const bool logger_ok = ProfilesEqual(seed_profile, flat_log.profile) &&
                         seed_lookups == flat_log.num_lookups;
  all_bitexact &= logger_ok;
  AddPair(results, "logger", logger_seed, logger_flat, dataset.size(), 1,
          logger_ok);

  // --- Stage 2: Input Processor classification --------------------------
  const uint64_t h_zt = std::max<uint64_t>(2, cfg.num_inputs / 1000);
  const HotSet hot_set = EmbeddingClassifier::Classify(
      flat_log.profile, schema, h_zt,
      bench::LargeTableCutoff(DatasetScale::kTiny));
  std::vector<uint64_t> seed_hot, seed_cold;
  const double classify_seed = MinSeconds(
      [&] { SeedClassify(aos, hot_set, &seed_hot, &seed_cold); }, cfg.reps);
  const InputProcessor processor(1);
  const double classify_flat = MinSeconds(
      [&] { processor.Classify(dataset, hot_set, all_ids); }, cfg.reps);
  const ProcessedInputs inputs = processor.Classify(dataset, hot_set, all_ids);
  const bool classify_ok =
      seed_hot == inputs.hot_ids && seed_cold == inputs.cold_ids;
  all_bitexact &= classify_ok;
  std::printf("hot fraction: %.2f (h_zt=%llu)\n", inputs.HotFraction(),
              static_cast<unsigned long long>(h_zt));
  AddPair(results, "classify", classify_seed, classify_flat, dataset.size(), 1,
          classify_ok);

  // --- Stage 3: batch assembly (Pack: shuffle + pure batches) -----------
  const double pack_seed_sec = MinSeconds(
      [&] {
        SeedPack(schema, aos, inputs.hot_ids, inputs.cold_ids, cfg.batch,
                 cfg.pack_seed);
      },
      cfg.reps);
  const double pack_flat_sec = MinSeconds(
      [&] {
        InputProcessor::PackedFlat p =
            InputProcessor::PackFlat(dataset, inputs, cfg.pack_seed);
        MakeBatchViews(p.hot, cfg.batch, true);
        MakeBatchViews(p.cold, cfg.batch, false);
      },
      cfg.reps);
  const SeedPacked seed_packed = SeedPack(schema, aos, inputs.hot_ids,
                                          inputs.cold_ids, cfg.batch,
                                          cfg.pack_seed);
  const InputProcessor::PackedFlat flat_packed =
      InputProcessor::PackFlat(dataset, inputs, cfg.pack_seed);
  const std::vector<BatchView> hot_views =
      MakeBatchViews(flat_packed.hot, cfg.batch, true);
  const std::vector<BatchView> cold_views =
      MakeBatchViews(flat_packed.cold, cfg.batch, false);
  bool pack_ok = hot_views.size() == seed_packed.hot.size() &&
                 cold_views.size() == seed_packed.cold.size();
  for (size_t b = 0; pack_ok && b < hot_views.size(); ++b) {
    pack_ok = ViewMatchesBatch(hot_views[b], seed_packed.hot[b]);
  }
  for (size_t b = 0; pack_ok && b < cold_views.size(); ++b) {
    pack_ok = ViewMatchesBatch(cold_views[b], seed_packed.cold[b]);
  }
  all_bitexact &= pack_ok;
  AddPair(results, "pack", pack_seed_sec, pack_flat_sec, dataset.size(), 1,
          pack_ok);

  // --- Stage 4: epoch setup (logger + classify + pack, combined) --------
  // The epoch's layout-dependent work, timed as one sequence — the number
  // the PR criterion gates on.
  const double setup_seed_sec = MinSeconds(
      [&] {
        uint64_t lookups = 0;
        const AccessProfile profile = SeedProfile(schema, aos, &lookups);
        const HotSet hs = EmbeddingClassifier::Classify(
            profile, schema, h_zt,
            bench::LargeTableCutoff(DatasetScale::kTiny));
        std::vector<uint64_t> hot_ids, cold_ids;
        SeedClassify(aos, hs, &hot_ids, &cold_ids);
        SeedPack(schema, aos, hot_ids, cold_ids, cfg.batch, cfg.pack_seed);
      },
      cfg.reps);
  const double setup_flat_sec = MinSeconds(
      [&] {
        const EmbeddingLogger::Result log =
            EmbeddingLogger::Profile(dataset, all_ids);
        const HotSet hs = EmbeddingClassifier::Classify(
            log.profile, schema, h_zt,
            bench::LargeTableCutoff(DatasetScale::kTiny));
        const ProcessedInputs in = processor.Classify(dataset, hs, all_ids);
        const InputProcessor::PackedFlat packed =
            InputProcessor::PackFlat(dataset, in, cfg.pack_seed);
        MakeBatchViews(packed.hot, cfg.batch, true);
        MakeBatchViews(packed.cold, cfg.batch, false);
      },
      cfg.reps);
  const bool setup_ok = logger_ok && classify_ok && pack_ok;
  AddPair(results, "epoch_setup", setup_seed_sec, setup_flat_sec,
          dataset.size(), 1, setup_ok);
  const double criterion = setup_seed_sec / setup_flat_sec;

  // --- Stage 5: end-to-end epoch ----------------------------------------
  // Logger + classification + pack + `epochs` full passes of fused
  // training steps, the whole per-run data pipeline. Seed side pays AoS
  // walks, copying assembly, and the per-step closure/params churn the old
  // trainer had; flat side is the current streaming + zero-copy +
  // allocation-free path.
  std::unique_ptr<RecModel> seed_model =
      MakeModel(schema, /*full_size=*/false, /*seed=*/7);
  std::unique_ptr<RecModel> flat_model =
      MakeModel(schema, /*full_size=*/false, /*seed=*/7);

  auto seed_epoch = [&](RecModel& model, double* loss_sum) {
    uint64_t lookups = 0;
    const AccessProfile profile = SeedProfile(schema, aos, &lookups);
    const HotSet hs = EmbeddingClassifier::Classify(
        profile, schema, h_zt, bench::LargeTableCutoff(DatasetScale::kTiny));
    std::vector<uint64_t> hot_ids, cold_ids;
    SeedClassify(aos, hs, &hot_ids, &cold_ids);
    const SeedPacked packed =
        SeedPack(schema, aos, hot_ids, cold_ids, cfg.batch, cfg.pack_seed);
    std::vector<EmbeddingTable*> tables;
    for (EmbeddingTable& t : model.tables()) tables.push_back(&t);
    Sgd dense_sgd(cfg.lr);
    SparseSgd sparse_sgd(cfg.lr);
    for (size_t e = 0; e < cfg.epochs; ++e) {
      for (const MiniBatch& mb : packed.hot) {
        SeedMathStep(model, BatchView(mb), tables, sparse_sgd, dense_sgd,
                     loss_sum);
      }
      for (const MiniBatch& mb : packed.cold) {
        SeedMathStep(model, BatchView(mb), tables, sparse_sgd, dense_sgd,
                     loss_sum);
      }
    }
  };
  auto flat_epoch = [&](RecModel& model, double* loss_sum) {
    const EmbeddingLogger::Result log =
        EmbeddingLogger::Profile(dataset, all_ids);
    const HotSet hs = EmbeddingClassifier::Classify(
        log.profile, schema, h_zt,
        bench::LargeTableCutoff(DatasetScale::kTiny));
    const ProcessedInputs in = processor.Classify(dataset, hs, all_ids);
    const InputProcessor::PackedFlat packed =
        InputProcessor::PackFlat(dataset, in, cfg.pack_seed);
    const std::vector<BatchView> hot =
        MakeBatchViews(packed.hot, cfg.batch, true);
    const std::vector<BatchView> cold =
        MakeBatchViews(packed.cold, cfg.batch, false);
    FlatStepper stepper(model, cfg.lr);
    for (size_t e = 0; e < cfg.epochs; ++e) {
      for (const BatchView& v : hot) stepper.Step(v, loss_sum);
      for (const BatchView& v : cold) stepper.Step(v, loss_sum);
    }
  };

  // Bit-exactness first, from identically initialized twins (untimed).
  double seed_loss = 0.0, flat_loss = 0.0;
  seed_epoch(*seed_model, &seed_loss);
  flat_epoch(*flat_model, &flat_loss);
  const bool epoch_ok =
      seed_loss == flat_loss && TablesEqual(*seed_model, *flat_model);
  all_bitexact &= epoch_ok;

  // Then throughput (model state keeps evolving across reps; the work per
  // rep is constant).
  double sink = 0.0;
  const double epoch_seed_sec =
      MinSeconds([&] { seed_epoch(*seed_model, &sink); }, cfg.reps);
  const double epoch_flat_sec =
      MinSeconds([&] { flat_epoch(*flat_model, &sink); }, cfg.reps);
  AddPair(results, "end_to_end_epoch", epoch_seed_sec, epoch_flat_sec,
          dataset.size(), cfg.epochs, epoch_ok);
  const double epoch_with_math_speedup = epoch_seed_sec / epoch_flat_sec;

  std::printf("\n%-18s %-5s %12s %14s %9s %9s\n", "stage", "impl", "seconds",
              "samples/sec", "speedup", "bitexact");
  for (const StageResult& r : results) {
    std::printf("%-18s %-5s %12.6f %14.1f %8.2fx %9s\n", r.stage.c_str(),
                r.impl.c_str(), r.seconds, r.samples_per_sec,
                r.speedup_vs_seed, r.bitexact_vs_seed ? "yes" : "NO");
  }
  std::printf("\naos_bytes=%zu flat_bytes=%zu (%.2fx smaller)\n", aos_bytes,
              flat_bytes,
              static_cast<double>(aos_bytes) /
                  static_cast<double>(flat_bytes));
  std::printf(
      "criterion_epoch_setup_speedup=%.3f (gate: >= 2.0 full mode)\n"
      "epoch_with_math_speedup=%.3f (reported, not gated: math kernels are "
      "shared and bit-exact)\n",
      criterion, epoch_with_math_speedup);

  const std::string out = args.GetString("out", "BENCH_pipeline.json");
  WriteJson(out, cfg, results, criterion, epoch_with_math_speedup, aos_bytes,
            flat_bytes, all_bitexact);
  std::printf("wrote %s\n", out.c_str());

  if (!all_bitexact) {
    std::fprintf(stderr, "FAIL: flat path disagrees with seed layout\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) { return fae::Run(argc, argv); }
