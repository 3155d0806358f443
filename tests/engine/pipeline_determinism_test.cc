// Locks down the pipelined trainer's determinism contract (DESIGN.md §11):
// every --pipeline mode, at every staging depth and kernel thread count,
// produces bit-identical training results — final embedding tables, every
// loss on the learning curve, and the exact bytes of periodic checkpoints.
// The pipeline may only change the modeled wall-clock (overlap savings),
// never what is computed or what a resume sees. The lookahead oracle cache
// (DESIGN.md §13) extends the same contract: cache on/off, at any budget
// and window, is a pure cost-model overlay.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fae_pipeline.h"
#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "test_util.h"

namespace fae {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct RunResult {
  TrainReport report;
  std::vector<std::vector<float>> tables;
  std::string checkpoint_bytes;
};

struct Fixture {
  Fixture()
      : schema(MakeKaggleLikeSchema(DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 29}).Generate(2600)),
        split(dataset.MakeSplit(0.1)) {}

  static TrainOptions Options(PipelineMode mode, size_t depth,
                              size_t threads, const std::string& ckpt) {
    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = 2;
    opt.eval_samples = 256;
    opt.evals_per_epoch = 4;
    opt.pipeline = mode;
    opt.pipeline_depth = depth;
    opt.num_threads = threads;
    opt.checkpoint.path = ckpt;
    opt.checkpoint.every_steps = 7;
    return opt;
  }

  static FaeConfig Config() {
    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.gpu_memory_budget = 384ULL << 10;
    cfg.large_table_bytes = 1ULL << 12;
    cfg.num_threads = 2;
    return cfg;
  }

  /// Cache knobs applied on top of Options; budget 0 leaves the cache off.
  static TrainOptions WithCache(TrainOptions opt, size_t budget,
                                size_t lookahead) {
    if (budget > 0) {
      opt.cache = CacheMode::kOracle;
      opt.cache_budget_rows = budget;
      opt.cache_lookahead = lookahead;
    }
    return opt;
  }

  RunResult RunBaseline(PipelineMode mode, size_t depth, size_t threads,
                        size_t cache_budget = 0, size_t cache_lookahead = 4) {
    const std::string ckpt = TempPath("pipe_det_base.faec");
    std::filesystem::remove(ckpt);
    auto model = MakeModel(schema, false, 5);
    Trainer trainer(model.get(), MakePaperServer(2),
                    WithCache(Options(mode, depth, threads, ckpt),
                              cache_budget, cache_lookahead));
    RunResult r;
    r.report = trainer.TrainBaseline(dataset, split);
    for (const EmbeddingTable& t : model->tables()) {
      r.tables.push_back(t.raw());
    }
    r.checkpoint_bytes = Slurp(ckpt);
    std::filesystem::remove(ckpt);
    return r;
  }

  RunResult RunFae(const FaePlan& plan, PipelineMode mode, size_t depth,
                   size_t threads, size_t cache_budget = 0,
                   size_t cache_lookahead = 4) {
    const std::string ckpt = TempPath("pipe_det_fae.faec");
    std::filesystem::remove(ckpt);
    auto model = MakeModel(schema, false, 5);
    Trainer trainer(model.get(), MakePaperServer(2),
                    WithCache(Options(mode, depth, threads, ckpt),
                              cache_budget, cache_lookahead));
    auto report = trainer.TrainFaeWithPlan(dataset, split, Config(), plan);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    RunResult r;
    r.report = std::move(report).value();
    for (const EmbeddingTable& t : model->tables()) {
      r.tables.push_back(t.raw());
    }
    r.checkpoint_bytes = Slurp(ckpt);
    std::filesystem::remove(ckpt);
    return r;
  }

  DatasetSchema schema;
  Dataset dataset;
  Dataset::Split split;
};

void ExpectBitIdentical(const RunResult& ref, const RunResult& got,
                        const std::string& label) {
  EXPECT_EQ(ref.report.final_train_loss, got.report.final_train_loss)
      << label;
  EXPECT_EQ(ref.report.final_test_loss, got.report.final_test_loss) << label;
  EXPECT_EQ(ref.report.final_test_auc, got.report.final_test_auc) << label;
  EXPECT_EQ(ref.report.num_batches, got.report.num_batches) << label;
  ASSERT_EQ(ref.report.curve.size(), got.report.curve.size()) << label;
  for (size_t i = 0; i < ref.report.curve.size(); ++i) {
    EXPECT_EQ(ref.report.curve[i].train_loss, got.report.curve[i].train_loss)
        << label << " curve point " << i;
    EXPECT_EQ(ref.report.curve[i].test_loss, got.report.curve[i].test_loss)
        << label << " curve point " << i;
  }
  ASSERT_EQ(ref.tables.size(), got.tables.size()) << label;
  for (size_t t = 0; t < ref.tables.size(); ++t) {
    // Exact float equality, element by element: the contract is bit-level.
    EXPECT_EQ(ref.tables[t], got.tables[t]) << label << " table " << t;
  }
  // Phase charges are identical in every mode and the overlap accumulator
  // lives outside Timeline::State, so periodic checkpoints must be
  // byte-for-byte identical files.
  ASSERT_FALSE(ref.checkpoint_bytes.empty());
  EXPECT_EQ(ref.checkpoint_bytes, got.checkpoint_bytes) << label;
}

std::string Label(PipelineMode mode, size_t depth, size_t threads) {
  std::ostringstream s;
  s << "pipeline=" << PipelineModeName(mode) << " depth=" << depth
    << " threads=" << threads;
  return s.str();
}

TEST(PipelineDeterminismTest, BaselineBitExactAcrossModesDepthsAndThreads) {
  Fixture f;
  const RunResult ref = f.RunBaseline(PipelineMode::kOff, 1, 1);
  ASSERT_FALSE(ref.checkpoint_bytes.empty());
  for (PipelineMode mode : {PipelineMode::kOff, PipelineMode::kPrefetch,
                            PipelineMode::kOverlap}) {
    for (size_t depth : {size_t{1}, size_t{2}, size_t{4}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        if (mode == PipelineMode::kOff && depth == 1 && threads == 1) {
          continue;  // the reference itself
        }
        const RunResult got = f.RunBaseline(mode, depth, threads);
        ExpectBitIdentical(ref, got, Label(mode, depth, threads));
      }
    }
  }
}

TEST(PipelineDeterminismTest, FaeBitExactAcrossModesDepthsAndThreads) {
  Fixture f;
  FaePipeline pipeline(Fixture::Config());
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const RunResult ref = f.RunFae(*plan, PipelineMode::kOff, 1, 1);
  ASSERT_FALSE(ref.checkpoint_bytes.empty());
  for (PipelineMode mode : {PipelineMode::kOff, PipelineMode::kPrefetch,
                            PipelineMode::kOverlap}) {
    for (size_t depth : {size_t{1}, size_t{2}, size_t{4}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        if (mode == PipelineMode::kOff && depth == 1 && threads == 1) {
          continue;
        }
        const RunResult got = f.RunFae(*plan, mode, depth, threads);
        ExpectBitIdentical(ref, got, Label(mode, depth, threads));
        EXPECT_EQ(ref.report.transitions, got.report.transitions);
        EXPECT_EQ(ref.report.sync_bytes, got.report.sync_bytes);
      }
    }
  }
}

TEST(PipelineDeterminismTest, OverlapOnlyShrinksTheModeledWall) {
  // The pipelined wall is the serial wall minus the (non-negative) overlap
  // savings; phase totals do not move.
  Fixture f;
  const RunResult off = f.RunBaseline(PipelineMode::kOff, 1, 1);
  const RunResult overlap = f.RunBaseline(PipelineMode::kOverlap, 2, 1);
  EXPECT_EQ(off.report.timeline.PhaseSumSeconds(),
            overlap.report.timeline.PhaseSumSeconds());
  EXPECT_EQ(off.report.overlap_saved_seconds, 0.0);
  EXPECT_GT(overlap.report.overlap_saved_seconds, 0.0);
  EXPECT_EQ(overlap.report.modeled_seconds,
            off.report.modeled_seconds -
                overlap.report.overlap_saved_seconds);
  EXPECT_GT(overlap.report.prep_seconds, 0.0);
  EXPECT_EQ(overlap.report.prep_seconds, off.report.prep_seconds);
}

TEST(PipelineDeterminismTest, DepthOneHidesNothing) {
  // A one-slot ring cannot stage ahead of the consumer: the producer
  // thread still runs, but no prep is hidden under compute.
  Fixture f;
  const RunResult d1 = f.RunBaseline(PipelineMode::kPrefetch, 1, 1);
  const RunResult d2 = f.RunBaseline(PipelineMode::kPrefetch, 2, 1);
  EXPECT_EQ(d1.report.overlap_saved_seconds, 0.0);
  EXPECT_GT(d2.report.overlap_saved_seconds, 0.0);
}

TEST(PipelineDeterminismTest, ResumeMaySwitchPipelineModes) {
  // pipeline/pipeline_depth are excluded from the options fingerprint:
  // a run checkpointed under the serial trainer resumes under the
  // pipelined one (and vice versa) with bit-identical results.
  Fixture f;
  const RunResult uninterrupted = f.RunBaseline(PipelineMode::kOff, 1, 1);

  const std::string ckpt = TempPath("pipe_det_switch.faec");
  std::filesystem::remove(ckpt);
  auto crash_plan = FaultInjector::Parse("crash@15");
  ASSERT_TRUE(crash_plan.ok());
  FaultInjector injector = std::move(crash_plan).value();
  {
    auto model = MakeModel(f.schema, false, 5);
    TrainOptions opt = Fixture::Options(PipelineMode::kOff, 1, 1, ckpt);
    opt.fault_injector = &injector;
    Trainer trainer(model.get(), MakePaperServer(2), opt);
    auto partial = trainer.TrainBaselineResumable(f.dataset, f.split);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    ASSERT_TRUE(partial->interrupted);
  }
  auto model = MakeModel(f.schema, false, 5);
  TrainOptions opt = Fixture::Options(PipelineMode::kOverlap, 4, 4, ckpt);
  opt.checkpoint.resume = true;
  Trainer trainer(model.get(), MakePaperServer(2), opt);
  auto resumed = trainer.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->final_train_loss,
            uninterrupted.report.final_train_loss);
  EXPECT_EQ(resumed->final_test_loss, uninterrupted.report.final_test_loss);
  std::vector<std::vector<float>> tables;
  for (const EmbeddingTable& t : model->tables()) tables.push_back(t.raw());
  ASSERT_EQ(tables.size(), uninterrupted.tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    EXPECT_EQ(tables[t], uninterrupted.tables[t]) << "table " << t;
  }
  std::filesystem::remove(ckpt);
}

TEST(PipelineDeterminismTest, FaeCrashMidChunkWhilePipelined) {
  // Regression: an injected crash returns out of TrainFaeWithPlan in the
  // middle of a schedule chunk, while the prefetch producer may still be
  // staging the abandoned segment. Everything the producer's Specs
  // reference (the stage-id pool) must outlive ~BatchPipeline, so the
  // early return must not destroy it first. Run pipelined at depth 4 so
  // the producer has lookahead in flight, crash, resume pipelined, and
  // match the uninterrupted serial run bit-for-bit. The sanitizer configs
  // (ASan/TSan) are what give this test its teeth.
  Fixture f;
  FaePipeline pipeline(Fixture::Config());
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const RunResult uninterrupted = f.RunFae(*plan, PipelineMode::kOff, 1, 1);

  const std::string ckpt = TempPath("pipe_det_fae_crash.faec");
  std::filesystem::remove(ckpt);
  auto crash_plan = FaultInjector::Parse("crash@15");
  ASSERT_TRUE(crash_plan.ok());
  FaultInjector injector = std::move(crash_plan).value();
  {
    auto model = MakeModel(f.schema, false, 5);
    TrainOptions opt = Fixture::Options(PipelineMode::kOverlap, 4, 1, ckpt);
    opt.checkpoint.every_steps = 1;  // save at every chunk boundary
    opt.fault_injector = &injector;
    Trainer trainer(model.get(), MakePaperServer(2), opt);
    auto partial =
        trainer.TrainFaeWithPlan(f.dataset, f.split, Fixture::Config(), *plan);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    ASSERT_TRUE(partial->interrupted);
    ASSERT_LT(partial->num_batches, uninterrupted.report.num_batches);
  }
  auto model = MakeModel(f.schema, false, 5);
  TrainOptions opt = Fixture::Options(PipelineMode::kOverlap, 4, 1, ckpt);
  opt.checkpoint.resume = true;
  Trainer trainer(model.get(), MakePaperServer(2), opt);
  auto resumed =
      trainer.TrainFaeWithPlan(f.dataset, f.split, Fixture::Config(), *plan);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->num_batches, uninterrupted.report.num_batches);
  EXPECT_EQ(resumed->final_train_loss,
            uninterrupted.report.final_train_loss);
  EXPECT_EQ(resumed->final_test_loss, uninterrupted.report.final_test_loss);
  std::vector<std::vector<float>> tables;
  for (const EmbeddingTable& t : model->tables()) tables.push_back(t.raw());
  ASSERT_EQ(tables.size(), uninterrupted.tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    EXPECT_EQ(tables[t], uninterrupted.tables[t]) << "table " << t;
  }
  std::filesystem::remove(ckpt);
}

TEST(PipelineDeterminismTest, FaeCrashMidGatherTearsDownSafely) {
  // Companion to FaeCrashMidChunkWhilePipelined, tuned to open the race
  // window the other test cannot: the producer reads its Spec::ids span
  // unlocked only while inside GatherInto, so the stage-id pool must
  // outlive ~BatchPipeline *during an active gather*. Crash on the very
  // first batch with large batches and a deep ring — the producer is
  // still staging the opening slots when the early return unwinds the
  // trainer's locals. The sanitizer configs flag any ordering regression.
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  Dataset dataset = SyntheticGenerator(schema, {.seed = 31}).Generate(40000);
  Dataset::Split split = dataset.MakeSplit(0.1);
  const FaeConfig cfg = Fixture::Config();
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(dataset, split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  auto crash_plan = FaultInjector::Parse("crash@0");
  ASSERT_TRUE(crash_plan.ok());
  FaultInjector injector = std::move(crash_plan).value();
  auto model = MakeModel(schema, false, 5);
  TrainOptions opt = Fixture::Options(PipelineMode::kPrefetch, 8, 1, "");
  opt.per_gpu_batch = 1024;
  opt.eval_samples = 64;
  opt.fault_injector = &injector;
  Trainer trainer(model.get(), MakePaperServer(2), opt);
  auto partial = trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->interrupted);
  EXPECT_EQ(partial->num_batches, 0u);
  EXPECT_EQ(partial->faults.crashes, 1u);
}

TEST(PipelineDeterminismTest, CacheBitExactAcrossDepthsThreadsAndBudgets) {
  // The oracle cache is a cost-model overlay: any budget/window, under any
  // pipeline depth and thread count, leaves losses, tables, and checkpoint
  // bytes bit-identical to the serial cache-off reference. A 48-row budget
  // forces constant eviction pressure and misses; 100k rows caches
  // everything — both must be invisible to the math.
  Fixture f;
  const RunResult ref = f.RunBaseline(PipelineMode::kOff, 1, 1);
  for (PipelineMode mode :
       {PipelineMode::kPrefetch, PipelineMode::kOverlap}) {
    for (size_t depth : {size_t{1}, size_t{4}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (size_t budget : {size_t{48}, size_t{100000}}) {
          const RunResult got =
              f.RunBaseline(mode, depth, threads, budget, depth);
          ExpectBitIdentical(
              ref, got,
              Label(mode, depth, threads) + " cache_budget=" +
                  std::to_string(budget));
          EXPECT_GT(got.report.cache_hits + got.report.cache_misses, 0u);
        }
      }
    }
  }
}

TEST(PipelineDeterminismTest, FaeCacheBitExactAndCoherentAcrossChunks) {
  // FAE interleaves hot chunks (which rewrite the masters) with cached
  // cold chunks, so this exercises the stale-invalidation and dirty-flush
  // boundaries on top of the bit-identity contract.
  Fixture f;
  FaePipeline pipeline(Fixture::Config());
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const RunResult ref = f.RunFae(*plan, PipelineMode::kOff, 1, 1);
  for (size_t budget : {size_t{128}, size_t{100000}}) {
    for (size_t lookahead : {size_t{1}, size_t{8}}) {
      const RunResult got =
          f.RunFae(*plan, PipelineMode::kOverlap, 4, 4, budget, lookahead);
      const std::string label = "fae cache budget=" +
                                std::to_string(budget) +
                                " lookahead=" + std::to_string(lookahead);
      ExpectBitIdentical(ref, got, label);
      EXPECT_EQ(ref.report.transitions, got.report.transitions) << label;
      EXPECT_EQ(ref.report.sync_bytes, got.report.sync_bytes) << label;
      EXPECT_GT(got.report.cache_hits, 0u) << label;
    }
  }
}

TEST(PipelineDeterminismTest, CacheOnlyShrinksTheModeledWall) {
  // Phase totals never move with the cache; the modeled wall drops by
  // exactly the accumulated cache saving (on top of any overlap saving),
  // and the effective transfer bytes drop below the plain 2x round trip.
  Fixture f;
  const RunResult off = f.RunBaseline(PipelineMode::kPrefetch, 2, 1);
  const RunResult on = f.RunBaseline(PipelineMode::kPrefetch, 2, 1, 100000, 8);
  EXPECT_EQ(off.report.timeline.PhaseSumSeconds(),
            on.report.timeline.PhaseSumSeconds());
  EXPECT_EQ(off.report.overlap_saved_seconds, on.report.overlap_saved_seconds);
  EXPECT_EQ(off.report.cache_saved_seconds, 0.0);
  EXPECT_GT(on.report.cache_saved_seconds, 0.0);
  EXPECT_NEAR(on.report.modeled_seconds,
              off.report.modeled_seconds - on.report.cache_saved_seconds,
              1e-12 * off.report.modeled_seconds);
  EXPECT_GT(on.report.cache_plain_transfer_bytes, 0u);
  EXPECT_LT(on.report.cache_effective_transfer_bytes,
            on.report.cache_plain_transfer_bytes);
}

TEST(PipelineDeterminismTest, ResumeMaySwitchCacheModes) {
  // The cache knobs are excluded from the options fingerprint on the same
  // contract as the pipeline knobs: a run checkpointed with the cache off
  // resumes with it on (different budget, different window) bit-exactly.
  Fixture f;
  const RunResult uninterrupted = f.RunBaseline(PipelineMode::kOff, 1, 1);

  const std::string ckpt = TempPath("pipe_det_cache_switch.faec");
  std::filesystem::remove(ckpt);
  auto crash_plan = FaultInjector::Parse("crash@15");
  ASSERT_TRUE(crash_plan.ok());
  FaultInjector injector = std::move(crash_plan).value();
  {
    auto model = MakeModel(f.schema, false, 5);
    TrainOptions opt = Fixture::Options(PipelineMode::kOff, 1, 1, ckpt);
    opt.fault_injector = &injector;
    Trainer trainer(model.get(), MakePaperServer(2), opt);
    auto partial = trainer.TrainBaselineResumable(f.dataset, f.split);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    ASSERT_TRUE(partial->interrupted);
  }
  auto model = MakeModel(f.schema, false, 5);
  TrainOptions opt = Fixture::WithCache(
      Fixture::Options(PipelineMode::kOverlap, 4, 4, ckpt), 512, 4);
  opt.checkpoint.resume = true;
  Trainer trainer(model.get(), MakePaperServer(2), opt);
  auto resumed = trainer.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->final_train_loss, uninterrupted.report.final_train_loss);
  EXPECT_EQ(resumed->final_test_loss, uninterrupted.report.final_test_loss);
  std::vector<std::vector<float>> tables;
  for (const EmbeddingTable& t : model->tables()) tables.push_back(t.raw());
  ASSERT_EQ(tables.size(), uninterrupted.tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    EXPECT_EQ(tables[t], uninterrupted.tables[t]) << "table " << t;
  }
  std::filesystem::remove(ckpt);
}

}  // namespace
}  // namespace fae
