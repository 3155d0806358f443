#include "engine/trainer.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "models/factory.h"

namespace fae {
namespace {

struct Fixture {
  explicit Fixture(WorkloadKind kind = WorkloadKind::kKaggleDlrm)
      : schema(MakeSchema(kind, DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 71}).Generate(2400)),
        split(dataset.MakeSplit(0.15)) {}

  std::unique_ptr<RecModel> NewModel(uint64_t seed = 5) const {
    return MakeModel(schema, /*full_size=*/false, seed);
  }

  static TrainOptions Options(bool run_math = true) {
    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = 1;
    opt.run_math = run_math;
    opt.eval_samples = 256;
    opt.eval_batch = 128;
    opt.evals_per_epoch = 5;
    return opt;
  }

  static FaeConfig Config() {
    FaeConfig cfg;
    cfg.sample_rate = 0.3;
    cfg.gpu_memory_budget = 8ULL << 20;
    cfg.large_table_bytes = 1ULL << 12;  // tiny scale: keep hot/cold real
    cfg.num_threads = 2;
    return cfg;
  }

  DatasetSchema schema;
  Dataset dataset;
  Dataset::Split split;
};

TEST(TrainerTest, BaselineLearns) {
  Fixture f;
  auto model = f.NewModel();
  TrainOptions opt = Fixture::Options();
  opt.epochs = 2;
  Trainer trainer(model.get(), MakePaperServer(1), opt);
  TrainReport report = trainer.TrainBaseline(f.dataset, f.split);
  EXPECT_GT(report.num_batches, 0u);
  ASSERT_GE(report.curve.size(), 2u);
  EXPECT_LT(report.curve.back().train_loss, report.curve.front().train_loss);
  EXPECT_GT(report.final_test_acc, 0.5);
  EXPECT_GT(report.modeled_seconds, 0.0);
}

TEST(TrainerTest, BaselineTimelineHasExpectedPhases) {
  Fixture f;
  auto model = f.NewModel();
  Trainer trainer(model.get(), MakePaperServer(2), Fixture::Options(false));
  TrainReport report = trainer.TrainBaseline(f.dataset, f.split);
  const Timeline& tl = report.timeline;
  EXPECT_GT(tl.seconds(Phase::kEmbeddingForward), 0.0);
  EXPECT_GT(tl.seconds(Phase::kCpuGpuTransfer), 0.0);
  EXPECT_GT(tl.seconds(Phase::kOptimizerSparse), 0.0);
  EXPECT_GT(tl.seconds(Phase::kAllReduce), 0.0);
  EXPECT_EQ(tl.seconds(Phase::kEmbeddingSync), 0.0);
  EXPECT_GT(tl.pcie_bytes(), 0u);
}

TEST(TrainerTest, FaeRunsAndIsFasterThanBaseline) {
  Fixture f;
  auto baseline_model = f.NewModel();
  Trainer baseline(baseline_model.get(), MakePaperServer(4),
                   Fixture::Options(false));
  TrainReport base = baseline.TrainBaseline(f.dataset, f.split);

  auto fae_model = f.NewModel();
  Trainer fae(fae_model.get(), MakePaperServer(4), Fixture::Options(false));
  auto report = fae.TrainFae(f.dataset, f.split, Fixture::Config());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->hot_fraction, 0.2);
  EXPECT_GT(report->hot_batches, 0u);
  EXPECT_GT(report->transitions, 0u);
  EXPECT_GT(report->timeline.seconds(Phase::kEmbeddingSync), 0.0);
  // The headline claim: FAE beats the hybrid baseline.
  EXPECT_LT(report->modeled_seconds, base.modeled_seconds);
}

TEST(TrainerTest, FaeMatchesBaselineAccuracy) {
  // Paper Fig 12 / Table III: FAE reaches baseline accuracy.
  Fixture f;
  TrainOptions opt = Fixture::Options();
  opt.epochs = 2;

  auto baseline_model = f.NewModel(5);
  Trainer baseline(baseline_model.get(), MakePaperServer(1), opt);
  TrainReport base = baseline.TrainBaseline(f.dataset, f.split);

  auto fae_model = f.NewModel(5);
  Trainer fae(fae_model.get(), MakePaperServer(1), opt);
  auto report = fae.TrainFae(f.dataset, f.split, Fixture::Config());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GT(report->final_test_acc, 0.5);
  EXPECT_NEAR(report->final_test_acc, base.final_test_acc, 0.06);
}

TEST(TrainerTest, FaeOnTbsmWorkload) {
  Fixture f(WorkloadKind::kTaobaoTbsm);
  auto model = f.NewModel();
  Trainer trainer(model.get(), MakePaperServer(2), Fixture::Options());
  auto report = trainer.TrainFae(f.dataset, f.split, Fixture::Config());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->num_batches, 0u);
  EXPECT_GT(report->final_test_acc, 0.4);
}

TEST(TrainerTest, WeakScalingReducesModeledTime) {
  // Paper Fig 13: with weak scaling, more GPUs lower the per-epoch time
  // (same total inputs, bigger global batches).
  Fixture f;
  double prev = 1e18;
  for (int gpus : {1, 2, 4}) {
    auto model = f.NewModel();
    Trainer trainer(model.get(), MakePaperServer(gpus),
                    Fixture::Options(false));
    TrainReport report = trainer.TrainBaseline(f.dataset, f.split);
    EXPECT_LT(report.modeled_seconds, prev) << gpus << " GPUs";
    prev = report.modeled_seconds;
  }
}

TEST(TrainerTest, FaeBeatsBaselineAtEveryGpuCount) {
  // Paper Fig 13 / Table IV: FAE wins at 1, 2, and 4 GPUs. (Per-dataset
  // speedup is not monotone in GPU count even in the paper — Kaggle's
  // Table IV row gives 2.0x, 1.68x, 1.92x — so only the win is asserted.)
  Fixture f;
  for (int gpus : {1, 2, 4}) {
    auto bm = f.NewModel();
    Trainer bt(bm.get(), MakePaperServer(gpus), Fixture::Options(false));
    const double base = bt.TrainBaseline(f.dataset, f.split).modeled_seconds;
    auto fm = f.NewModel();
    Trainer ft(fm.get(), MakePaperServer(gpus), Fixture::Options(false));
    auto fr = ft.TrainFae(f.dataset, f.split, Fixture::Config());
    ASSERT_TRUE(fr.ok());
    EXPECT_GT(base / fr->modeled_seconds, 1.1) << gpus << " GPUs";
  }
}

TEST(TrainerTest, FaeReducesPcieTrafficAndPower) {
  // Paper Table VI: 5-9% lower per-GPU power, attributed to reduced
  // CPU-GPU communication. The effect needs enough mini-batches per
  // schedule chunk to amortize the hot-slice syncs (as in the paper's
  // multi-million-input runs), so this test uses a larger input count
  // than the other fixtures.
  DatasetSchema schema = MakeSchema(WorkloadKind::kKaggleDlrm,
                                    DatasetScale::kTiny);
  Dataset dataset =
      SyntheticGenerator(schema, {.seed = 77}).Generate(20000);
  Dataset::Split split = dataset.MakeSplit(0.1);
  TrainOptions opt = Fixture::Options(false);
  opt.per_gpu_batch = 32;

  auto bm = MakeModel(schema, false, 5);
  Trainer bt(bm.get(), MakePaperServer(4), opt);
  TrainReport base = bt.TrainBaseline(dataset, split);
  auto fm = MakeModel(schema, false, 5);
  Trainer ft(fm.get(), MakePaperServer(4), opt);
  auto fae = ft.TrainFae(dataset, split, Fixture::Config());
  ASSERT_TRUE(fae.ok());
  EXPECT_GT(fae->hot_fraction, 0.5);
  EXPECT_LT(fae->timeline.pcie_bytes(), base.timeline.pcie_bytes());
  EXPECT_LT(fae->avg_gpu_watts, base.avg_gpu_watts);
}

TEST(TrainerTest, NvOptRunsAndBeatsBaselineWhenTablesFit) {
  Fixture f;
  auto bm = f.NewModel();
  Trainer bt(bm.get(), MakePaperServer(1), Fixture::Options(false));
  TrainReport base = bt.TrainBaseline(f.dataset, f.split);
  auto nm = f.NewModel();
  Trainer nt(nm.get(), MakePaperServer(1), Fixture::Options(false));
  auto nv = nt.Train(TrainMode::kNvOpt, f.dataset, f.split);
  ASSERT_TRUE(nv.ok()) << nv.status().ToString();
  EXPECT_GT(nv->modeled_seconds, 0.0);
  EXPECT_LT(nv->modeled_seconds, base.modeled_seconds);
}

TEST(TrainerTest, CostOnlyModeSkipsMath) {
  Fixture f;
  auto model = f.NewModel();
  Trainer trainer(model.get(), MakePaperServer(1), Fixture::Options(false));
  TrainReport report = trainer.TrainBaseline(f.dataset, f.split);
  EXPECT_TRUE(report.curve.empty());
  EXPECT_EQ(report.final_test_acc, 0.0);
  EXPECT_GT(report.modeled_seconds, 0.0);
}

TEST(TrainerTest, FaePlanOverBudgetRejected) {
  Fixture f;
  FaeConfig cfg = Fixture::Config();
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok());
  auto model = f.NewModel();
  SystemSpec sys = MakePaperServer(1);
  sys.hot_embedding_budget = 1;  // nothing fits
  TrainOptions opts = Fixture::Options(false);
  opts.degrade_on_overflow = false;  // opt into hard failure
  Trainer trainer(model.get(), sys, opts);
  auto report = trainer.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

TEST(TrainerTest, MetricsEvaluateCountsCorrectly) {
  Fixture f;
  auto model = f.NewModel();
  std::vector<uint64_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};
  const FlatDataset flat = f.dataset.flat().Gather(ids);
  EvalResult r = Evaluate(*model, MakeBatchViews(flat, 3, /*hot=*/false));
  EXPECT_EQ(r.samples, 8u);
  EXPECT_GE(r.accuracy, 0.0);
  EXPECT_LE(r.accuracy, 1.0);
  EXPECT_GT(r.loss, 0.0);
}

TEST(TrainerTest, RunningMetricFlushes) {
  RunningMetric m;
  m.Observe(1.0, 5, 10);
  m.Observe(3.0, 5, 10);
  EXPECT_DOUBLE_EQ(m.mean_loss(), 2.0);
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.5);
  CurvePoint p = m.Flush(42);
  EXPECT_EQ(p.iteration, 42u);
  EXPECT_DOUBLE_EQ(p.train_loss, 2.0);
  EXPECT_EQ(m.samples(), 0u);
}

}  // namespace
}  // namespace fae
