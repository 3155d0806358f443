#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "test_util.h"
#include "util/file_io.h"
#include "util/half.h"

namespace fae {
namespace {

struct Fixture {
  Fixture()
      : schema(MakeKaggleLikeSchema(DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 81}).Generate(6000)),
        split(dataset.MakeSplit(0.1)) {}

  std::unique_ptr<RecModel> NewModel(uint64_t seed = 5) const {
    return MakeModel(schema, /*full_size=*/false, seed);
  }

  static TrainOptions Options(bool run_math) {
    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = 1;
    opt.run_math = run_math;
    opt.eval_samples = 256;
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

  FaePlan Plan() const {
    FaePipeline pipeline(Config());
    auto plan = pipeline.Prepare(dataset, split.train);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(plan).value();
  }

  DatasetSchema schema;
  Dataset dataset;
  Dataset::Split split;
};

TEST(DirtySyncTest, NumericallyIdenticalToFullSync) {
  // Dirty-row sync ships a subset of rows, but the subset is exactly the
  // rows that changed — training must be bit-identical.
  Fixture f;
  FaePlan plan = f.Plan();

  TrainOptions full_opt = Fixture::Options(true);
  full_opt.sync_strategy = SyncStrategy::kFull;
  auto full_model = f.NewModel(9);
  Trainer full_trainer(full_model.get(), MakePaperServer(2), full_opt);
  auto full = full_trainer.TrainFaeWithPlan(f.dataset, f.split,
                                            Fixture::Config(), plan);
  ASSERT_TRUE(full.ok());

  TrainOptions dirty_opt = Fixture::Options(true);
  dirty_opt.sync_strategy = SyncStrategy::kDirty;
  auto dirty_model = f.NewModel(9);
  Trainer dirty_trainer(dirty_model.get(), MakePaperServer(2), dirty_opt);
  auto dirty = dirty_trainer.TrainFaeWithPlan(f.dataset, f.split,
                                              Fixture::Config(), plan);
  ASSERT_TRUE(dirty.ok());

  EXPECT_DOUBLE_EQ(full->final_test_loss, dirty->final_test_loss);
  EXPECT_DOUBLE_EQ(full->final_test_acc, dirty->final_test_acc);
  ASSERT_EQ(full->curve.size(), dirty->curve.size());
  for (size_t i = 0; i < full->curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(full->curve[i].train_loss, dirty->curve[i].train_loss);
    EXPECT_DOUBLE_EQ(full->curve[i].test_loss, dirty->curve[i].test_loss);
  }
}

TEST(DirtySyncTest, ShipsFewerBytesAndLessSyncTime) {
  Fixture f;
  FaePlan plan = f.Plan();

  TrainOptions full_opt = Fixture::Options(false);
  full_opt.sync_strategy = SyncStrategy::kFull;
  auto m1 = f.NewModel();
  Trainer t1(m1.get(), MakePaperServer(2), full_opt);
  auto full = t1.TrainFaeWithPlan(f.dataset, f.split, Fixture::Config(), plan);
  ASSERT_TRUE(full.ok());

  TrainOptions dirty_opt = Fixture::Options(false);
  dirty_opt.sync_strategy = SyncStrategy::kDirty;
  auto m2 = f.NewModel();
  Trainer t2(m2.get(), MakePaperServer(2), dirty_opt);
  auto dirty =
      t2.TrainFaeWithPlan(f.dataset, f.split, Fixture::Config(), plan);
  ASSERT_TRUE(dirty.ok());

  EXPECT_LT(dirty->sync_bytes, full->sync_bytes);
  EXPECT_LE(dirty->timeline.seconds(Phase::kEmbeddingSync),
            full->timeline.seconds(Phase::kEmbeddingSync));
  EXPECT_LE(dirty->modeled_seconds, full->modeled_seconds);
}

TEST(DirtySyncTest, FirstReplicationIsAlwaysFull) {
  Fixture f;
  FaePlan plan = f.Plan();
  TrainOptions opt = Fixture::Options(false);
  opt.sync_strategy = SyncStrategy::kDirty;
  auto model = f.NewModel();
  Trainer trainer(model.get(), MakePaperServer(1), opt);
  auto report = trainer.TrainFaeWithPlan(f.dataset, f.split,
                                         Fixture::Config(), plan);
  ASSERT_TRUE(report.ok());
  // The zero-filled replicas must receive the whole slice once.
  EXPECT_GE(report->sync_bytes, plan.hot_bytes);
}

TEST(ModelParallelTest, RunsAndChargesNvlinkNotPcie) {
  Fixture f;
  auto model = f.NewModel();
  Trainer trainer(model.get(), MakePaperServer(4), Fixture::Options(false));
  auto report = trainer.Train(TrainMode::kModelParallel, f.dataset, f.split);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mode, TrainMode::kModelParallel);
  EXPECT_EQ(report->timeline.pcie_bytes(), 0u);
  EXPECT_GT(report->timeline.nvlink_bytes(), 0u);
  // The host stages batches (input prep, as in every mode) but touches no
  // embedding row: all of its busy time is the staging.
  EXPECT_GT(report->timeline.seconds(Phase::kInputPrep), 0.0);
  EXPECT_EQ(report->timeline.cpu_busy_seconds(),
            report->timeline.seconds(Phase::kInputPrep));
}

TEST(ModelParallelTest, RejectsOversizedShards) {
  Fixture f;
  auto model = f.NewModel();
  SystemSpec sys = MakePaperServer(2);
  sys.gpu.mem_capacity = 1 << 10;  // 1 KB GPU: nothing fits
  Trainer trainer(model.get(), sys, Fixture::Options(false));
  auto report = trainer.Train(TrainMode::kModelParallel, f.dataset, f.split);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

TEST(GpuCacheTest, BeatsBaselineAndStaysStalledByMisses) {
  // Same cache budget as FAE's hot slice, but unorganized batches. The
  // cache beats the baseline (most traffic served on-GPU) yet keeps
  // paying a host round trip on nearly every batch (the paper's Fig 4:
  // P(all-hot batch) ~ 0), visible as per-batch PCIe transfer time that
  // FAE's hot batches avoid entirely. Which of FAE/cache wins overall
  // depends on the hot-input fraction — bench/abl_placements.cc maps the
  // crossover; here we assert the structural properties only.
  Fixture f;
  FaePlan plan = f.Plan();

  auto bm = f.NewModel();
  Trainer bt(bm.get(), MakePaperServer(4), Fixture::Options(false));
  TrainReport base = bt.TrainBaseline(f.dataset, f.split);

  auto cm = f.NewModel();
  Trainer ct(cm.get(), MakePaperServer(4), Fixture::Options(false));
  auto cache_run = ct.Train(TrainMode::kGpuCache, f.dataset, f.split, &plan);
  ASSERT_TRUE(cache_run.ok()) << cache_run.status().ToString();
  const TrainReport& cache = *cache_run;
  EXPECT_EQ(cache.mode, TrainMode::kGpuCache);

  auto fm = f.NewModel();
  Trainer ft(fm.get(), MakePaperServer(4), Fixture::Options(false));
  auto fae = ft.TrainFaeWithPlan(f.dataset, f.split, Fixture::Config(), plan);
  ASSERT_TRUE(fae.ok());

  EXPECT_LT(cache.modeled_seconds, base.modeled_seconds);
  // Every cache batch carries misses -> host transfers on the critical
  // path; FAE confines transfers to cold batches and syncs.
  EXPECT_GT(cache.timeline.seconds(Phase::kCpuGpuTransfer), 0.0);
  EXPECT_LT(fae->timeline.pcie_bytes(), cache.timeline.pcie_bytes() +
                                            base.timeline.pcie_bytes());
}

// The comparators run on the baseline's shuffled-order driver: only the
// step charge differs, so batch order and math are the baseline's, bit for
// bit, and so is every input-prep charge.
const TrainMode kComparators[] = {TrainMode::kNvOpt, TrainMode::kModelParallel,
                                  TrainMode::kGpuCache};

void ExpectSameCurve(const TrainReport& a, const TrainReport& b,
                     TrainMode mode) {
  const std::string label(TrainModeName(mode));
  ASSERT_EQ(a.curve.size(), b.curve.size()) << label;
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].iteration, b.curve[i].iteration) << label;
    EXPECT_EQ(a.curve[i].train_loss, b.curve[i].train_loss) << label;
    EXPECT_EQ(a.curve[i].test_loss, b.curve[i].test_loss) << label;
    EXPECT_EQ(a.curve[i].test_acc, b.curve[i].test_acc) << label;
  }
  EXPECT_EQ(a.final_test_loss, b.final_test_loss) << label;
  EXPECT_EQ(a.final_test_acc, b.final_test_acc) << label;
}

void ExpectMatchesBaseline(TrainMode mode) {
  Fixture f;
  const FaePlan plan = f.Plan();
  auto bm = f.NewModel(3);
  Trainer bt(bm.get(), MakePaperServer(2), Fixture::Options(true));
  const TrainReport base = bt.TrainBaseline(f.dataset, f.split);
  ASSERT_FALSE(base.curve.empty());
  auto m = f.NewModel(3);
  Trainer t(m.get(), MakePaperServer(2), Fixture::Options(true));
  auto r = t.Train(mode, f.dataset, f.split, &plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->mode, mode);
  ExpectSameCurve(base, *r, mode);
  EXPECT_EQ(r->timeline.seconds(Phase::kInputPrep),
            base.timeline.seconds(Phase::kInputPrep))
      << TrainModeName(mode);
}

TEST(NvOptTest, MathMatchesBaseline) {
  ExpectMatchesBaseline(TrainMode::kNvOpt);
}

TEST(ModelParallelTest, MathMatchesBaseline) {
  ExpectMatchesBaseline(TrainMode::kModelParallel);
}

TEST(GpuCacheTest, MathMatchesBaseline) {
  ExpectMatchesBaseline(TrainMode::kGpuCache);
}

TEST(ComparatorTest, CrashAndResumeIsBitExact) {
  Fixture f;
  const FaePlan plan = f.Plan();
  const std::string path = TempPath("fae_comparator_resume.faec");
  for (TrainMode mode : kComparators) {
    const std::string label(TrainModeName(mode));
    auto ma = f.NewModel(5);
    Trainer whole(ma.get(), MakePaperServer(1), Fixture::Options(true));
    auto a = whole.Train(mode, f.dataset, f.split, &plan);
    ASSERT_TRUE(a.ok()) << a.status().ToString();

    TrainOptions opt = Fixture::Options(true);
    opt.checkpoint.path = path;
    opt.checkpoint.every_steps = 5;
    auto crash_plan = FaultInjector::Parse("crash@13");
    ASSERT_TRUE(crash_plan.ok());
    opt.fault_injector = &*crash_plan;
    auto mb = f.NewModel(5);
    Trainer crashing(mb.get(), MakePaperServer(1), opt);
    auto b = crashing.Train(mode, f.dataset, f.split, &plan);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_TRUE(b->interrupted) << label;
    EXPECT_EQ(b->num_batches, 13u) << label;

    // The checkpoint carries its placement: the baseline must refuse it.
    TrainOptions resume_opt = Fixture::Options(true);
    resume_opt.checkpoint.path = path;
    resume_opt.checkpoint.resume = true;
    auto mx = f.NewModel(999);
    Trainer other(mx.get(), MakePaperServer(1), resume_opt);
    EXPECT_FALSE(other.TrainBaselineResumable(f.dataset, f.split).ok())
        << label;

    auto mc = f.NewModel(999);
    Trainer resumed(mc.get(), MakePaperServer(1), resume_opt);
    auto c = resumed.Train(mode, f.dataset, f.split, &plan);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_TRUE(c->resumed) << label;
    EXPECT_EQ(c->resumed_at, 10u) << label;
    EXPECT_EQ(c->num_batches, a->num_batches) << label;
    ExpectSameCurve(*a, *c, mode);
    EXPECT_EQ(c->modeled_seconds, a->modeled_seconds) << label;
  }
  (void)RemoveFile(path);
}

// The strongest baseline is the hybrid trainer with its CPU and GPU lanes
// overlapped (--pipeline=overlap); FAE must still beat it under the same
// pipelining.
TEST(PipelinedTest, FaeStillWinsAgainstPipelinedBaseline) {
  Fixture f;
  TrainOptions opt = Fixture::Options(false);
  opt.pipeline = PipelineMode::kOverlap;
  FaePlan plan = f.Plan();

  auto bm = f.NewModel();
  Trainer bt(bm.get(), MakePaperServer(4), opt);
  TrainReport piped = bt.TrainBaseline(f.dataset, f.split);

  auto sm = f.NewModel();
  Trainer st(sm.get(), MakePaperServer(4), Fixture::Options(false));
  TrainReport serial = st.TrainBaseline(f.dataset, f.split);
  EXPECT_LT(piped.modeled_seconds, serial.modeled_seconds);

  auto fm = f.NewModel();
  Trainer ft(fm.get(), MakePaperServer(4), opt);
  auto fae = ft.TrainFaeWithPlan(f.dataset, f.split, Fixture::Config(), plan);
  ASSERT_TRUE(fae.ok());
  EXPECT_LT(fae->modeled_seconds, piped.modeled_seconds);
}

TEST(Fp16EmbeddingsTest, QuantizesTouchedRowsAndKeepsAccuracy) {
  Fixture f;
  TrainOptions opt = Fixture::Options(true);
  opt.fp16_embeddings = true;
  auto fp16_model = f.NewModel(5);
  Trainer fp16_trainer(fp16_model.get(), MakePaperServer(1), opt);
  TrainReport fp16 = fp16_trainer.TrainBaseline(f.dataset, f.split);

  auto fp32_model = f.NewModel(5);
  Trainer fp32_trainer(fp32_model.get(), MakePaperServer(1),
                       Fixture::Options(true));
  TrainReport fp32 = fp32_trainer.TrainBaseline(f.dataset, f.split);

  // Every trained table value must be exactly representable in binary16.
  for (const EmbeddingTable& table : fp16_model->tables()) {
    for (size_t i = 0; i < std::min<size_t>(table.raw().size(), 4096); ++i) {
      const float v = table.raw()[i];
      EXPECT_EQ(v, QuantizeToHalf(v));
    }
  }
  // And the paper's revalidation: accuracy within noise of fp32.
  EXPECT_NEAR(fp16.final_test_acc, fp32.final_test_acc, 0.05);
}

TEST(TrainModeTest, NamesAreStable) {
  EXPECT_EQ(TrainModeName(TrainMode::kModelParallel), "model-parallel");
  EXPECT_EQ(TrainModeName(TrainMode::kGpuCache), "gpu-cache");
}

}  // namespace
}  // namespace fae
