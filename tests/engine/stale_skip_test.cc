#include "engine/staleness_tracker.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "embedding/embedding_table.h"
#include "embedding/sparse_sgd.h"
#include "engine/checkpoint.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "tensor/tensor.h"
#include "util/file_io.h"
#include "util/random.h"
#include "test_util.h"

namespace fae {
namespace {

struct Fixture {
  Fixture()
      : schema(MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 71}).Generate(2400)),
        split(dataset.MakeSplit(0.15)) {}

  std::unique_ptr<RecModel> NewModel(uint64_t seed = 5) const {
    return MakeModel(schema, /*full_size=*/false, seed);
  }

  static TrainOptions Options() {
    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = 2;
    opt.eval_samples = 256;
    opt.eval_batch = 128;
    opt.evals_per_epoch = 5;
    return opt;
  }

  /// The skip-active configuration the trainer tests share: aggressive
  /// enough to freeze rows in the tiny fixture, with the guard live.
  static TrainOptions StaleOptions(StaleSkipMode mode) {
    TrainOptions opt = Options();
    opt.stale_skip = mode;
    opt.stale_threshold = 0.5;
    opt.stale_min_visits = 2;
    return opt;
  }

  static FaeConfig Config() {
    FaeConfig cfg;
    cfg.sample_rate = 0.3;
    cfg.gpu_memory_budget = 8ULL << 20;
    cfg.large_table_bytes = 1ULL << 12;
    cfg.num_threads = 2;
    return cfg;
  }

  DatasetSchema schema;
  Dataset dataset;
  Dataset::Split split;
};

void ExpectSameCurve(const std::vector<CurvePoint>& a,
                     const std::vector<CurvePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].iteration, b[i].iteration) << "point " << i;
    EXPECT_EQ(a[i].train_loss, b[i].train_loss) << "point " << i;
    EXPECT_EQ(a[i].train_acc, b[i].train_acc) << "point " << i;
    EXPECT_EQ(a[i].test_loss, b[i].test_loss) << "point " << i;
    EXPECT_EQ(a[i].test_acc, b[i].test_acc) << "point " << i;
  }
}

StalenessTracker::Options UnitOptions() {
  StalenessTracker::Options opt;
  opt.threshold = 0.5;
  opt.min_visits = 2;
  return opt;
}

/// One measured update with relative magnitude 1e-4 (far below 0.5).
void RecordTinyUpdate(StalenessTracker& t, uint64_t row) {
  t.RecordUpdate(0, row, /*lookups=*/1, /*update_sq=*/1e-8, /*row_sq=*/1.0);
}

// -- Tracker unit tests -------------------------------------------------------

TEST(StaleSkipTest, TrackerFreezesAfterMinVisitsAndForcesRevisits) {
  StalenessTracker t;
  t.Init({100}, UnitOptions());

  // Below min_visits every visit updates, however small the EMA.
  EXPECT_FALSE(t.BeginVisit(0, 7, 1));
  RecordTinyUpdate(t, 7);
  EXPECT_FALSE(t.IsFrozen(0, 7));
  EXPECT_FALSE(t.BeginVisit(0, 7, 1));
  RecordTinyUpdate(t, 7);

  // Two measured tiny updates at threshold 0.5: frozen from here on.
  EXPECT_TRUE(t.IsFrozen(0, 7));
  // 15 consecutive skips, then the revisit_period-th (16) visit is forced
  // to re-measure, then skipping resumes.
  for (int i = 0; i < 15; ++i) {
    EXPECT_TRUE(t.BeginVisit(0, 7, 1)) << "skip " << i;
  }
  EXPECT_FALSE(t.BeginVisit(0, 7, 1)) << "16th consecutive visit re-measures";
  RecordTinyUpdate(t, 7);
  EXPECT_TRUE(t.BeginVisit(0, 7, 1));

  // A row whose gradients resume moving thaws by itself: each forced
  // re-measure folds rel ~ 1.0 into the EMA (alpha per visit), and after a
  // few revisit periods the EMA climbs back over the threshold.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(t.BeginVisit(0, 9, 1));
    RecordTinyUpdate(t, 9);
  }
  ASSERT_TRUE(t.IsFrozen(0, 9));
  int forced = 0;
  for (int visit = 0; visit < 200 && t.IsFrozen(0, 9); ++visit) {
    if (!t.BeginVisit(0, 9, 1)) {
      t.RecordUpdate(0, 9, 1, /*update_sq=*/1.0, /*row_sq=*/1.0);
      ++forced;
    }
  }
  EXPECT_FALSE(t.IsFrozen(0, 9));
  EXPECT_GE(forced, 2);  // thawing took more than one re-measure
  EXPECT_FALSE(t.BeginVisit(0, 9, 1));
  EXPECT_GT(t.total_reactivated_rows(), 0u);

  EXPECT_GT(t.total_skipped_rows(), 0u);
  EXPECT_GT(t.total_updated_rows(), 0u);
}

TEST(StaleSkipTest, TrackerStepCountersSplitLookups) {
  StalenessTracker t;
  t.Init({100}, UnitOptions());
  // Freeze row 1; row 2 stays live.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(t.BeginVisit(0, 1, 1));
    RecordTinyUpdate(t, 1);
  }
  t.BeginStep();
  EXPECT_TRUE(t.BeginVisit(0, 1, 3));   // 3 pooled lookups, skipped
  EXPECT_FALSE(t.BeginVisit(0, 2, 5));  // 5 pooled lookups, live
  t.RecordUpdate(0, 2, /*lookups=*/5, 1e-8, 1.0);
  EXPECT_EQ(t.step_skipped_rows(), 1u);
  EXPECT_EQ(t.step_updated_rows(), 1u);
  EXPECT_EQ(t.step_skipped_lookups(), 3u);
  EXPECT_EQ(t.step_live_lookups(), 5u);
  t.BeginStep();
  EXPECT_EQ(t.step_skipped_rows(), 0u);
  EXPECT_EQ(t.step_live_lookups(), 0u);
}

TEST(StaleSkipTest, TrackerGuardTightensAndReactivatesOnLossRise) {
  StalenessTracker t;
  t.Init({100}, UnitOptions());
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(t.BeginVisit(0, 3, 1));
    RecordTinyUpdate(t, 3);
  }
  ASSERT_TRUE(t.IsFrozen(0, 3));

  t.OnTestLoss(1.0);  // first observation just seeds prev_loss
  EXPECT_EQ(t.guard_tightens(), 0u);
  t.OnTestLoss(1.5);  // regression: halve the threshold, thaw frozen rows
  EXPECT_EQ(t.guard_tightens(), 1u);
  EXPECT_DOUBLE_EQ(t.threshold(), 0.25);
  EXPECT_GT(t.total_reactivated_rows(), 0u);
  EXPECT_FALSE(t.IsFrozen(0, 3));
  // Re-activation resets the visit count: the row must re-earn min_visits
  // measured updates before it may freeze again.
  EXPECT_FALSE(t.BeginVisit(0, 3, 1));
  RecordTinyUpdate(t, 3);
  EXPECT_FALSE(t.BeginVisit(0, 3, 1));
}

TEST(StaleSkipTest, TrackerGuardWidensWithPatienceAndCaps) {
  StalenessTracker t;
  t.Init({100}, UnitOptions());
  t.OnTestLoss(1.0);
  // patience = 4 consecutive decreases double the threshold once.
  t.OnTestLoss(0.9);
  t.OnTestLoss(0.8);
  t.OnTestLoss(0.7);
  EXPECT_DOUBLE_EQ(t.threshold(), 0.5);
  t.OnTestLoss(0.6);
  EXPECT_EQ(t.guard_widens(), 1u);
  EXPECT_DOUBLE_EQ(t.threshold(), 1.0);
  // Keep decreasing: widening saturates at 8x the configured threshold.
  double loss = 0.6;
  for (int i = 0; i < 40; ++i) {
    loss *= 0.99;
    t.OnTestLoss(loss);
  }
  EXPECT_DOUBLE_EQ(t.threshold(), 4.0);
  EXPECT_EQ(t.guard_tightens(), 0u);
}

TEST(StaleSkipTest, TrackerZeroThresholdIsAGuardFixedPoint) {
  StalenessTracker::Options opt = UnitOptions();
  opt.threshold = 0.0;
  StalenessTracker t;
  t.Init({100}, opt);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(t.BeginVisit(0, 4, 1));
    RecordTinyUpdate(t, 4);
  }
  EXPECT_FALSE(t.IsFrozen(0, 4));
  // The guard multiplies the threshold, so zero never grows.
  t.OnTestLoss(1.0);
  for (double loss = 0.9; loss > 0.5; loss -= 0.1) t.OnTestLoss(loss);
  EXPECT_DOUBLE_EQ(t.threshold(), 0.0);
  EXPECT_FALSE(t.BeginVisit(0, 4, 1));
}

TEST(StaleSkipTest, TrackerAlwaysUpdateRowsNeverFreeze) {
  StalenessTracker t;
  t.Init({100}, UnitOptions());
  const std::vector<uint32_t> hot = {11, 12};
  t.SetAlwaysUpdate(0, hot);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(t.BeginVisit(0, 11, 1)) << "visit " << i;
    RecordTinyUpdate(t, 11);
  }
  EXPECT_FALSE(t.IsFrozen(0, 11));
  // A plain row with the same history is frozen — the pin is the only
  // difference.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(t.BeginVisit(0, 20, 1));
    RecordTinyUpdate(t, 20);
  }
  EXPECT_TRUE(t.IsFrozen(0, 20));
}

TEST(StaleSkipTest, TrackerStateRoundTripContinuesDecisions) {
  StalenessTracker a;
  a.Init({64, 32}, UnitOptions());
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(a.BeginVisit(0, 5, 1));
    a.RecordUpdate(0, 5, 1, 1e-8, 1.0);
    EXPECT_FALSE(a.BeginVisit(1, 9, 2));
    a.RecordUpdate(1, 9, 2, 0.25, 1.0);  // rel 0.5: stays live
  }
  a.OnTestLoss(0.8);
  a.OnTestLoss(0.7);
  const StalenessTracker::State s = a.state();
  ASSERT_EQ(s.tables.size(), 2u);
  EXPECT_DOUBLE_EQ(s.threshold, 0.5);
  EXPECT_TRUE(s.has_prev_loss);
  EXPECT_DOUBLE_EQ(s.prev_loss, 0.7);
  EXPECT_EQ(s.consecutive_decreases, 1);
  EXPECT_EQ(s.tables[0].ema.size(), 64u);
  EXPECT_EQ(s.tables[1].visits.size(), 32u);

  StalenessTracker b;
  b.Init({64, 32}, UnitOptions());
  b.Restore(s);
  EXPECT_TRUE(b.IsFrozen(0, 5));
  EXPECT_FALSE(b.IsFrozen(1, 9));
  EXPECT_TRUE(b.BeginVisit(0, 5, 1));
  const StalenessTracker::State s2 = b.state();
  EXPECT_EQ(s2.tables[0].ema, s.tables[0].ema);
  EXPECT_EQ(s2.tables[0].visits, s.tables[0].visits);
  EXPECT_EQ(s2.tables[1].ema, s.tables[1].ema);
  EXPECT_DOUBLE_EQ(s2.threshold, s.threshold);
  // Run counters are reporting-only and restart from zero on Restore.
  EXPECT_EQ(b.total_updated_rows(), 0u);
}

// -- Embedding-layer bit-identity --------------------------------------------

struct VetoBelow : RowUpdateFilter {
  explicit VetoBelow(uint64_t limit) : limit(limit) {}
  bool BeginVisit(uint64_t row, uint32_t) override { return row < limit; }
  void RecordUpdate(uint64_t, uint32_t, double update_sq,
                    double row_sq) override {
    ++updates;
    EXPECT_GE(update_sq, 0.0);
    EXPECT_GE(row_sq, 0.0);
  }
  uint64_t limit;
  int updates = 0;
};

TEST(StaleSkipTest, FusedStepFreezesVetoedRowsVerbatim) {
  constexpr uint64_t kRows = 64;
  constexpr size_t kDim = 8;
  auto make_table = [] {
    Xoshiro256 rng(42);
    return EmbeddingTable(kRows, kDim, rng);
  };
  EmbeddingTable original = make_table();
  EmbeddingTable frozen_all = make_table();
  EmbeddingTable frozen_low = make_table();
  EmbeddingTable plain = make_table();

  const std::vector<uint32_t> indices = {1, 5, 1, 9, 33, 5, 60, 1};
  const std::vector<uint32_t> offsets = {0, 2, 4, 6, 8};
  Tensor grad(4, kDim);
  for (size_t i = 0; i < grad.numel(); ++i) {
    grad.row(0)[i] = 0.01f * static_cast<float>(i + 1);
  }

  // Veto everything: the table must stay bit-identical to untouched.
  VetoBelow veto_all(kRows);
  SparseSgd sgd_all(0.1f);
  sgd_all.FusedBackwardStep(frozen_all, grad, indices, offsets, nullptr,
                            &veto_all);
  EXPECT_EQ(veto_all.updates, 0);
  EXPECT_EQ(frozen_all.raw(), original.raw());

  // No filter: every touched row moves.
  SparseSgd sgd_plain(0.1f);
  sgd_plain.FusedBackwardStep(plain, grad, indices, offsets);
  for (uint32_t r : {1u, 5u, 9u, 33u, 60u}) {
    EXPECT_NE(std::memcmp(plain.row(r), original.row(r),
                          kDim * sizeof(float)),
              0)
        << "row " << r;
  }

  // Selective veto (rows < 32): frozen rows match the untouched table bit
  // for bit, live rows match the filterless run bit for bit.
  VetoBelow veto_low(32);
  SparseSgd sgd_low(0.1f);
  sgd_low.FusedBackwardStep(frozen_low, grad, indices, offsets, nullptr,
                            &veto_low);
  EXPECT_EQ(veto_low.updates, 2);  // rows 33 and 60
  for (uint32_t r : {1u, 5u, 9u}) {
    EXPECT_EQ(std::memcmp(frozen_low.row(r), original.row(r),
                          kDim * sizeof(float)),
              0)
        << "frozen row " << r;
  }
  for (uint32_t r : {33u, 60u}) {
    EXPECT_EQ(std::memcmp(frozen_low.row(r), plain.row(r),
                          kDim * sizeof(float)),
              0)
        << "live row " << r;
  }
}

// -- Trainer integration ------------------------------------------------------

TEST(StaleSkipTest, ThresholdZeroBitIdenticalToOff) {
  Fixture f;
  auto model_off = f.NewModel(5);
  Trainer off(model_off.get(), MakePaperServer(1), Fixture::Options());
  auto a = off.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  TrainOptions opt = Fixture::StaleOptions(StaleSkipMode::kAll);
  opt.stale_threshold = 0.0;
  auto model_zero = f.NewModel(5);
  Trainer zero(model_zero.get(), MakePaperServer(1), opt);
  auto b = zero.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ExpectSameCurve(a->curve, b->curve);
  EXPECT_DOUBLE_EQ(b->final_test_loss, a->final_test_loss);
  EXPECT_DOUBLE_EQ(b->modeled_seconds, a->modeled_seconds);
  EXPECT_EQ(b->stale_skipped_rows, 0u);
  EXPECT_DOUBLE_EQ(b->stale_skip_saved_seconds, 0.0);
  EXPECT_DOUBLE_EQ(b->stale_final_threshold, 0.0);
}

TEST(StaleSkipTest, SkippingSavesModeledTimeWithinLossBand) {
  Fixture f;
  auto model_off = f.NewModel(5);
  Trainer off(model_off.get(), MakePaperServer(1), Fixture::Options());
  auto a = off.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  auto model_on = f.NewModel(5);
  Trainer on(model_on.get(), MakePaperServer(1),
             Fixture::StaleOptions(StaleSkipMode::kAll));
  auto b = on.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_GT(b->stale_skipped_rows, 0u);
  EXPECT_GT(b->stale_updated_rows, 0u);
  EXPECT_GT(b->stale_skip_saved_seconds, 0.0);
  EXPECT_LT(b->modeled_seconds, a->modeled_seconds);
  // The real timeline's charges never change with the knob — only the
  // overlay credit moves the modeled wall.
  EXPECT_DOUBLE_EQ(b->timeline.PhaseSumSeconds(),
                   a->timeline.PhaseSumSeconds());
  // Guarded skipping stays within a narrow band of the exact run.
  EXPECT_NEAR(b->final_test_loss, a->final_test_loss,
              0.02 * a->final_test_loss);
}

TEST(StaleSkipTest, DeterministicAcrossThreadCounts) {
  Fixture f;
  TrainOptions one = Fixture::StaleOptions(StaleSkipMode::kAll);
  one.num_threads = 1;
  auto model_one = f.NewModel(5);
  Trainer t_one(model_one.get(), MakePaperServer(1), one);
  auto a = t_one.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_GT(a->stale_skipped_rows, 0u);

  TrainOptions four = one;
  four.num_threads = 4;
  auto model_four = f.NewModel(5);
  Trainer t_four(model_four.get(), MakePaperServer(1), four);
  auto b = t_four.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ExpectSameCurve(a->curve, b->curve);
  EXPECT_EQ(b->stale_skipped_rows, a->stale_skipped_rows);
  EXPECT_EQ(b->stale_updated_rows, a->stale_updated_rows);
  EXPECT_EQ(b->stale_reactivated_rows, a->stale_reactivated_rows);
  EXPECT_DOUBLE_EQ(b->stale_final_threshold, a->stale_final_threshold);
  EXPECT_DOUBLE_EQ(b->stale_skip_saved_seconds, a->stale_skip_saved_seconds);
  EXPECT_DOUBLE_EQ(b->modeled_seconds, a->modeled_seconds);
}

TEST(StaleSkipTest, DeterministicAcrossPipelineModes) {
  Fixture f;
  TrainReport base;
  bool have_base = false;
  for (PipelineMode mode :
       {PipelineMode::kOff, PipelineMode::kPrefetch, PipelineMode::kOverlap}) {
    TrainOptions opt = Fixture::StaleOptions(StaleSkipMode::kAll);
    opt.pipeline = mode;
    opt.num_threads = 2;
    auto model = f.NewModel(5);
    Trainer trainer(model.get(), MakePaperServer(1), opt);
    auto r = trainer.TrainBaselineResumable(f.dataset, f.split);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->stale_skipped_rows, 0u);
    if (!have_base) {
      base = *std::move(r);
      have_base = true;
      continue;
    }
    ExpectSameCurve(base.curve, r->curve);
    EXPECT_EQ(r->stale_skipped_rows, base.stale_skipped_rows);
    EXPECT_EQ(r->stale_updated_rows, base.stale_updated_rows);
    EXPECT_DOUBLE_EQ(r->stale_final_threshold, base.stale_final_threshold);
    // The skipped work itself is priced identically; what differs across
    // pipeline modes is only how much of it the lanes would have hidden.
    EXPECT_DOUBLE_EQ(r->timeline.PhaseSumSeconds(),
                     base.timeline.PhaseSumSeconds());
  }
}

TEST(StaleSkipTest, FaeColdModeSkipsAndReportsSavings) {
  Fixture f;
  auto model = f.NewModel(5);
  Trainer trainer(model.get(), MakePaperServer(1),
                  Fixture::StaleOptions(StaleSkipMode::kCold));
  auto r = trainer.TrainFae(f.dataset, f.split, Fixture::Config());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->cold_batches, 0u);
  EXPECT_GT(r->stale_skipped_rows, 0u);
  EXPECT_GT(r->stale_skip_saved_seconds, 0.0);
  EXPECT_GT(r->stale_final_threshold, 0.0);
  EXPECT_GT(r->final_test_acc, 0.4);
}

// -- Crash-resume golden curves with skipping active --------------------------

TEST(StaleSkipTest, BaselineResumeGoldenWithSkippingActive) {
  Fixture f;
  const std::string path = TempPath("fae_stale_resume_baseline.faec");
  const TrainOptions base_opt = Fixture::StaleOptions(StaleSkipMode::kAll);

  auto model_a = f.NewModel(5);
  Trainer uninterrupted(model_a.get(), MakePaperServer(1), base_opt);
  auto a = uninterrupted.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_GT(a->stale_skipped_rows, 0u);

  TrainOptions opt = base_opt;
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 5;
  auto crash_plan = FaultInjector::Parse("crash@13");
  ASSERT_TRUE(crash_plan.ok());
  opt.fault_injector = &*crash_plan;
  auto model_b = f.NewModel(5);
  Trainer crashing(model_b.get(), MakePaperServer(1), opt);
  auto b = crashing.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b->interrupted);

  TrainOptions resume_opt = base_opt;
  resume_opt.checkpoint.path = path;
  resume_opt.checkpoint.resume = true;
  auto model_c = f.NewModel(999);
  Trainer resumed(model_c.get(), MakePaperServer(1), resume_opt);
  auto c = resumed.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(c->resumed);
  EXPECT_EQ(c->num_batches, a->num_batches);
  ExpectSameCurve(a->curve, c->curve);
  EXPECT_DOUBLE_EQ(c->final_test_loss, a->final_test_loss);
  // The adapted threshold travels inside the checkpoint, so the guard ends
  // exactly where the uninterrupted run's did.
  EXPECT_DOUBLE_EQ(c->stale_final_threshold, a->stale_final_threshold);
  // Savings are reporting-only overlay state (not checkpointed): the
  // resumed run only credits skips after the restore point.
  EXPECT_LE(c->stale_skipped_rows, a->stale_skipped_rows);
  EXPECT_GE(c->modeled_seconds, a->modeled_seconds - 1e-9);
  (void)RemoveFile(path);
}

TEST(StaleSkipTest, FaeResumeGoldenWithColdSkippingActive) {
  Fixture f;
  const std::string path = TempPath("fae_stale_resume_fae.faec");
  const FaeConfig cfg = Fixture::Config();
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const TrainOptions base_opt = Fixture::StaleOptions(StaleSkipMode::kCold);

  auto model_a = f.NewModel(5);
  Trainer uninterrupted(model_a.get(), MakePaperServer(1), base_opt);
  auto a = uninterrupted.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_GT(a->num_batches, 45u);
  ASSERT_GT(a->stale_skipped_rows, 0u);

  TrainOptions opt = base_opt;
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 1;  // save at every chunk boundary
  auto crash_plan = FaultInjector::Parse("crash@45");
  ASSERT_TRUE(crash_plan.ok());
  opt.fault_injector = &*crash_plan;
  auto model_b = f.NewModel(5);
  Trainer crashing(model_b.get(), MakePaperServer(1), opt);
  auto b = crashing.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b->interrupted);

  TrainOptions resume_opt = base_opt;
  resume_opt.checkpoint.path = path;
  resume_opt.checkpoint.resume = true;
  auto model_c = f.NewModel(999);
  Trainer resumed(model_c.get(), MakePaperServer(1), resume_opt);
  auto c = resumed.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(c->resumed);
  EXPECT_EQ(c->num_batches, a->num_batches);
  ExpectSameCurve(a->curve, c->curve);
  EXPECT_DOUBLE_EQ(c->final_test_loss, a->final_test_loss);
  EXPECT_DOUBLE_EQ(c->stale_final_threshold, a->stale_final_threshold);
  EXPECT_EQ(c->sync_bytes, a->sync_bytes);
  (void)RemoveFile(path);
}

TEST(StaleSkipTest, ResumeMayToggleStaleMode) {
  Fixture f;
  const std::string path = TempPath("fae_stale_resume_toggle.faec");
  // Crash with skipping ON...
  TrainOptions opt = Fixture::StaleOptions(StaleSkipMode::kAll);
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 5;
  auto crash_plan = FaultInjector::Parse("crash@13");
  ASSERT_TRUE(crash_plan.ok());
  opt.fault_injector = &*crash_plan;
  auto model_a = f.NewModel(5);
  Trainer crashing(model_a.get(), MakePaperServer(1), opt);
  ASSERT_TRUE(crashing.TrainBaselineResumable(f.dataset, f.split).ok());

  // ...and resume with it OFF: the knob is fingerprint-exempt.
  TrainOptions off_opt = Fixture::Options();
  off_opt.checkpoint.path = path;
  off_opt.checkpoint.resume = true;
  auto model_b = f.NewModel(999);
  Trainer resumed_off(model_b.get(), MakePaperServer(1), off_opt);
  auto r_off = resumed_off.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();
  EXPECT_TRUE(r_off->resumed);
  EXPECT_EQ(r_off->stale_skipped_rows, 0u);

  // The reverse toggle: crash with skipping off, resume with it on (a
  // fresh tracker starts at the restore point).
  TrainOptions plain_opt = Fixture::Options();
  plain_opt.checkpoint.path = path;
  plain_opt.checkpoint.every_steps = 5;
  auto crash_plan2 = FaultInjector::Parse("crash@13");
  ASSERT_TRUE(crash_plan2.ok());
  plain_opt.fault_injector = &*crash_plan2;
  auto model_c = f.NewModel(5);
  Trainer crashing2(model_c.get(), MakePaperServer(1), plain_opt);
  ASSERT_TRUE(crashing2.TrainBaselineResumable(f.dataset, f.split).ok());

  TrainOptions on_opt = Fixture::StaleOptions(StaleSkipMode::kAll);
  on_opt.checkpoint.path = path;
  on_opt.checkpoint.resume = true;
  auto model_d = f.NewModel(999);
  Trainer resumed_on(model_d.get(), MakePaperServer(1), on_opt);
  auto r_on = resumed_on.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
  EXPECT_TRUE(r_on->resumed);
  (void)RemoveFile(path);
}

// -- Validation ---------------------------------------------------------------

void ExpectInvalidBaseline(const Fixture& f, const TrainOptions& opt) {
  auto model = f.NewModel(5);
  Trainer t(model.get(), MakePaperServer(1), opt);
  auto r = t.TrainBaselineResumable(f.dataset, f.split);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// Mode combinations (cache, baseline × kCold) are swept in
// composition_matrix_test.cc; these are the knob's own demands.
TEST(StaleSkipTest, RejectsIllegalCombinations) {
  Fixture f;
  {
    TrainOptions opt = Fixture::StaleOptions(StaleSkipMode::kAll);
    opt.run_math = false;  // skip decisions need measured magnitudes
    ExpectInvalidBaseline(f, opt);
  }
  {
    TrainOptions opt = Fixture::StaleOptions(StaleSkipMode::kAll);
    opt.fp16_embeddings = true;  // needs the fused fp32 path
    ExpectInvalidBaseline(f, opt);
  }
  {
    TrainOptions opt = Fixture::StaleOptions(StaleSkipMode::kAll);
    opt.stale_threshold = -0.1;
    ExpectInvalidBaseline(f, opt);
  }
  {
    TrainOptions opt = Fixture::StaleOptions(StaleSkipMode::kAll);
    opt.stale_min_visits = 0;
    ExpectInvalidBaseline(f, opt);
  }
  {
    // FAE rejects the same invalid tuning.
    TrainOptions opt = Fixture::StaleOptions(StaleSkipMode::kCold);
    opt.stale_threshold = -1.0;
    auto model = f.NewModel(5);
    Trainer t(model.get(), MakePaperServer(1), opt);
    auto r = t.TrainFae(f.dataset, f.split, Fixture::Config());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// -- Checkpoint serialization -------------------------------------------------

TEST(StaleSkipTest, CheckpointRoundTripRestoresStalenessSection) {
  Fixture f;
  auto model = f.NewModel(5);
  const std::string path = TempPath("fae_stale_ckpt_roundtrip.faec");

  TrainerCheckpoint ck;
  ck.iteration = 77;
  ck.has_staleness = true;
  ck.staleness.threshold = 0.125;
  ck.staleness.has_prev_loss = true;
  ck.staleness.prev_loss = 0.37;
  ck.staleness.consecutive_decreases = 2;
  ck.staleness.tables.resize(2);
  ck.staleness.tables[0].ema = {0.5f, 0.0f, 0.25f};
  ck.staleness.tables[0].visits = {3, 0, 9};
  ck.staleness.tables[0].streak = {0, 0, 7};
  ck.staleness.tables[1].ema = {1.5f};
  ck.staleness.tables[1].visits = {12};
  ck.staleness.tables[1].streak = {4};
  ASSERT_TRUE(CheckpointIo::Save(path, ck, *model).ok());

  auto restored_model = f.NewModel(999);
  auto loaded = CheckpointIo::Load(path, *restored_model);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->has_staleness);
  EXPECT_DOUBLE_EQ(loaded->staleness.threshold, 0.125);
  EXPECT_TRUE(loaded->staleness.has_prev_loss);
  EXPECT_DOUBLE_EQ(loaded->staleness.prev_loss, 0.37);
  EXPECT_EQ(loaded->staleness.consecutive_decreases, 2);
  ASSERT_EQ(loaded->staleness.tables.size(), 2u);
  EXPECT_EQ(loaded->staleness.tables[0].ema, ck.staleness.tables[0].ema);
  EXPECT_EQ(loaded->staleness.tables[0].visits, ck.staleness.tables[0].visits);
  EXPECT_EQ(loaded->staleness.tables[0].streak, ck.staleness.tables[0].streak);
  EXPECT_EQ(loaded->staleness.tables[1].ema, ck.staleness.tables[1].ema);

  // A checkpoint without the section reads back has_staleness = false.
  TrainerCheckpoint plain;
  plain.iteration = 5;
  ASSERT_TRUE(CheckpointIo::Save(path, plain, *model).ok());
  auto loaded2 = CheckpointIo::Load(path, *restored_model);
  ASSERT_TRUE(loaded2.ok()) << loaded2.status().ToString();
  EXPECT_FALSE(loaded2->has_staleness);
  EXPECT_TRUE(loaded2->staleness.tables.empty());
  (void)RemoveFile(path);
}

}  // namespace
}  // namespace fae
