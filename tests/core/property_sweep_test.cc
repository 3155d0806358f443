// Parameterized property sweeps across the FAE core: invariants that must
// hold for every (skew, budget) operating point and every scheduler rate,
// not just the defaults the other suites pin down.

#include <cmath>

#include <gtest/gtest.h>

#include "core/calibrator.h"
#include "core/embedding_classifier.h"
#include "core/fae_pipeline.h"
#include "core/shuffle_scheduler.h"
#include "data/synthetic.h"
#include "engine/step_accountant.h"
#include "sim/cost_model.h"

namespace fae {
namespace {

// ---------------------------------------------------------------------
// Calibrator: for any skew and any feasible budget, the plan must respect
// the budget and keep the books consistent.

struct CalibratorCase {
  double zipf;
  uint64_t budget;
};

class CalibratorSweep : public ::testing::TestWithParam<CalibratorCase> {};

TEST_P(CalibratorSweep, PlanRespectsBudgetAndPartitionsInputs) {
  const CalibratorCase param = GetParam();
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  SyntheticGenerator gen(schema, {.seed = 77, .zipf_exponent = param.zipf});
  Dataset dataset = gen.Generate(8000);
  std::vector<uint64_t> ids(dataset.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;

  FaeConfig cfg;
  cfg.sample_rate = 0.25;
  cfg.gpu_memory_budget = param.budget;
  cfg.large_table_bytes = 1ULL << 12;
  cfg.num_threads = 2;

  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(dataset, ids);
  if (!plan.ok()) {
    // Tiny budgets may legitimately not fit even the coarsest threshold.
    EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
    EXPECT_LT(param.budget, 64ULL << 10);
    return;
  }

  // The calibrator's own estimate respected the budget; the realized slice
  // may exceed the CI-upper estimate only by sampling error.
  auto calibration = Calibrator(cfg).Calibrate(dataset);
  ASSERT_TRUE(calibration.ok()) << calibration.status().ToString();
  EXPECT_EQ(calibration->threshold, plan->threshold);
  EXPECT_LE(calibration->estimated_hot_bytes, param.budget);
  EXPECT_LE(plan->hot_bytes,
            static_cast<uint64_t>(1.35 * static_cast<double>(param.budget)));

  // Hot/cold is a partition.
  EXPECT_EQ(plan->inputs.hot_ids.size() + plan->inputs.cold_ids.size(),
            dataset.size());

  // Hot inputs only touch hot entries.
  for (size_t i = 0; i < std::min<size_t>(plan->inputs.hot_ids.size(), 200);
       ++i) {
    const SparseInput& s = dataset.sample(plan->inputs.hot_ids[i]);
    for (size_t t = 0; t < s.indices.size(); ++t) {
      for (uint32_t row : s.indices[t]) {
        EXPECT_TRUE(plan->hot_set.IsHot(t, row));
      }
    }
  }

  // Stronger skew at the same budget must not reduce the hot-access share
  // below a sane floor.
  if (param.zipf >= 1.15 && param.budget >= 256ULL << 10) {
    EXPECT_GT(plan->hot_access_share, 0.8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SkewAndBudget, CalibratorSweep,
    ::testing::Values(CalibratorCase{0.9, 64ULL << 10},
                      CalibratorCase{0.9, 256ULL << 10},
                      CalibratorCase{1.05, 64ULL << 10},
                      CalibratorCase{1.05, 256ULL << 10},
                      CalibratorCase{1.2, 64ULL << 10},
                      CalibratorCase{1.2, 1ULL << 20},
                      CalibratorCase{1.35, 128ULL << 10},
                      CalibratorCase{1.35, 1ULL << 20}));

// ---------------------------------------------------------------------
// Scheduler: exactly-once issue and bounded transitions at every rate.

struct SchedulerCase {
  size_t cold;
  size_t hot;
  double rate;
};

class SchedulerSweep : public ::testing::TestWithParam<SchedulerCase> {};

TEST_P(SchedulerSweep, ExactlyOnceAndBoundedTransitions) {
  const SchedulerCase param = GetParam();
  FaeConfig cfg;
  cfg.initial_rate = param.rate;
  cfg.min_rate = param.rate;
  cfg.max_rate = param.rate;
  ShuffleScheduler scheduler(param.cold, param.hot, cfg);

  size_t cold_issued = 0;
  size_t hot_issued = 0;
  bool first = true;
  while (auto chunk = scheduler.Next()) {
    EXPECT_GE(chunk->count, 1u);
    if (first) {
      // Always starts with cold when any cold batches exist.
      if (param.cold > 0) {
        EXPECT_FALSE(chunk->hot);
      }
      first = false;
    }
    (chunk->hot ? hot_issued : cold_issued) += chunk->count;
  }
  EXPECT_EQ(cold_issued, param.cold);
  EXPECT_EQ(hot_issued, param.hot);
  // At rate r% each class splits into at most ceil(100/r) chunks, so the
  // alternation can switch at most that many times per class.
  const size_t max_chunks =
      2 * static_cast<size_t>(std::ceil(100.0 / param.rate)) + 2;
  EXPECT_LE(scheduler.transitions(), max_chunks);
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndSizes, SchedulerSweep,
    ::testing::Values(SchedulerCase{0, 17, 50}, SchedulerCase{17, 0, 50},
                      SchedulerCase{1, 1, 1}, SchedulerCase{100, 3, 1},
                      SchedulerCase{3, 100, 10}, SchedulerCase{64, 64, 25},
                      SchedulerCase{999, 37, 33.3},
                      SchedulerCase{37, 999, 100},
                      SchedulerCase{128, 128, 7}));

// ---------------------------------------------------------------------
// Cost model: scaling directions must hold for every GPU count.

class GpuCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(GpuCountSweep, HotStepScalesDownBaselineCpuDoesNot) {
  const int gpus = GetParam();
  BatchWork w;
  w.batch_size = 1024u * gpus;  // weak scaling
  w.forward_flops = 50'000'000ull * gpus;
  w.embedding_read_bytes = (2ull << 20) * gpus;
  w.embedding_activation_bytes = (1ull << 19) * gpus;
  w.touched_rows = 5000ull * gpus;
  w.touched_bytes = w.touched_rows * 64;
  w.dense_param_count = 400'000;

  CostModel cost(MakePaperServer(gpus));
  StepAccountant accountant(&cost);
  Timeline base;
  Timeline hot;
  accountant.ChargeBaselineStep(w, base);
  accountant.ChargeHotStep(w, hot);

  // The baseline's CPU time scales with the global batch (no parallelism);
  // the hot step's GPU time stays per-GPU constant under weak scaling.
  EXPECT_NEAR(base.cpu_busy_seconds() / gpus,
              [&] {
                BatchWork w1 = w;
                w1.batch_size = 1024;
                w1.forward_flops = 50'000'000;
                w1.embedding_read_bytes = 2ull << 20;
                w1.embedding_activation_bytes = 1ull << 19;
                w1.touched_rows = 5000;
                w1.touched_bytes = w1.touched_rows * 64;
                CostModel c1(MakePaperServer(1));
                StepAccountant a1(&c1);
                Timeline t1;
                a1.ChargeBaselineStep(w1, t1);
                return t1.cpu_busy_seconds();
              }(),
              1e-9);
  // Hot step never touches the CPU at any GPU count.
  EXPECT_EQ(hot.cpu_busy_seconds(), 0.0);
  EXPECT_LT(hot.PhaseSumSeconds(), base.PhaseSumSeconds());
}

INSTANTIATE_TEST_SUITE_P(Gpus, GpuCountSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace fae
