// Behavioral suite for the online serving loop: healthy serving, drift
// detection + recalibration + hot-swap, the watchdog, and every injected
// serving fault's degrade/recover path. All time is the cost model's, so
// every expectation here is exact run to run.

#include "serve/serving_loop.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fae_pipeline.h"
#include "data/synthetic.h"
#include "models/factory.h"
#include "sim/fault_injector.h"
#include "util/file_io.h"
#include "test_util.h"

namespace fae {
namespace {

Dataset MakeTraffic(size_t n, double drift) {
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  SyntheticOptions opt;
  opt.seed = 11;
  opt.popularity_drift = drift;
  return SyntheticGenerator(schema, opt).Generate(n);
}

FaeConfig MakeConfig() {
  FaeConfig cfg;
  cfg.sample_rate = 0.25;
  cfg.large_table_bytes = 1ULL << 12;
  // Selective hot set: drift must be able to evict coverage (see
  // bench/ext_serving.cc).
  cfg.gpu_memory_budget = 128ULL << 10;
  return cfg;
}

// The deployment shape: calibrate on the head of the log, then serve the
// whole stream (under drift, the tail has moved on).
FaePlan MakeHeadPlan(const Dataset& dataset) {
  std::vector<uint64_t> head(dataset.size() / 4);
  for (size_t i = 0; i < head.size(); ++i) head[i] = i;
  auto plan = FaePipeline(MakeConfig()).Prepare(dataset, head);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

const Dataset& SteadyDataset() {
  static const Dataset* d = new Dataset(MakeTraffic(6000, 0.0));
  return *d;
}
const Dataset& DriftDataset() {
  static const Dataset* d = new Dataset(MakeTraffic(6000, 0.6));
  return *d;
}
const FaePlan& SteadyPlan() {
  static const FaePlan* p = new FaePlan(MakeHeadPlan(SteadyDataset()));
  return *p;
}
const FaePlan& DriftPlan() {
  static const FaePlan* p = new FaePlan(MakeHeadPlan(DriftDataset()));
  return *p;
}

ServeOptions BaseOptions() {
  ServeOptions opt;
  opt.batch_size = 64;
  opt.slo_hit_rate = 0.5;  // far below coverage: recal stays off by default
  opt.ema_alpha = 0.3;
  opt.recal_window = 1024;
  opt.recal_cooldown = 8;
  opt.continuous_training = false;  // serving behavior only; math has its
                                    // own test below
  return opt;
}

ServeReport ServeRun(const Dataset& dataset, const FaePlan& plan,
                const ServeOptions& opts) {
  auto model = MakeModel(dataset.schema(), /*full_size=*/false, /*seed=*/7);
  ServingLoop loop(model.get(), MakePaperServer(2), MakeConfig(), opts);
  auto report = loop.Serve(dataset, plan);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

// Every lookup is answered exactly once, whatever the serving health.
void ExpectNoOutage(const ServeReport& r) {
  EXPECT_EQ(r.hot_hits + r.stale_hits + r.master_fallbacks + r.misses,
            r.lookups);
  EXPECT_GT(r.lookups, 0u);
}

TEST(ServingLoopTest, HealthyServingHitsHotSliceAndAccountsEverything) {
  const ServeReport r = ServeRun(SteadyDataset(), SteadyPlan(), BaseOptions());
  ExpectNoOutage(r);
  EXPECT_EQ(r.requests, SteadyDataset().size());
  EXPECT_EQ(r.batches, (SteadyDataset().size() + 63) / 64);
  EXPECT_GT(r.hit_rate, 0.8);
  EXPECT_EQ(r.stale_hits, 0u);
  EXPECT_EQ(r.master_fallbacks, 0u);
  EXPECT_EQ(r.recal_attempts, 0u);
  EXPECT_EQ(r.swaps, 0u);
  EXPECT_EQ(r.degraded_batches, 0u);
  EXPECT_FALSE(r.degraded_at_exit);
  EXPECT_FALSE(r.interrupted);
  EXPECT_GE(r.p99_latency_ns, r.p50_latency_ns);
  EXPECT_GT(r.modeled_seconds, 0.0);
}

TEST(ServingLoopTest, InvalidOptionsAreRejected) {
  ServeOptions opts = BaseOptions();
  opts.batch_size = 0;
  auto model =
      MakeModel(SteadyDataset().schema(), /*full_size=*/false, /*seed=*/7);
  ServingLoop loop(model.get(), MakePaperServer(2), MakeConfig(), opts);
  auto report = loop.Serve(SteadyDataset(), SteadyPlan());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServingLoopTest, RecalibrationStaysOffWithoutSwapPath) {
  ServeOptions opts = BaseOptions();
  opts.slo_hit_rate = 0.9;  // drift pulls the EMA below this
  const ServeReport r = ServeRun(DriftDataset(), DriftPlan(), opts);
  EXPECT_EQ(r.recal_attempts, 0u);
  EXPECT_EQ(r.swaps, 0u);
}

TEST(ServingLoopTest, DriftTriggersRecalibrationAndRecoversCoverage) {
  ServeOptions stale = BaseOptions();
  stale.slo_hit_rate = 0.9;
  const ServeReport without = ServeRun(DriftDataset(), DriftPlan(), stale);

  ServeOptions recal = stale;
  recal.swap_path = TempPath("serving_loop_recal.faef");
  const ServeReport with = ServeRun(DriftDataset(), DriftPlan(), recal);
  (void)RemoveFile(recal.swap_path);

  ExpectNoOutage(with);
  EXPECT_GT(with.recal_attempts, 0u);
  EXPECT_GT(with.swaps, 0u);
  EXPECT_EQ(with.swap_rejects, 0u);
  // The swapped-in window set tracks the drifted traffic better than the
  // stale offline plan. The comparison is on the exit-time coverage EMA —
  // the recovered steady state — not the run-average hit rate, which mixes
  // in the pre-detection decay and the window's mid-run lag at this drift
  // rate (bench/ext_serving.cc gates the same way).
  EXPECT_GT(with.coverage_ema, without.coverage_ema);
}

TEST(ServingLoopTest, WatchdogExhaustionDegradesToStaleServing) {
  ServeOptions opts = BaseOptions();
  opts.slo_hit_rate = 0.9;
  opts.swap_path = TempPath("serving_loop_exhaust.faef");
  opts.watchdog_deadline_seconds = 1e-12;  // every pass blows the deadline
  opts.max_recal_retries = 2;
  const ServeReport r = ServeRun(DriftDataset(), DriftPlan(), opts);
  (void)RemoveFile(opts.swap_path);

  ExpectNoOutage(r);
  EXPECT_GT(r.recal_failures, 0u);
  EXPECT_EQ(r.deadline_misses, r.recal_attempts * opts.max_recal_retries);
  EXPECT_EQ(r.swaps, 0u);
  EXPECT_GT(r.degraded_batches, 0u);
  EXPECT_GT(r.stale_hits, 0u);  // honest accounting: degraded hits are stale
  EXPECT_TRUE(r.degraded_at_exit);
  EXPECT_FALSE(r.interrupted);  // never an outage
}

TEST(ServingLoopTest, RecalStallIsAbortedByWatchdogAndRetried) {
  auto injector = FaultInjector::Parse("recal-stall@1:9.0");
  ASSERT_TRUE(injector.ok());
  FaultInjector faults = std::move(injector).value();

  ServeOptions opts = BaseOptions();
  opts.slo_hit_rate = 0.9;
  opts.swap_path = TempPath("serving_loop_stall.faef");
  opts.fault_injector = &faults;
  const ServeReport r = ServeRun(DriftDataset(), DriftPlan(), opts);
  (void)RemoveFile(opts.swap_path);

  ExpectNoOutage(r);
  EXPECT_EQ(r.faults.recal_stalls, 1u);
  EXPECT_GE(r.deadline_misses, 1u);  // the stalled pass missed its deadline
  EXPECT_GT(r.swaps, 0u);            // the retry (stall consumed) succeeded
  EXPECT_FALSE(r.degraded_at_exit);
}

TEST(ServingLoopTest, TornSwapIsRejectedAndLaterSwapRecovers) {
  auto injector = FaultInjector::Parse("swap-crash@0");
  ASSERT_TRUE(injector.ok());
  FaultInjector faults = std::move(injector).value();

  ServeOptions opts = BaseOptions();
  opts.slo_hit_rate = 0.9;
  opts.swap_path = TempPath("serving_loop_torn.faef");
  opts.fault_injector = &faults;
  const ServeReport r = ServeRun(DriftDataset(), DriftPlan(), opts);
  (void)RemoveFile(opts.swap_path);

  ExpectNoOutage(r);
  EXPECT_EQ(r.faults.swap_crashes, 1u);
  EXPECT_EQ(r.swap_rejects, 1u);     // the all-or-nothing load said no
  EXPECT_GT(r.degraded_batches, 0u); // previous set served meanwhile
  EXPECT_GT(r.stale_hits, 0u);
  EXPECT_GT(r.swaps, 0u);            // a later recalibration went through
  EXPECT_GE(r.faults.recoveries, 1u);
  EXPECT_FALSE(r.degraded_at_exit);
}

TEST(ServingLoopTest, LookupLossFallsBackToMasterAndReReplicates) {
  auto injector = FaultInjector::Parse("lookup-loss@3x2");
  ASSERT_TRUE(injector.ok());
  FaultInjector faults = std::move(injector).value();

  ServeOptions opts = BaseOptions();
  opts.fault_injector = &faults;
  const ServeReport healthy = ServeRun(SteadyDataset(), SteadyPlan(), BaseOptions());
  const ServeReport r = ServeRun(SteadyDataset(), SteadyPlan(), opts);

  ExpectNoOutage(r);
  EXPECT_EQ(r.faults.lookup_losses, 1u);
  EXPECT_GT(r.master_fallbacks, 0u);  // hot lookups answered from the CPU
  EXPECT_GE(r.faults.recoveries, 1u); // slice re-replicated afterwards
  EXPECT_EQ(r.stale_hits, 0u);        // fallback is not staleness
  // Master fallback is strictly slower than GPU service: the tail moves.
  EXPECT_GE(r.p99_latency_ns, healthy.p99_latency_ns);
}

TEST(ServingLoopTest, DeviceFaultBeyondRetryCapBecomesLookupLoss) {
  auto injector = FaultInjector::Parse("device@2x7");
  ASSERT_TRUE(injector.ok());
  FaultInjector faults = std::move(injector).value();

  ServeOptions opts = BaseOptions();
  opts.fault_injector = &faults;
  const ServeReport r = ServeRun(SteadyDataset(), SteadyPlan(), opts);

  ExpectNoOutage(r);
  EXPECT_EQ(r.faults.device_faults, 1u);
  EXPECT_EQ(r.faults.retries, 5u);    // serving's bounded retry budget
  EXPECT_GT(r.master_fallbacks, 0u);  // the 2 attempts past the cap
  EXPECT_GE(r.faults.recoveries, 1u);
  EXPECT_FALSE(r.interrupted);        // serving never escalates to failure
}

TEST(ServingLoopTest, CrashReturnsPartialReport) {
  auto injector = FaultInjector::Parse("crash@5");
  ASSERT_TRUE(injector.ok());
  FaultInjector faults = std::move(injector).value();

  ServeOptions opts = BaseOptions();
  opts.fault_injector = &faults;
  const ServeReport r = ServeRun(SteadyDataset(), SteadyPlan(), opts);

  EXPECT_TRUE(r.interrupted);
  EXPECT_EQ(r.batches, 5u);
  EXPECT_EQ(r.faults.crashes, 1u);
  ExpectNoOutage(r);  // everything served before the crash is accounted
}

TEST(ServingLoopTest, ContinuousTrainingStepsEveryBatchEvenWhileDegraded) {
  ServeOptions opts = BaseOptions();
  // With only a few batches the drift hasn't bitten yet; an unreachable SLO
  // makes the (deliberately failing) recalibration fire immediately.
  opts.slo_hit_rate = 0.99;
  opts.swap_path = TempPath("serving_loop_train.faef");
  opts.watchdog_deadline_seconds = 1e-12;  // permanently degraded
  opts.continuous_training = true;
  opts.num_batches = 24;  // keep the math cheap
  const ServeReport r = ServeRun(DriftDataset(), DriftPlan(), opts);
  (void)RemoveFile(opts.swap_path);

  EXPECT_EQ(r.train_steps, r.batches);  // training never paused
  EXPECT_GT(r.degraded_batches, 0u);
  EXPECT_GT(r.train_loss, 0.0);
}

TEST(ServingLoopTest, ReportsAreDeterministic) {
  ServeOptions opts = BaseOptions();
  opts.slo_hit_rate = 0.9;
  opts.swap_path = TempPath("serving_loop_det.faef");
  const ServeReport a = ServeRun(DriftDataset(), DriftPlan(), opts);
  const ServeReport b = ServeRun(DriftDataset(), DriftPlan(), opts);
  (void)RemoveFile(opts.swap_path);

  EXPECT_EQ(a.hot_hits, b.hot_hits);
  EXPECT_EQ(a.stale_hits, b.stale_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_EQ(a.recal_attempts, b.recal_attempts);
  EXPECT_EQ(a.p50_latency_ns, b.p50_latency_ns);
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
  EXPECT_EQ(a.coverage_ema, b.coverage_ema);
}

}  // namespace
}  // namespace fae
