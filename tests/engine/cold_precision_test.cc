// --cold-precision through the real engine (DESIGN.md §14): quantized FAE
// runs, the hot path's bit-identity when nothing is cold, the golden
// crash-resume property in quantized mode, the legal cross-precision
// resume directions, and the option-combination rejections.

#include <cmath>
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/fae_pipeline.h"
#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
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

  static TrainOptions Options(ColdPrecision p) {
    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = 2;
    opt.eval_samples = 256;
    opt.eval_batch = 128;
    opt.evals_per_epoch = 5;
    opt.cold_precision = p;
    return opt;
  }

  // Tight enough that the plan leaves real cold rows on the large tables.
  static FaeConfig Config(ColdPrecision p) {
    FaeConfig cfg;
    cfg.sample_rate = 0.3;
    cfg.gpu_memory_budget = 512ULL << 10;
    cfg.large_table_bytes = 1ULL << 12;
    cfg.num_threads = 2;
    cfg.cold_precision = p;
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
    EXPECT_EQ(a[i].test_loss, b[i].test_loss) << "point " << i;
  }
}

TEST(ColdPrecisionTest, QuantizedFaeRunReportsColdStore) {
  Fixture f;
  for (ColdPrecision p : {ColdPrecision::kFp16, ColdPrecision::kInt8}) {
    const FaeConfig cfg = Fixture::Config(p);
    FaePipeline pipeline(cfg);
    auto plan = pipeline.Prepare(f.dataset, f.split.train);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto model = f.NewModel(5);
    Trainer trainer(model.get(), MakePaperServer(1), Fixture::Options(p));
    auto report = trainer.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->cold_rows, 0u);
    EXPECT_GT(report->cold_store_bytes, 0u);
    // The store is smaller than the same rows at fp32, and the trainer's
    // effective budget credits at least that difference.
    const uint64_t fp32_bytes =
        report->cold_rows * f.schema.embedding_dim * sizeof(float);
    EXPECT_LT(report->cold_store_bytes, fp32_bytes);
    EXPECT_GT(report->effective_hot_budget,
              MakePaperServer(1).hot_embedding_budget);
    // The masters really are compressed at the end of the run.
    uint64_t cold = 0;
    for (const EmbeddingTable& t : model->tables()) cold += t.cold_rows();
    EXPECT_EQ(cold, report->cold_rows);
    EXPECT_TRUE(std::isfinite(report->final_test_loss));
  }
}

// With a cutoff above every table the plan is all-hot, compression never
// engages, and all three modes must produce bit-identical master tables —
// the quantizer is demonstrably outside the hot path.
TEST(ColdPrecisionTest, HotPathBitIdenticalWhenEverythingHot) {
  Fixture f;
  std::vector<std::vector<float>> baseline;
  for (ColdPrecision p : {ColdPrecision::kFp32, ColdPrecision::kFp16,
                          ColdPrecision::kInt8}) {
    FaeConfig cfg = Fixture::Config(p);
    cfg.large_table_bytes = 1ULL << 40;
    cfg.gpu_memory_budget = 1ULL << 40;
    FaePipeline pipeline(cfg);
    auto plan = pipeline.Prepare(f.dataset, f.split.train);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto model = f.NewModel(5);
    Trainer trainer(model.get(), MakePaperServer(1), Fixture::Options(p));
    auto report = trainer.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->cold_rows, 0u);
    if (baseline.empty()) {
      for (const EmbeddingTable& t : model->tables())
        baseline.push_back(t.raw());
    } else {
      size_t i = 0;
      for (const EmbeddingTable& t : model->tables()) {
        ASSERT_EQ(t.raw().size(), baseline[i].size());
        EXPECT_EQ(std::memcmp(t.raw().data(), baseline[i].data(),
                              baseline[i].size() * sizeof(float)),
                  0)
            << "table " << i;
        ++i;
      }
    }
  }
}

// The golden resume property holds in quantized mode: crash mid-run,
// resume from the periodic checkpoint (whose model section carries the
// compressed tables verbatim), and the curve matches an uninterrupted
// quantized run bit for bit.
TEST(ColdPrecisionTest, QuantizedResumeReproducesRunExactly) {
  Fixture f;
  const std::string path = TempPath("fae_resume_quant_int8.faec");
  const FaeConfig cfg = Fixture::Config(ColdPrecision::kInt8);
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const TrainOptions base_opt = Fixture::Options(ColdPrecision::kInt8);

  auto model_a = f.NewModel(5);
  Trainer uninterrupted(model_a.get(), MakePaperServer(1), base_opt);
  auto a = uninterrupted.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_GT(a->num_batches, 45u);

  TrainOptions opt = base_opt;
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 1;
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
  EXPECT_EQ(c->cold_rows, a->cold_rows);
  std::filesystem::remove(path);
}

// The legal widening direction: an int8 checkpoint resumes at fp32 (cold
// rows dequantized once, exactly); the narrowing and cross-quantized
// directions are refused.
TEST(ColdPrecisionTest, ResumePrecisionDirections) {
  Fixture f;
  const std::string path = TempPath("fae_resume_quant_cross.faec");
  const FaeConfig cfg8 = Fixture::Config(ColdPrecision::kInt8);
  FaePipeline pipeline(cfg8);
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  TrainOptions opt = Fixture::Options(ColdPrecision::kInt8);
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 1;
  auto crash_plan = FaultInjector::Parse("crash@45");
  ASSERT_TRUE(crash_plan.ok());
  opt.fault_injector = &*crash_plan;
  auto model = f.NewModel(5);
  Trainer crashing(model.get(), MakePaperServer(1), opt);
  auto b = crashing.TrainFaeWithPlan(f.dataset, f.split, cfg8, *plan);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_TRUE(b->interrupted);

  {
    // Widen to fp32: allowed; the run finishes with plain tables.
    TrainOptions widen = Fixture::Options(ColdPrecision::kFp32);
    widen.checkpoint.path = path;
    widen.checkpoint.resume = true;
    FaeConfig cfg32 = cfg8;
    cfg32.cold_precision = ColdPrecision::kFp32;
    auto model_w = f.NewModel(999);
    Trainer resumed(model_w.get(), MakePaperServer(1), widen);
    auto c = resumed.TrainFaeWithPlan(f.dataset, f.split, cfg32, *plan);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_TRUE(c->resumed);
    EXPECT_EQ(c->cold_rows, 0u);
    for (const EmbeddingTable& t : model_w->tables()) {
      EXPECT_FALSE(t.compressed());
    }
  }
  {
    // int8 -> fp16 would re-round every cold row: refused.
    TrainOptions cross = Fixture::Options(ColdPrecision::kFp16);
    cross.checkpoint.path = path;
    cross.checkpoint.resume = true;
    FaeConfig cfg16 = cfg8;
    cfg16.cold_precision = ColdPrecision::kFp16;
    auto model_x = f.NewModel(999);
    Trainer resumed(model_x.get(), MakePaperServer(1), cross);
    auto c = resumed.TrainFaeWithPlan(f.dataset, f.split, cfg16, *plan);
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), StatusCode::kFailedPrecondition)
        << c.status().ToString();
  }
  std::filesystem::remove(path);
}

// The cache, baseline and comparator combinations are swept in
// composition_matrix_test.cc; these are the knob's own demands.
TEST(ColdPrecisionTest, RejectsIllegalCombinations) {
  Fixture f;
  const FaeConfig cfg = Fixture::Config(ColdPrecision::kInt8);
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  {
    // fp16 whole-table emulation and the quantized cold store both change
    // the representation; stacking them is refused.
    TrainOptions opt = Fixture::Options(ColdPrecision::kInt8);
    opt.fp16_embeddings = true;
    auto model = f.NewModel(5);
    Trainer t(model.get(), MakePaperServer(1), opt);
    auto r = t.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // The options and the plan's config must agree on the precision.
    TrainOptions opt = Fixture::Options(ColdPrecision::kFp16);
    auto model = f.NewModel(5);
    Trainer t(model.get(), MakePaperServer(1), opt);
    auto r = t.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace fae
