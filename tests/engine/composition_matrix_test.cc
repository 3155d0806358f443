// Every pair of training modes either composes or is refused with a
// reason. One table-driven sweep over pipeline × cache × cold precision ×
// stale skip, for the baseline, FAE and the three comparators (NvOPT,
// model-parallel, GPU cache) that share the baseline's driver:
//   - a legal combination leaves the loss curve and
//     Timeline::PhaseSumSeconds bit-identical to the all-off run: the
//     pipeline, the cache and stale skip at threshold 0 only move the
//     credit ledger (DESIGN.md §11, §13, §16). Cold
//     precision is the one storage knob — quantized cold rows change the
//     math — so quantized cells compare against the all-off run at the
//     same precision;
//   - a refused combination returns InvalidArgument with a message that
//     names both conflicting flags, and every refusal reason is the sole
//     conflict of at least one cell, so each is checked on its own.

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fae_pipeline.h"
#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"

namespace fae {
namespace {

struct Cell {
  PipelineMode pipeline = PipelineMode::kOff;
  CacheMode cache = CacheMode::kOff;
  ColdPrecision cold = ColdPrecision::kFp32;
  StaleSkipMode stale = StaleSkipMode::kOff;

  std::string Label(TrainMode mode) const {
    return std::string(TrainModeName(mode)) +
           " pipeline=" + std::string(PipelineModeName(pipeline)) +
           " cache=" + std::string(CacheModeName(cache)) +
           " cold=" + std::string(ColdPrecisionName(cold)) +
           " stale=" + std::string(StaleSkipModeName(stale));
  }
};

/// Every cell, the all-off one of each cold precision first.
std::vector<Cell> AllCells() {
  std::vector<Cell> cells;
  for (auto pipeline : {PipelineMode::kOff, PipelineMode::kPrefetch,
                        PipelineMode::kOverlap}) {
    for (auto cache : {CacheMode::kOff, CacheMode::kOracle}) {
      for (auto cold : {ColdPrecision::kFp32, ColdPrecision::kInt8}) {
        for (auto stale : {StaleSkipMode::kOff, StaleSkipMode::kCold,
                           StaleSkipMode::kAll}) {
          cells.push_back(Cell{pipeline, cache, cold, stale});
        }
      }
    }
  }
  return cells;
}

/// The flag pairs a cell violates: the refusal message must name both
/// flags of at least one of them. Empty means the cell must compose.
using FlagPair = std::pair<std::string, std::string>;
std::vector<FlagPair> Conflicts(const Cell& c, TrainMode mode) {
  std::vector<FlagPair> out;
  const bool fae = mode == TrainMode::kFae;
  const bool comparator = !fae && mode != TrainMode::kBaseline;
  const bool cache = c.cache != CacheMode::kOff;
  const bool quantized = c.cold != ColdPrecision::kFp32;
  const bool stale = c.stale != StaleSkipMode::kOff;
  if (cache && c.pipeline == PipelineMode::kOff) {
    out.emplace_back("--cache", "--pipeline");
  }
  if (cache && quantized) out.emplace_back("--cold-precision", "--cache");
  if (cache && stale) out.emplace_back("--stale-skip", "--cache");
  if (comparator && cache) out.emplace_back("--cache", "--mode");
  if (!fae && quantized) out.emplace_back("--cold-precision", "--mode");
  if ((comparator && stale) || (!fae && c.stale == StaleSkipMode::kCold)) {
    out.emplace_back("--stale-skip", "--mode");
  }
  return out;
}

struct Fixture {
  Fixture()
      : schema(MakeKaggleLikeSchema(DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 43}).Generate(2000)),
        split(dataset.MakeSplit(0.1)) {}

  static TrainOptions Options(const Cell& c) {
    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = 1;
    opt.eval_samples = 256;
    opt.evals_per_epoch = 4;
    opt.pipeline = c.pipeline;
    opt.cache = c.cache;
    opt.cache_budget_rows = 256;
    opt.cache_lookahead = 4;
    opt.cold_precision = c.cold;
    opt.stale_skip = c.stale;
    opt.stale_threshold = 0.0;  // the identity setting: nothing freezes
    return opt;
  }

  // Tight enough that the plan leaves real cold rows (so the cache, the
  // quantized store and cold-mode skipping all see cold batches).
  static FaeConfig Config(ColdPrecision cold) {
    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.gpu_memory_budget = 384ULL << 10;
    cfg.large_table_bytes = 1ULL << 12;
    cfg.num_threads = 2;
    cfg.cold_precision = cold;
    return cfg;
  }

  StatusOr<TrainReport> Run(TrainMode mode, const Cell& c,
                            const FaePlan& plan) const {
    auto model = MakeModel(schema, /*full_size=*/false, 5);
    Trainer trainer(model.get(), MakePaperServer(2), Options(c));
    if (mode == TrainMode::kFae) {
      return trainer.TrainFaeWithPlan(dataset, split, Config(c.cold), plan);
    }
    return trainer.Train(mode, dataset, split, &plan);
  }

  DatasetSchema schema;
  Dataset dataset;
  Dataset::Split split;
};

void ExpectSameRun(const TrainReport& ref, const TrainReport& got,
                   const std::string& label) {
  EXPECT_EQ(ref.timeline.PhaseSumSeconds(), got.timeline.PhaseSumSeconds())
      << label;
  EXPECT_EQ(ref.final_test_loss, got.final_test_loss) << label;
  ASSERT_EQ(ref.curve.size(), got.curve.size()) << label;
  for (size_t i = 0; i < ref.curve.size(); ++i) {
    EXPECT_EQ(ref.curve[i].train_loss, got.curve[i].train_loss)
        << label << " point " << i;
    EXPECT_EQ(ref.curve[i].test_loss, got.curve[i].test_loss)
        << label << " point " << i;
  }
}

/// Runs every cell in `mode`. `plans` holds one FAE plan per cold
/// precision, fp32 first (the GPU cache's contents come from the fp32 one).
void SweepMode(const Fixture& f, TrainMode mode,
               const std::vector<FaePlan>& plans) {
  const bool fae = mode == TrainMode::kFae;
  std::optional<TrainReport> refs[2];  // the all-off run per precision
  size_t legal = 0;
  size_t refused = 0;
  std::set<FlagPair> sole_reasons;  // pairs that are some cell's only one
  for (const Cell& c : AllCells()) {
    const std::string label = c.Label(mode);
    const std::vector<FlagPair> conflicts = Conflicts(c, mode);
    const size_t precision = c.cold == ColdPrecision::kFp32 ? 0 : 1;
    StatusOr<TrainReport> r = f.Run(mode, c, plans[fae ? precision : 0]);
    if (!conflicts.empty()) {
      ++refused;
      if (conflicts.size() == 1) sole_reasons.insert(conflicts.front());
      ASSERT_FALSE(r.ok()) << label << " must be refused";
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << label;
      const std::string msg(r.status().message());
      bool named = false;
      for (const FlagPair& pair : conflicts) {
        named |= msg.find(pair.first) != std::string::npos &&
                 msg.find(pair.second) != std::string::npos;
      }
      EXPECT_TRUE(named) << label << ": \"" << msg
                         << "\" names neither conflicting flag pair";
      continue;
    }
    ++legal;
    ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
    std::optional<TrainReport>& ref = refs[precision];
    if (ref.has_value()) {
      ExpectSameRun(*ref, *r, label);
    } else {
      ref = std::move(r).value();
      ASSERT_FALSE(ref->curve.empty());
    }
  }
  // The legality table itself: which cells compose, per mode. A
  // comparator composes only with the pipeline.
  const bool comparator = !fae && mode != TrainMode::kBaseline;
  EXPECT_EQ(legal, fae ? 20u : comparator ? 3u : 8u);
  EXPECT_EQ(refused, AllCells().size() - legal);
  // The baseline refuses every quantized cell for its mode first, so the
  // cold-precision x cache refusal is checked on its own by the FAE sweep;
  // a comparator refuses every cache cell for its mode.
  std::set<FlagPair> reasons;
  if (comparator) {
    reasons = {{"--cache", "--mode"},
               {"--cold-precision", "--mode"},
               {"--stale-skip", "--mode"}};
  } else {
    reasons = {{"--cache", "--pipeline"}, {"--stale-skip", "--cache"}};
    if (fae) {
      reasons.insert({"--cold-precision", "--cache"});
    } else {
      reasons.insert({"--cold-precision", "--mode"});
      reasons.insert({"--stale-skip", "--mode"});
    }
  }
  EXPECT_EQ(sole_reasons, reasons);
}

std::vector<FaePlan> Plans(const Fixture& f) {
  std::vector<FaePlan> plans;
  for (ColdPrecision cold : {ColdPrecision::kFp32, ColdPrecision::kInt8}) {
    FaePipeline pipeline(Fixture::Config(cold));
    auto plan = pipeline.Prepare(f.dataset, f.split.train);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(plan).value());
  }
  return plans;
}

TEST(CompositionMatrixTest, BaselineComposesOrRefusesEveryCombination) {
  Fixture f;
  SweepMode(f, TrainMode::kBaseline, {FaePlan{}});  // needs no plan
}

TEST(CompositionMatrixTest, FaeComposesOrRefusesEveryCombination) {
  Fixture f;
  SweepMode(f, TrainMode::kFae, Plans(f));
}

TEST(CompositionMatrixTest, ComparatorsComposeOrRefuseEveryCombination) {
  Fixture f;
  const std::vector<FaePlan> plans = Plans(f);
  for (TrainMode mode : {TrainMode::kNvOpt, TrainMode::kModelParallel,
                         TrainMode::kGpuCache}) {
    SweepMode(f, mode, plans);
  }
}

}  // namespace
}  // namespace fae
