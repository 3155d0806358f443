#include "engine/metrics.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "models/factory.h"

namespace fae {
namespace {

TEST(RocAucTest, PerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(RocAuc({0.1f, 0.2f, 0.8f, 0.9f}, {0, 0, 1, 1}), 1.0);
}

TEST(RocAucTest, InvertedRankingIsZero) {
  EXPECT_DOUBLE_EQ(RocAuc({0.9f, 0.8f, 0.2f, 0.1f}, {0, 0, 1, 1}), 0.0);
}

TEST(RocAucTest, AllTiedScoresIsHalf) {
  EXPECT_DOUBLE_EQ(RocAuc({0.5f, 0.5f, 0.5f, 0.5f}, {0, 1, 0, 1}), 0.5);
}

TEST(RocAucTest, KnownMixedCase) {
  // scores: 1,2,3,4 with labels 0,1,0,1 -> pairs won: (2>1),(4>1),(4>3);
  // pair lost: (2<3). AUC = 3/4.
  EXPECT_DOUBLE_EQ(RocAuc({1, 2, 3, 4}, {0, 1, 0, 1}), 0.75);
}

TEST(RocAucTest, TiesCountHalf) {
  // positive tied with a negative: 0.5 credit over 1 pair.
  EXPECT_DOUBLE_EQ(RocAuc({0.3f, 0.3f}, {0, 1}), 0.5);
}

TEST(RocAucTest, DegenerateInputs) {
  EXPECT_EQ(RocAuc({}, {}), 0.0);
  EXPECT_EQ(RocAuc({0.5f, 0.6f}, {1, 1}), 0.0);  // no negatives
  EXPECT_EQ(RocAuc({0.5f, 0.6f}, {0, 0}), 0.0);  // no positives
  EXPECT_EQ(RocAuc({0.5f}, {1, 0}), 0.0);        // size mismatch
}

TEST(RocAucTest, InvariantToMonotoneTransform) {
  std::vector<float> scores = {-2.0f, -0.5f, 0.3f, 1.7f, 2.2f};
  std::vector<float> labels = {0, 1, 0, 1, 1};
  std::vector<float> scaled;
  for (float s : scores) scaled.push_back(10.0f * s + 3.0f);
  EXPECT_DOUBLE_EQ(RocAuc(scores, labels), RocAuc(scaled, labels));
}

TEST(RocAucTest, RandomScoresNearHalf) {
  Xoshiro256 rng(3);
  std::vector<float> scores;
  std::vector<float> labels;
  for (int i = 0; i < 20000; ++i) {
    scores.push_back(rng.NextFloat());
    labels.push_back(rng.NextBernoulli(0.4) ? 1.0f : 0.0f);
  }
  EXPECT_NEAR(RocAuc(scores, labels), 0.5, 0.02);
}

TEST(EvaluateTest, ReportsAucAboveChanceAfterConstruction) {
  // An untrained model gives ~0.5; this only checks the field is wired and
  // in range.
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  Dataset d = SyntheticGenerator(schema, {.seed = 3}).Generate(600);
  auto model = MakeModel(schema, false, 1);
  std::vector<uint64_t> ids(512);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const FlatDataset flat = d.flat().Gather(ids);
  EvalResult r = Evaluate(*model, MakeBatchViews(flat, 128, /*hot=*/false));
  EXPECT_GT(r.auc, 0.0);
  EXPECT_LT(r.auc, 1.0);
  EXPECT_EQ(r.samples, 512u);
}

}  // namespace
}  // namespace fae
