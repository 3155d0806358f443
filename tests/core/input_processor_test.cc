#include "core/input_processor.h"

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/calibrator.h"
#include "core/embedding_classifier.h"
#include "data/batch_view.h"
#include "data/synthetic.h"

namespace fae {
namespace {

struct Prepared {
  Prepared() : dataset(Generate()), profile(dataset.ProfileAllAccesses()) {}

  static Dataset Generate() {
    SyntheticGenerator gen(MakeKaggleLikeSchema(DatasetScale::kTiny),
                           {.seed = 31});
    return gen.Generate(3000);
  }

  std::vector<uint64_t> AllIds() const {
    std::vector<uint64_t> ids(dataset.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    return ids;
  }

  Dataset dataset;
  AccessProfile profile;
};

TEST(InputProcessorTest, PartitionCoversEveryInputOnce) {
  Prepared p;
  HotSet hot =
      EmbeddingClassifier::Classify(p.profile, p.dataset.schema(), 5, 1 << 12);
  InputProcessor proc(2);
  ProcessedInputs out = proc.Classify(p.dataset, hot, p.AllIds());
  EXPECT_EQ(out.hot_ids.size() + out.cold_ids.size(), p.dataset.size());
  // Disjoint.
  std::vector<uint8_t> seen(p.dataset.size(), 0);
  for (uint64_t i : out.hot_ids) seen[i]++;
  for (uint64_t i : out.cold_ids) seen[i]++;
  for (uint8_t s : seen) EXPECT_EQ(s, 1);
}

TEST(InputProcessorTest, HotInputsTouchOnlyHotEntries) {
  Prepared p;
  HotSet hot =
      EmbeddingClassifier::Classify(p.profile, p.dataset.schema(), 5, 1 << 12);
  InputProcessor proc(2);
  ProcessedInputs out = proc.Classify(p.dataset, hot, p.AllIds());
  for (uint64_t id : out.hot_ids) {
    const SparseInput& s = p.dataset.sample(id);
    for (size_t t = 0; t < s.indices.size(); ++t) {
      for (uint32_t row : s.indices[t]) {
        EXPECT_TRUE(hot.IsHot(t, row));
      }
    }
  }
  for (uint64_t id : out.cold_ids) {
    const SparseInput& s = p.dataset.sample(id);
    bool any_cold = false;
    for (size_t t = 0; t < s.indices.size() && !any_cold; ++t) {
      for (uint32_t row : s.indices[t]) {
        if (!hot.IsHot(t, row)) {
          any_cold = true;
          break;
        }
      }
    }
    EXPECT_TRUE(any_cold) << "cold input " << id << " has no cold lookup";
  }
}

TEST(InputProcessorTest, SingleAndMultiThreadAgree) {
  Prepared p;
  HotSet hot =
      EmbeddingClassifier::Classify(p.profile, p.dataset.schema(), 5, 1 << 12);
  ProcessedInputs seq = InputProcessor(1).Classify(p.dataset, hot, p.AllIds());
  ProcessedInputs par = InputProcessor(8).Classify(p.dataset, hot, p.AllIds());
  EXPECT_EQ(seq.hot_ids, par.hot_ids);
  EXPECT_EQ(seq.cold_ids, par.cold_ids);
}

// Property sweep: mini-batch purity must hold at every threshold.
class BatchPurityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchPurityTest, PackedBatchesArePure) {
  Prepared p;
  const uint64_t h_zt = GetParam();
  HotSet hot = EmbeddingClassifier::Classify(p.profile, p.dataset.schema(),
                                             h_zt, 1 << 12);
  InputProcessor proc(2);
  ProcessedInputs inputs = proc.Classify(p.dataset, hot, p.AllIds());
  const InputProcessor::PackedFlat packed =
      InputProcessor::PackFlat(p.dataset, inputs, /*seed=*/9);
  ASSERT_EQ(packed.hot.size(), inputs.hot_ids.size());
  ASSERT_EQ(packed.cold.size(), inputs.cold_ids.size());

  size_t total = 0;
  for (const BatchView& b : MakeBatchViews(packed.hot, 64, /*hot=*/true)) {
    EXPECT_TRUE(b.hot);
    total += b.batch_size();
    for (size_t t = 0; t < b.num_tables(); ++t) {
      for (uint32_t row : b.indices(t)) EXPECT_TRUE(hot.IsHot(t, row));
    }
  }
  for (const BatchView& b : MakeBatchViews(packed.cold, 64, /*hot=*/false)) {
    EXPECT_FALSE(b.hot);
    total += b.batch_size();
    // Every cold sample carries at least one cold lookup.
    for (size_t i = 0; i < b.batch_size(); ++i) {
      bool any_cold = false;
      for (size_t t = 0; t < b.num_tables(); ++t) {
        const std::span<const uint32_t> offsets = b.offsets(t);
        for (uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
          any_cold |= !hot.IsHot(t, b.indices(t)[k - offsets[0]]);
        }
      }
      EXPECT_TRUE(any_cold) << "cold batch sample " << i << " is all hot";
    }
  }
  EXPECT_EQ(total, p.dataset.size());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, BatchPurityTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256));

TEST(InputProcessorTest, AllHotWhenEverythingIsHot) {
  Prepared p;
  HotSet hot =
      EmbeddingClassifier::Classify(p.profile, p.dataset.schema(), 0, 1 << 12);
  ProcessedInputs out = InputProcessor(2).Classify(p.dataset, hot, p.AllIds());
  EXPECT_EQ(out.cold_ids.size(), 0u);
  EXPECT_DOUBLE_EQ(out.HotFraction(), 1.0);
}

TEST(InputProcessorTest, AllColdUnderImpossibleThreshold) {
  Prepared p;
  HotSet hot = EmbeddingClassifier::Classify(
      p.profile, p.dataset.schema(), 1000000000, 1 << 12);
  ProcessedInputs out = InputProcessor(2).Classify(p.dataset, hot, p.AllIds());
  // Inputs touching only small (all-hot) tables could still be hot, but a
  // Kaggle-like input touches every table including large ones.
  EXPECT_EQ(out.hot_ids.size(), 0u);
  EXPECT_DOUBLE_EQ(out.HotFraction(), 0.0);
}

TEST(InputProcessorTest, PackRespectsBatchSize) {
  Prepared p;
  HotSet hot =
      EmbeddingClassifier::Classify(p.profile, p.dataset.schema(), 3, 1 << 12);
  ProcessedInputs inputs =
      InputProcessor(2).Classify(p.dataset, hot, p.AllIds());
  const InputProcessor::PackedFlat packed =
      InputProcessor::PackFlat(p.dataset, inputs, 1);
  for (const FlatDataset* flat : {&packed.hot, &packed.cold}) {
    const std::vector<BatchView> views =
        MakeBatchViews(*flat, 128, flat == &packed.hot);
    ASSERT_EQ(views.size(), (flat->size() + 127) / 128);
    size_t total = 0;
    for (size_t i = 0; i < views.size(); ++i) {
      if (i + 1 < views.size()) {
        EXPECT_EQ(views[i].batch_size(), 128u);
      } else {
        EXPECT_GE(views[i].batch_size(), 1u);
        EXPECT_LE(views[i].batch_size(), 128u);
      }
      total += views[i].batch_size();
    }
    EXPECT_EQ(total, flat->size());
  }
}

TEST(InputProcessorTest, EmptyInputListYieldsNothing) {
  Prepared p;
  HotSet hot =
      EmbeddingClassifier::Classify(p.profile, p.dataset.schema(), 3, 1 << 12);
  ProcessedInputs out = InputProcessor(2).Classify(p.dataset, hot, {});
  EXPECT_TRUE(out.hot_ids.empty());
  EXPECT_TRUE(out.cold_ids.empty());
  const InputProcessor::PackedFlat packed =
      InputProcessor::PackFlat(p.dataset, out, 1);
  EXPECT_EQ(packed.hot.size(), 0u);
  EXPECT_EQ(packed.cold.size(), 0u);
  EXPECT_TRUE(MakeBatchViews(packed.hot, 64, /*hot=*/true).empty());
  EXPECT_TRUE(MakeBatchViews(packed.cold, 64, /*hot=*/false).empty());
}

}  // namespace
}  // namespace fae
