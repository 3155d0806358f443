#include "core/embedding_replicator.h"

#include <algorithm>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "core/input_processor.h"
#include "data/batch_view.h"
#include "data/synthetic.h"

namespace fae {
namespace {

struct Fixture {
  Fixture()
      : schema(MakeKaggleLikeSchema(DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 51}).Generate(2000)) {
    Xoshiro256 rng(3);
    for (uint64_t rows : schema.table_rows) {
      masters.emplace_back(rows, schema.embedding_dim, rng);
    }
    AccessProfile profile = dataset.ProfileAllAccesses();
    hot = EmbeddingClassifier::Classify(profile, schema, 4, 1 << 12);
  }

  DatasetSchema schema;
  Dataset dataset;
  std::vector<EmbeddingTable> masters;
  HotSet hot;
};

TEST(ReplicatorTest, ReplicaSizesMatchHotCounts) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  auto replicas = rep.replica_tables();
  ASSERT_EQ(replicas.size(), f.schema.num_tables());
  uint64_t bytes = 0;
  for (size_t t = 0; t < replicas.size(); ++t) {
    EXPECT_EQ(replicas[t]->rows(), f.hot.HotCount(t));
    EXPECT_EQ(replicas[t]->dim(), f.schema.embedding_dim);
    bytes += replicas[t]->SizeBytes();
  }
  EXPECT_EQ(rep.hot_bytes(), bytes);
  EXPECT_EQ(bytes, f.hot.HotBytes(f.schema.embedding_dim));
}

TEST(ReplicatorTest, SlotMappingIsInverse) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  for (size_t t = 0; t < f.schema.num_tables(); ++t) {
    const uint64_t hot_count = f.hot.HotCount(t);
    for (uint64_t slot = 0; slot < std::min<uint64_t>(hot_count, 50);
         ++slot) {
      const uint64_t row = rep.RowOf(t, slot);
      EXPECT_EQ(rep.SlotOf(t, row), static_cast<int64_t>(slot));
      EXPECT_TRUE(f.hot.IsHot(t, row));
    }
  }
}

TEST(ReplicatorTest, ColdRowsHaveNoSlot) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  for (size_t t = 0; t < f.schema.num_tables(); ++t) {
    if (f.hot.table_all_hot(t)) continue;
    for (uint64_t row = 0; row < std::min<uint64_t>(f.masters[t].rows(), 200);
         ++row) {
      if (!f.hot.IsHot(t, row)) {
        EXPECT_EQ(rep.SlotOf(t, row), -1);
      }
    }
  }
}

TEST(ReplicatorTest, PullCopiesHotRowsExactly) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  rep.PullFromMasters(f.masters);
  auto replicas = rep.replica_tables();
  for (size_t t = 0; t < replicas.size(); ++t) {
    for (uint64_t slot = 0;
         slot < std::min<uint64_t>(replicas[t]->rows(), 20); ++slot) {
      const uint64_t row = rep.RowOf(t, slot);
      for (size_t k = 0; k < f.schema.embedding_dim; ++k) {
        EXPECT_EQ(replicas[t]->row(slot)[k], f.masters[t].row(row)[k]);
      }
    }
  }
}

TEST(ReplicatorTest, PushRoundTripsUpdates) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  rep.PullFromMasters(f.masters);
  auto replicas = rep.replica_tables();
  // Mutate replica rows (as a hot training phase would).
  for (size_t t = 0; t < replicas.size(); ++t) {
    for (uint64_t slot = 0; slot < std::min<uint64_t>(replicas[t]->rows(), 5);
         ++slot) {
      replicas[t]->row(slot)[0] = 123.0f + static_cast<float>(slot);
    }
  }
  rep.PushToMasters(f.masters);
  for (size_t t = 0; t < replicas.size(); ++t) {
    for (uint64_t slot = 0; slot < std::min<uint64_t>(replicas[t]->rows(), 5);
         ++slot) {
      EXPECT_EQ(f.masters[t].row(rep.RowOf(t, slot))[0],
                123.0f + static_cast<float>(slot));
    }
  }
}

/// The fixture's inputs, classified against its hot set and packed.
InputProcessor::PackedFlat PackAll(const Fixture& f) {
  std::vector<uint64_t> all_ids(f.dataset.size());
  for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
  const ProcessedInputs inputs =
      InputProcessor(1).Classify(f.dataset, f.hot, all_ids);
  return InputProcessor::PackFlat(f.dataset, inputs, 1);
}

TEST(ReplicatorTest, TranslateRewritesHotBatch) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  const InputProcessor::PackedFlat packed = PackAll(f);
  ASSERT_GT(packed.hot.size(), 0u);

  auto translated = rep.TranslateFlat(packed.hot);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();
  const std::vector<BatchView> master =
      MakeBatchViews(packed.hot, 32, /*hot=*/true);
  const std::vector<BatchView> replica =
      MakeBatchViews(*translated, 32, /*hot=*/true);
  ASSERT_EQ(master.size(), replica.size());
  for (size_t b = 0; b < master.size(); ++b) {
    ASSERT_EQ(replica[b].num_tables(), master[b].num_tables());
    for (size_t t = 0; t < master[b].num_tables(); ++t) {
      const std::span<const uint32_t> slots = replica[b].indices(t);
      const std::span<const uint32_t> rows = master[b].indices(t);
      ASSERT_EQ(slots.size(), rows.size());
      for (size_t j = 0; j < rows.size(); ++j) {
        EXPECT_EQ(rep.RowOf(t, slots[j]), rows[j]);
      }
      EXPECT_TRUE(std::equal(replica[b].offsets(t).begin(),
                             replica[b].offsets(t).end(),
                             master[b].offsets(t).begin(),
                             master[b].offsets(t).end()));
    }
    EXPECT_TRUE(std::equal(replica[b].labels.begin(),
                           replica[b].labels.end(),
                           master[b].labels.begin(), master[b].labels.end()));
  }
}

TEST(ReplicatorTest, TranslateRejectsColdLookup) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  // One sample whose only cold lookup is a cold row of table 0; every
  // other table looks up one of its hot rows.
  uint32_t cold_row = 0;
  bool found = false;
  for (uint32_t r = 0; r < f.masters[0].rows() && !found; ++r) {
    if (!f.hot.IsHot(0, r)) {
      cold_row = r;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  FlatDataset planted(f.schema);
  for (size_t k = 0; k < f.schema.num_dense; ++k) planted.AppendDense(0.0f);
  planted.AppendLookup(0, cold_row);
  for (size_t t = 1; t < f.schema.num_tables(); ++t) {
    ASSERT_GT(f.hot.HotCount(t), 0u);
    planted.AppendLookup(t, static_cast<uint32_t>(rep.RowOf(t, 0)));
  }
  planted.FinishSample(1.0f);
  auto translated = rep.TranslateFlat(planted);
  ASSERT_FALSE(translated.ok());
  EXPECT_EQ(translated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(translated.status().message().find(
                "table 0, row " + std::to_string(cold_row)),
            std::string::npos)
      << translated.status().ToString();

  // The packer's cold class is rejected as a whole.
  const InputProcessor::PackedFlat packed = PackAll(f);
  ASSERT_GT(packed.cold.size(), 0u);
  EXPECT_FALSE(rep.TranslateFlat(packed.cold).ok());
}

}  // namespace
}  // namespace fae
