#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "sim/cost_model.h"

namespace fae {
namespace {

TEST(MultiNodeTest, WorldSizeMultiplies) {
  EXPECT_EQ(MakePaperServer(4).WorldSize(), 4);
  EXPECT_EQ(MakeMultiNodeCluster(2, 4).WorldSize(), 8);
  EXPECT_EQ(MakeMultiNodeCluster(4, 4).WorldSize(), 16);
}

TEST(MultiNodeTest, NetworkIsSlowerThanNvlink) {
  SystemSpec sys = MakeMultiNodeCluster(2, 4);
  EXPECT_LT(sys.network.bandwidth, sys.nvlink.bandwidth);
}

TEST(MultiNodeTest, HierarchicalAllReduceCostsMoreThanLocal) {
  CostModel local(MakePaperServer(4));
  CostModel cluster(MakeMultiNodeCluster(4, 4));
  const uint64_t bytes = 64 << 20;
  EXPECT_GT(cluster.AllReduceSeconds(bytes), local.AllReduceSeconds(bytes));
}

TEST(MultiNodeTest, AllReduceGrowsWithNodes) {
  const uint64_t bytes = 64 << 20;
  double prev = 0.0;
  for (int nodes : {1, 2, 4}) {
    CostModel cm(MakeMultiNodeCluster(nodes, 4));
    const double t = cm.AllReduceSeconds(bytes);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(MultiNodeTest, NetworkTransferIncludesLatency) {
  CostModel cm(MakeMultiNodeCluster(2, 2));
  EXPECT_EQ(cm.NetworkTransferSeconds(0), 0.0);
  EXPECT_GE(cm.NetworkTransferSeconds(1), cm.system().network.latency);
}

struct Fixture {
  Fixture()
      : schema(MakeKaggleLikeSchema(DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 19}).Generate(12000)),
        split(dataset.MakeSplit(0.1)) {}

  static TrainOptions Options() {
    TrainOptions opt;
    opt.per_gpu_batch = 128;
    opt.epochs = 1;
    opt.run_math = false;
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

  DatasetSchema schema;
  Dataset dataset;
  Dataset::Split split;
};

TEST(MultiNodeTest, BaselinePaysInterNodeTraffic) {
  Fixture f;
  auto model = MakeModel(f.schema, false, 5);
  Trainer trainer(model.get(), MakeMultiNodeCluster(2, 2),
                  Fixture::Options());
  TrainReport report = trainer.TrainBaseline(f.dataset, f.split);
  EXPECT_GT(report.timeline.seconds(Phase::kNetwork), 0.0);
  EXPECT_GT(report.timeline.network_bytes(), 0u);
}

TEST(MultiNodeTest, SingleNodeHasNoNetworkPhase) {
  Fixture f;
  auto model = MakeModel(f.schema, false, 5);
  Trainer trainer(model.get(), MakePaperServer(4), Fixture::Options());
  TrainReport report = trainer.TrainBaseline(f.dataset, f.split);
  EXPECT_EQ(report.timeline.seconds(Phase::kNetwork), 0.0);
  EXPECT_EQ(report.timeline.network_bytes(), 0u);
}

TEST(MultiNodeTest, FaeStillBeatsBaselineAcrossNodes) {
  // The paper's §IV-A3 expectation: "even in a multi-server scenario, we
  // expect our insights to hold".
  Fixture f;
  for (int nodes : {1, 2, 4}) {
    SystemSpec sys = MakeMultiNodeCluster(nodes, 2);
    sys.hot_embedding_budget = Fixture::Config().gpu_memory_budget;
    auto bm = MakeModel(f.schema, false, 5);
    Trainer bt(bm.get(), sys, Fixture::Options());
    TrainReport base = bt.TrainBaseline(f.dataset, f.split);
    auto fm = MakeModel(f.schema, false, 5);
    Trainer ft(fm.get(), sys, Fixture::Options());
    auto fae = ft.TrainFae(f.dataset, f.split, Fixture::Config());
    ASSERT_TRUE(fae.ok()) << fae.status().ToString();
    EXPECT_GT(base.modeled_seconds / fae->modeled_seconds, 1.1)
        << nodes << " nodes";
  }
}

TEST(MultiNodeTest, FaeHotBatchesAvoidEmbeddingNetworkTraffic) {
  // Baseline moves pooled embeddings across the network every batch; FAE
  // only pays network for syncs and gradient all-reduce.
  Fixture f;
  SystemSpec sys = MakeMultiNodeCluster(2, 2);
  sys.hot_embedding_budget = Fixture::Config().gpu_memory_budget;
  auto bm = MakeModel(f.schema, false, 5);
  Trainer bt(bm.get(), sys, Fixture::Options());
  TrainReport base = bt.TrainBaseline(f.dataset, f.split);
  auto fm = MakeModel(f.schema, false, 5);
  Trainer ft(fm.get(), sys, Fixture::Options());
  auto fae = ft.TrainFae(f.dataset, f.split, Fixture::Config());
  ASSERT_TRUE(fae.ok());
  EXPECT_LT(fae->timeline.seconds(Phase::kNetwork),
            base.timeline.seconds(Phase::kNetwork));
}

TEST(MultiNodeTest, GlobalBatchScalesWithWorld) {
  Fixture f;
  auto model = MakeModel(f.schema, false, 5);
  TrainOptions opt = Fixture::Options();
  opt.per_gpu_batch = 64;
  Trainer trainer(model.get(), MakeMultiNodeCluster(2, 4), opt);
  EXPECT_EQ(trainer.GlobalBatchSize(), 64u * 8);
}

TEST(MultiNodeTest, ComparatorsRefuseMultiNode) {
  Fixture f;
  auto model = MakeModel(f.schema, false, 5);
  Trainer trainer(model.get(), MakeMultiNodeCluster(2, 2),
                  Fixture::Options());
  for (TrainMode mode : {TrainMode::kNvOpt, TrainMode::kModelParallel,
                         TrainMode::kGpuCache}) {
    const FaePlan empty;
    auto r = trainer.Train(mode, f.dataset, f.split, &empty);
    ASSERT_FALSE(r.ok()) << TrainModeName(mode);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    const std::string msg(r.status().message());
    EXPECT_NE(msg.find("--nodes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--mode"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace fae
