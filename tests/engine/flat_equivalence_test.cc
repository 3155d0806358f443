// Bit-exactness of the flat SoA data path against the legacy copying
// assembly: stepping a model with zero-copy BatchViews into a gathered
// FlatDataset must produce exactly the losses, table values, and eval
// metrics the AssembleBatches MiniBatch path produces — and crash-safe
// resume must stay exact on the sequential (TBSM) workload too.

#include <filesystem>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/batch_view.h"
#include "data/minibatch.h"
#include "data/synthetic.h"
#include "engine/metrics.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "tensor/sgd.h"
#include "embedding/sparse_sgd.h"
#include "test_util.h"

namespace fae {
namespace {

std::vector<uint64_t> Iota(size_t n) {
  std::vector<uint64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

void ExpectSameTables(const RecModel& a, const RecModel& b) {
  ASSERT_EQ(a.tables().size(), b.tables().size());
  for (size_t t = 0; t < a.tables().size(); ++t) {
    const std::vector<float>& ra = a.tables()[t].raw();
    const std::vector<float>& rb = b.tables()[t].raw();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t k = 0; k < ra.size(); ++k) {
      ASSERT_EQ(ra[k], rb[k]) << "table " << t << " element " << k;
    }
  }
}

/// Trains one model through legacy MiniBatches and a twin through flat
/// views of the same sample order; every per-step loss and the final table
/// contents must agree bit for bit.
void RunEquivalence(WorkloadKind kind) {
  const DatasetSchema schema = MakeSchema(kind, DatasetScale::kTiny);
  const Dataset dataset = SyntheticGenerator(schema, {.seed = 23}).Generate(96);
  const std::vector<uint64_t> ids = Iota(96);

  std::unique_ptr<RecModel> legacy =
      MakeModel(schema, /*full_size=*/false, /*seed=*/9);
  std::unique_ptr<RecModel> flat =
      MakeModel(schema, /*full_size=*/false, /*seed=*/9);

  const std::vector<MiniBatch> batches =
      AssembleBatches(dataset, ids, /*batch_size=*/16, /*hot=*/false);
  const FlatDataset gathered = dataset.flat().Gather(ids);
  const std::vector<BatchView> views =
      MakeBatchViews(gathered, /*batch_size=*/16, /*hot=*/false);
  ASSERT_EQ(batches.size(), views.size());

  Sgd legacy_dense(0.1f), flat_dense(0.1f);
  SparseSgd legacy_sparse(0.1f), flat_sparse(0.1f);
  for (size_t b = 0; b < batches.size(); ++b) {
    StepResult sl = legacy->ForwardBackward(batches[b]);
    legacy_dense.Step(legacy->DenseParams());
    for (size_t t = 0; t < sl.table_grads.size(); ++t) {
      if (!sl.table_grads[t].empty()) {
        legacy_sparse.Step(legacy->tables()[t], sl.table_grads[t]);
      }
    }
    StepResult sf = flat->ForwardBackward(views[b]);
    flat_dense.Step(flat->DenseParams());
    for (size_t t = 0; t < sf.table_grads.size(); ++t) {
      if (!sf.table_grads[t].empty()) {
        flat_sparse.Step(flat->tables()[t], sf.table_grads[t]);
      }
    }
    ASSERT_EQ(sl.loss, sf.loss) << "batch " << b;
    ASSERT_EQ(sl.correct, sf.correct) << "batch " << b;
  }
  ExpectSameTables(*legacy, *flat);

  // Eval: views of the legacy MiniBatches must agree with the flat views.
  const EvalResult el = Evaluate(
      *legacy, std::vector<BatchView>(batches.begin(), batches.end()));
  const EvalResult ef = Evaluate(*flat, views);
  EXPECT_EQ(el.loss, ef.loss);
  EXPECT_EQ(el.accuracy, ef.accuracy);
  EXPECT_EQ(el.auc, ef.auc);
}

TEST(FlatEquivalenceTest, DlrmLegacyAndFlatPathsBitExact) {
  RunEquivalence(WorkloadKind::kKaggleDlrm);
}

TEST(FlatEquivalenceTest, TbsmLegacyAndFlatPathsBitExact) {
  RunEquivalence(WorkloadKind::kTaobaoTbsm);
}

/// The fused step (what the trainer actually runs) must match the
/// materialized two-pass step bit for bit on flat views.
TEST(FlatEquivalenceTest, FusedStepMatchesMaterializedOnViews) {
  const DatasetSchema schema =
      MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny);
  const Dataset dataset = SyntheticGenerator(schema, {.seed = 29}).Generate(64);
  const FlatDataset gathered = dataset.flat().Gather(Iota(64));
  const std::vector<BatchView> views =
      MakeBatchViews(gathered, /*batch_size=*/16, /*hot=*/false);

  std::unique_ptr<RecModel> fused =
      MakeModel(schema, /*full_size=*/false, /*seed=*/3);
  std::unique_ptr<RecModel> materialized =
      MakeModel(schema, /*full_size=*/false, /*seed=*/3);

  Sgd dense_a(0.1f), dense_b(0.1f);
  SparseSgd sparse_a(0.1f), sparse_b(0.1f);
  for (const BatchView& view : views) {
    std::vector<EmbeddingTable*> ta, tb;
    for (EmbeddingTable& t : fused->tables()) ta.push_back(&t);
    for (EmbeddingTable& t : materialized->tables()) tb.push_back(&t);

    const SparseApplyFn apply = [&](size_t t, const Tensor& grad_out,
                                    std::span<const uint32_t> indices,
                                    std::span<const uint32_t> offsets) {
      sparse_a.FusedBackwardStep(*ta[t], grad_out, indices, offsets, nullptr);
    };
    StepResult sa = fused->ForwardBackwardFusedOn(view, ta, apply);
    dense_a.Step(fused->DenseParams());
    for (size_t t = 0; t < sa.table_grads.size(); ++t) {
      if (!sa.table_grads[t].empty()) {
        sparse_a.Step(*ta[t], sa.table_grads[t]);
      }
    }

    StepResult sb = materialized->ForwardBackwardOn(view, tb);
    dense_b.Step(materialized->DenseParams());
    for (size_t t = 0; t < sb.table_grads.size(); ++t) {
      if (!sb.table_grads[t].empty()) {
        sparse_b.Step(*tb[t], sb.table_grads[t]);
      }
    }
    ASSERT_EQ(sa.loss, sb.loss);
  }
  ExpectSameTables(*fused, *materialized);
}

/// Crash-safe resume on the sequential workload: a run checkpointed and
/// resumed mid-epoch matches the uninterrupted run exactly (the DLRM
/// variant lives in checkpoint_test.cc; this pins the TBSM item-table
/// scatter path on the flat layout).
TEST(FlatEquivalenceTest, TbsmResumeReproducesRunExactly) {
  const DatasetSchema schema =
      MakeSchema(WorkloadKind::kTaobaoTbsm, DatasetScale::kTiny);
  const Dataset dataset =
      SyntheticGenerator(schema, {.seed = 31}).Generate(600);
  const Dataset::Split split = dataset.MakeSplit(0.2);
  const std::string path = TempPath("fae_tbsm_flat_resume.ckpt");

  TrainOptions opt;
  opt.per_gpu_batch = 32;
  opt.epochs = 2;
  opt.eval_samples = 64;
  opt.eval_batch = 32;
  opt.evals_per_epoch = 3;

  std::unique_ptr<RecModel> uninterrupted =
      MakeModel(schema, /*full_size=*/false, /*seed=*/5);
  Trainer full(uninterrupted.get(), MakePaperServer(1), opt);
  const TrainReport want = full.TrainBaseline(dataset, split);

  TrainOptions save_opt = opt;
  save_opt.checkpoint.path = path;
  save_opt.checkpoint.every_steps = 7;
  std::unique_ptr<RecModel> saver =
      MakeModel(schema, /*full_size=*/false, /*seed=*/5);
  Trainer save_run(saver.get(), MakePaperServer(1), save_opt);
  ASSERT_TRUE(save_run.TrainBaselineResumable(dataset, split).ok());

  TrainOptions resume_opt = opt;
  resume_opt.checkpoint.path = path;
  resume_opt.checkpoint.resume = true;
  std::unique_ptr<RecModel> resumer =
      MakeModel(schema, /*full_size=*/false, /*seed=*/99);  // overwritten
  Trainer resume_run(resumer.get(), MakePaperServer(1), resume_opt);
  StatusOr<TrainReport> got = resume_run.TrainBaselineResumable(dataset, split);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  EXPECT_EQ(got->final_train_loss, want.final_train_loss);
  EXPECT_EQ(got->final_test_loss, want.final_test_loss);
  EXPECT_EQ(got->final_test_auc, want.final_test_auc);
  ExpectSameTables(*uninterrupted, *resumer);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fae
