#include "models/dlrm.h"

#include <algorithm>

#include "tensor/ops.h"
#include "util/logging.h"

namespace fae {

Dlrm::Dlrm(const DatasetSchema& schema, const ModelConfig& config,
           uint64_t seed)
    : schema_(schema),
      config_(config),
      bottom_([&] {
        Xoshiro256 rng(seed);
        return Mlp(config.bottom_mlp, rng, "bottom");
      }()),
      top_([&] {
        Xoshiro256 rng(seed + 1);
        return Mlp(config.top_mlp, rng, "top");
      }()) {
  FAE_CHECK_EQ(config_.bottom_mlp.front(), schema_.num_dense);
  FAE_CHECK_EQ(config_.bottom_mlp.back(), schema_.embedding_dim);
  FAE_CHECK_EQ(config_.top_mlp.front(), DlrmTopInputWidth(schema_));
  FAE_CHECK_EQ(config_.top_mlp.back(), 1u);
  Xoshiro256 rng(seed + 2);
  tables_.reserve(schema_.num_tables());
  for (uint64_t rows : schema_.table_rows) {
    tables_.emplace_back(rows, schema_.embedding_dim, rng);
  }
  // Fixed-shape workspace wiring; the tensors themselves size lazily.
  const size_t f = schema_.num_tables() + 1;
  emb_out_.resize(schema_.num_tables());
  features_.reserve(f);
  concat_blocks_.resize(2);
  split_widths_ = {schema_.embedding_dim, f * (f - 1) / 2};
  split_outs_ = {&g_bottom_direct_, &g_inter_};
  feat_grads_.resize(f);
}

const Tensor& Dlrm::TrainForward(const BatchView& batch,
                                 const std::vector<EmbeddingTable*>& tables) {
  FAE_CHECK_EQ(tables.size(), schema_.num_tables());
  const Tensor& bottom_out = bottom_.Forward(batch.dense);
  for (size_t t = 0; t < tables.size(); ++t) {
    EmbeddingBag::ForwardInto(emb_out_[t], *tables[t], batch.indices(t),
                              batch.offsets(t), pool_);
  }
  features_.clear();
  features_.push_back(&bottom_out);
  for (const Tensor& e : emb_out_) features_.push_back(&e);
  PairwiseDotInteractionInto(inter_, features_, pool_);
  concat_blocks_[0] = &bottom_out;
  concat_blocks_[1] = &inter_;
  ConcatColsInto(top_in_, concat_blocks_);
  return top_.Forward(top_in_);
}

StepResult Dlrm::StepImpl(const BatchView& batch,
                          const std::vector<EmbeddingTable*>& tables,
                          const SparseApplyFn* apply) {
  const Tensor& logits = TrainForward(batch, tables);
  BceWithLogitsInto(bce_, logits, batch.labels);

  // Top MLP backward.
  const Tensor& g_top_in = top_.Backward(bce_.grad_logits);
  const size_t d = schema_.embedding_dim;
  SplitColsInto(split_outs_, g_top_in, split_widths_);

  // Interaction backward. `features_` still points at this step's forward
  // activations (bottom out lives in the bottom MLP's head layer, which
  // the top MLP's backward does not touch).
  PairwiseDotInteractionBackwardInto(feat_grads_, g_inter_, features_,
                                     inter_scratch_, pool_);

  // Bottom MLP backward (direct concat path + interaction path).
  feat_grads_[0].Add(g_bottom_direct_);
  bottom_.Backward(feat_grads_[0]);

  // Embedding gradients: either materialize per-table SparseGrads or hand
  // each table's output gradient straight to the fused scatter+optimizer.
  StepResult result;
  result.loss = bce_.mean_loss;
  result.correct = bce_.correct;
  result.batch_size = batch.batch_size();
  if (apply != nullptr) {
    for (size_t t = 0; t < schema_.num_tables(); ++t) {
      (*apply)(t, feat_grads_[t + 1], batch.indices(t), batch.offsets(t));
    }
  } else {
    result.table_grads.reserve(schema_.num_tables());
    for (size_t t = 0; t < schema_.num_tables(); ++t) {
      result.table_grads.push_back(EmbeddingBag::Backward(
          feat_grads_[t + 1], batch.indices(t), batch.offsets(t), d, pool_));
    }
  }
  return result;
}

StepResult Dlrm::ForwardBackwardOn(
    const BatchView& batch, const std::vector<EmbeddingTable*>& tables) {
  return StepImpl(batch, tables, /*apply=*/nullptr);
}

StepResult Dlrm::ForwardBackwardFusedOn(
    const BatchView& batch, const std::vector<EmbeddingTable*>& tables,
    const SparseApplyFn& apply) {
  return StepImpl(batch, tables, &apply);
}

Tensor Dlrm::EvalLogits(const BatchView& batch) const {
  FAE_CHECK_EQ(schema_.num_tables(), tables_.size());
  Tensor bottom_out = bottom_.ForwardInference(batch.dense);
  std::vector<Tensor> emb_out;
  emb_out.reserve(tables_.size());
  for (size_t t = 0; t < tables_.size(); ++t) {
    emb_out.push_back(EmbeddingBag::Forward(tables_[t], batch.indices(t),
                                            batch.offsets(t), pool_));
  }
  std::vector<const Tensor*> features;
  features.reserve(1 + emb_out.size());
  features.push_back(&bottom_out);
  for (const Tensor& e : emb_out) features.push_back(&e);
  Tensor inter = PairwiseDotInteraction(features, pool_);
  Tensor top_in = ConcatCols({&bottom_out, &inter});
  return top_.ForwardInference(top_in);
}

std::vector<Parameter*> Dlrm::DenseParams() {
  std::vector<Parameter*> params = bottom_.Params();
  for (Parameter* p : top_.Params()) params.push_back(p);
  return params;
}

BatchWork Dlrm::Work(const BatchView& batch) const {
  BatchWork w;
  const size_t b = batch.batch_size();
  w.batch_size = b;
  const size_t d = schema_.embedding_dim;
  const size_t f = schema_.num_tables() + 1;
  w.forward_flops = bottom_.ForwardFlops(b) + top_.ForwardFlops(b) +
                    2ULL * b * (f * (f - 1) / 2) * d;  // interaction dots
  w.embedding_read_bytes = batch.TotalLookups() * d * sizeof(float);
  w.embedding_activation_bytes =
      static_cast<uint64_t>(b) * schema_.num_tables() * d * sizeof(float);
  w.dense_param_count = bottom_.NumParams() + top_.NumParams();
  for (size_t t = 0; t < schema_.num_tables(); ++t) {
    const std::span<const uint32_t> idx = batch.indices(t);
    // Sort-based distinct count into reusable scratch (setup-time path,
    // but no reason to pay an unordered_set's node churn).
    work_scratch_.assign(idx.begin(), idx.end());
    std::sort(work_scratch_.begin(), work_scratch_.end());
    const size_t distinct = static_cast<size_t>(
        std::unique(work_scratch_.begin(), work_scratch_.end()) -
        work_scratch_.begin());
    w.touched_rows += distinct;
    w.per_table_lookups.push_back(idx.size());
    w.per_table_touched.push_back(distinct);
  }
  w.touched_bytes = w.touched_rows * d * sizeof(float);
  return w;
}

}  // namespace fae
