#ifndef FAE_MODELS_DLRM_H_
#define FAE_MODELS_DLRM_H_

#include <cstdint>
#include <vector>

#include "models/model_config.h"
#include "models/rec_model.h"
#include "tensor/loss.h"
#include "tensor/mlp.h"

namespace fae {

/// Deep Learning Recommendation Model (Naumov et al., the paper's RMC2 and
/// RMC3): bottom MLP over dense features, one sum-pooled embedding bag per
/// categorical table, pairwise-dot feature interaction, top MLP to a
/// click-probability logit.
///
/// Training steps run entirely in member workspaces (activations,
/// interaction buffers, gradients) sized on the first step and reused —
/// the fused path performs zero heap allocations at steady state.
class Dlrm : public RecModel {
 public:
  Dlrm(const DatasetSchema& schema, const ModelConfig& config, uint64_t seed);

  StepResult ForwardBackwardOn(
      const BatchView& batch,
      const std::vector<EmbeddingTable*>& tables) override;

  StepResult ForwardBackwardFusedOn(
      const BatchView& batch, const std::vector<EmbeddingTable*>& tables,
      const SparseApplyFn& apply) override;

  void SetThreadPool(ThreadPool* pool) override {
    pool_ = pool;
    bottom_.set_thread_pool(pool);
    top_.set_thread_pool(pool);
  }

  Tensor EvalLogits(const BatchView& batch) const override;

  std::vector<Parameter*> DenseParams() override;
  std::vector<EmbeddingTable>& tables() override { return tables_; }
  const std::vector<EmbeddingTable>& tables() const override {
    return tables_;
  }
  size_t embedding_dim() const override { return schema_.embedding_dim; }
  BatchWork Work(const BatchView& batch) const override;

 private:
  /// Training forward into the member workspaces; returns the top MLP's
  /// logit workspace.
  const Tensor& TrainForward(const BatchView& batch,
                             const std::vector<EmbeddingTable*>& tables);

  // Shared forward+backward; when `apply` is non-null every table's output
  // gradient is handed to it instead of materialized in the result.
  StepResult StepImpl(const BatchView& batch,
                      const std::vector<EmbeddingTable*>& tables,
                      const SparseApplyFn* apply);

  DatasetSchema schema_;
  ModelConfig config_;
  Mlp bottom_;
  Mlp top_;
  std::vector<EmbeddingTable> tables_;
  ThreadPool* pool_ = nullptr;  // not owned

  // Step workspaces, reused across batches (capacity sticks at the largest
  // batch seen). `features_` holds {bottom out, emb_out_...} pointers for
  // the interaction kernels; its pointees live for the whole step.
  std::vector<Tensor> emb_out_;
  std::vector<const Tensor*> features_;
  std::vector<const Tensor*> concat_blocks_;
  Tensor inter_;
  Tensor top_in_;
  BceResult bce_;
  Tensor g_bottom_direct_;
  Tensor g_inter_;
  std::vector<Tensor*> split_outs_;
  std::vector<size_t> split_widths_;
  std::vector<Tensor> feat_grads_;
  Tensor inter_scratch_;  // interaction backward's per-sample GEMM operands
  mutable std::vector<uint32_t> work_scratch_;  // Work() distinct counting
};

}  // namespace fae

#endif  // FAE_MODELS_DLRM_H_
