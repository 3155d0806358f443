#include "engine/step_executor.h"

#include <algorithm>

#include "engine/staleness_tracker.h"
#include "util/half.h"
#include "util/logging.h"

namespace fae {

std::string_view PipelineModeName(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kOff:
      return "off";
    case PipelineMode::kPrefetch:
      return "prefetch";
    case PipelineMode::kOverlap:
      return "overlap";
  }
  return "unknown";
}

uint64_t BatchInputBytes(const BatchView& v) {
  uint64_t elems = static_cast<uint64_t>(v.dense.rows) * v.dense.cols  //
                   + v.batch_size()      // labels
                   + v.TotalLookups();   // lookup indices
  for (size_t t = 0; t < v.num_tables(); ++t) {
    elems += v.offsets(t).size();  // CSR offsets
  }
  return elems * 4;  // every stream is 4-byte elements
}

void OverlapTracker::BeginSegment() {
  has_prev_ = false;
  chunk_phase0_ = tl_->PhaseSumSeconds();
  chunk_overlap0_ = tl_->credit(Credit::kOverlap);
  chunk_window_ = 0.0;
}

void OverlapTracker::OnStep(double prep, double total, double overlapped) {
  if (mode_ == PipelineMode::kOff) return;
  double saved = 0.0;
  double unhidden = total;
  if (mode_ == PipelineMode::kOverlap) {
    saved += total - overlapped;
    unhidden = overlapped;
  }
  if (depth_ >= 2 && has_prev_) {
    saved += std::min(prep, prev_unhidden_);
  }
  prev_unhidden_ = unhidden;
  has_prev_ = true;
  if (saved > 0.0) tl_->AddCredit(Credit::kOverlap, saved);
}

void OverlapTracker::CreditOverlay(Credit credit, double plain,
                                   double variant) {
  const double saved = plain - variant;
  tl_->AddCredit(credit, saved);
  if (saved > 0.0) chunk_window_ += saved;
}

double OverlapTracker::ChunkUnhiddenSeconds() const {
  return (tl_->PhaseSumSeconds() - chunk_phase0_) -
         (tl_->credit(Credit::kOverlap) - chunk_overlap0_) - chunk_window_;
}

StepExecutor::StepExecutor(RecModel* model, const Options& options)
    : model_(model),
      options_(options),
      dense_sgd_(options.dense_lr),
      sparse_sgd_(options.sparse_lr) {
  FAE_CHECK(model != nullptr);
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    model_->SetThreadPool(pool_.get());
  }
  // The fused-apply functor is built once with a single-pointer capture, so
  // std::function's small-buffer optimization holds it — the training loop
  // never allocates a closure. MathStep repoints ctx->tables per call.
  apply_ctx_.sgd = &sparse_sgd_;
  apply_ctx_.pool = pool_.get();
  fused_apply_ = [ctx = &apply_ctx_](size_t t, const Tensor& grad_out,
                                     std::span<const uint32_t> indices,
                                     std::span<const uint32_t> offsets) {
    ctx->sgd->FusedBackwardStep(
        *(*ctx->tables)[t], grad_out, indices, offsets, ctx->pool,
        ctx->tracker != nullptr ? ctx->tracker->filter(t) : nullptr);
  };
}

void StepExecutor::MaybeQuantizeTables() {
  if (!options_.fp16_embeddings || !options_.run_math) return;
  // fp16 storage holds the *initialization* at half precision too, not
  // just the updates.
  for (EmbeddingTable& table : model_->tables()) {
    for (float& v : table.raw()) v = QuantizeToHalf(v);
  }
}

void StepExecutor::MathStep(const BatchView& batch,
                            const std::vector<EmbeddingTable*>& tables,
                            RunningMetric& metric, RunningMetric& window,
                            StalenessTracker* tracker) {
  ThreadPool* pool = pool_.get();
  if (dense_params_.empty()) dense_params_ = model_->DenseParams();
  if (tracker != nullptr) tracker->BeginStep();
  if (!options_.fp16_embeddings) {
    // Fast path: each table's backward scatter and optimizer update run as
    // one fused pass over the batch's lookup list — the SparseGrad is
    // never materialized. Bit-identical to the materialized path (same
    // per-row accumulation order, same update arithmetic). Everything here
    // runs in reused buffers: the model's workspaces, the optimizer's
    // scratch, the prebuilt apply functor — zero heap allocations at
    // steady state.
    apply_ctx_.tables = &tables;
    apply_ctx_.tracker = tracker;
    StepResult step =
        model_->ForwardBackwardFusedOn(batch, tables, fused_apply_);
    dense_sgd_.Step(dense_params_);
    // Gradients a model chose not to fuse (base-class fallback) still take
    // the materialized optimizer step.
    for (size_t t = 0; t < step.table_grads.size(); ++t) {
      if (step.table_grads[t].empty()) continue;
      sparse_sgd_.Step(*tables[t], step.table_grads[t], pool);
    }
    metric.Observe(step.loss, step.correct, step.batch_size);
    window.Observe(step.loss, step.correct, step.batch_size);
    return;
  }
  // fp16 storage needs the materialized gradient: its touched-row list
  // tells us which rows to round back through binary16.
  StepResult step = model_->ForwardBackwardOn(batch, tables);
  dense_sgd_.Step(dense_params_);
  for (size_t t = 0; t < step.table_grads.size(); ++t) {
    const SparseGrad& grad = step.table_grads[t];
    if (grad.empty()) continue;
    sparse_sgd_.Step(*tables[t], grad, pool);
    // fp16 storage: the updated rows lose everything binary16 cannot
    // represent.
    for (size_t s = 0; s < grad.num_rows(); ++s) {
      float* row = tables[t]->row(grad.row_id(s));
      for (size_t k = 0; k < grad.dim; ++k) {
        row[k] = QuantizeToHalf(row[k]);
      }
    }
  }
  metric.Observe(step.loss, step.correct, step.batch_size);
  window.Observe(step.loss, step.correct, step.batch_size);
}

StepExecutor::EvalSet StepExecutor::MakeEvalSet(
    const Dataset& dataset, const Dataset::Split& split) const {
  EvalSet set;
  std::vector<uint64_t> ids = split.test;
  if (ids.size() > options_.eval_samples) ids.resize(options_.eval_samples);
  // One gather, then every eval pass streams the flat copy zero-copy.
  set.flat = dataset.flat().Gather(ids);
  set.views = MakeBatchViews(set.flat, options_.eval_batch, /*hot=*/false);
  return set;
}

std::vector<StepExecutor::TrainBatch> StepExecutor::MakeTrainBatches(
    const FlatDataset& flat, size_t batch_size, bool hot) const {
  std::vector<BatchView> views = MakeBatchViews(flat, batch_size, hot);
  std::vector<TrainBatch> out;
  out.reserve(views.size());
  for (BatchView& v : views) {
    BatchWork work = model_->Work(v);
    out.push_back(TrainBatch{std::move(v), std::move(work)});
  }
  return out;
}

}  // namespace fae
