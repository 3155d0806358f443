#ifndef FAE_ENGINE_STEP_EXECUTOR_H_
#define FAE_ENGINE_STEP_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/batch_view.h"
#include "data/dataset.h"
#include "embedding/sparse_sgd.h"
#include "engine/metrics.h"
#include "models/rec_model.h"
#include "sim/timeline.h"
#include "tensor/sgd.h"
#include "util/thread_pool.h"

namespace fae {

class StalenessTracker;

/// Pipelined execution for the baseline and FAE drivers (comparator
/// placements ignore it). Every mode runs the identical math in the
/// identical order — pipelining changes only how input staging and device
/// phases are scheduled (and modeled), never what is computed, so results
/// are bit-exact across modes (tests/engine/pipeline_determinism_test.cc).
enum class PipelineMode {
  /// Fully serial: stage a batch, then step on it.
  kOff,
  /// Double-buffered staging (engine/batch_pipeline.h): a background
  /// thread gathers/packs batch b+1 while batch b trains, hiding input
  /// prep under compute. Prefetch never crosses an epoch or schedule-chunk
  /// boundary (the pipeline's explicit sync points).
  kPrefetch,
  /// kPrefetch plus overlapped phases: the hybrid step's CPU and GPU lanes
  /// run concurrently, and FAE's cold-CPU chunks overlap the subsequent
  /// hot-GPU chunk (including the hot-slice DMA syncs).
  kOverlap,
};

std::string_view PipelineModeName(PipelineMode mode);

/// Input payload of one mini-batch — dense features, labels, CSR offsets
/// and lookup indices: what the staging gather streams into a workspace.
/// Derived from the batch's shape only, so a zero-copy view and its staged
/// copy yield the same value and every pipeline mode charges the same prep
/// time.
uint64_t BatchInputBytes(const BatchView& v);

/// The credit ledger's front end, shared by the serial and pipelined
/// drivers (DESIGN.md §11, §13). Phase charges are identical in every
/// mode; modes differ only in the seconds credited back through
/// Timeline::AddCredit.
///
/// Overlap (Credit::kOverlap), per step:
///   - kPrefetch (depth >= 2): batch b's staging gather runs on the
///     prefetch thread while step b-1 computes, so up to the previous
///     step's unhidden seconds of b's prep are hidden;
///   - kOverlap: additionally the hybrid step's CPU and GPU lanes overlap,
///     hiding min(cpu, gpu) per step.
/// Prefetch cannot reach across a segment boundary (epoch / schedule
/// chunk): the first batch of a segment pays its prep in full.
class OverlapTracker {
 public:
  OverlapTracker(PipelineMode mode, size_t depth, Timeline* tl)
      : mode_(mode), depth_(depth), tl_(tl) {}

  /// Starts a segment (an epoch, or one FAE schedule chunk): prefetch
  /// restarts and the chunk window opens at zero.
  void BeginSegment();

  /// One training step: `prep` staging seconds, `total` compute seconds
  /// charged, `overlapped` the step's wall with its CPU/GPU lanes
  /// overlapped (== `total` for single-lane steps).
  void OnStep(double prep, double total, double overlapped);

  /// An overlay (cache, stale-skip) credits `plain - variant`
  /// seconds to `credit`: `plain` is what the real timeline charged,
  /// `variant` the same event under the overlay. Positive credit also
  /// fills the segment's window.
  void CreditOverlay(Credit credit, double plain, double variant);

  /// Seconds charged since BeginSegment that nothing has hidden yet: the
  /// phase delta minus the overlap credited since, minus the window — so
  /// no second is credited twice. With kOverlap, FAE pairs a cold chunk's
  /// unhidden CPU seconds with the next hot chunk's unhidden GPU+DMA ones.
  double ChunkUnhiddenSeconds() const;

  PipelineMode mode() const { return mode_; }
  Timeline& timeline() const { return *tl_; }

 private:
  PipelineMode mode_;
  size_t depth_;
  Timeline* tl_;
  bool has_prev_ = false;
  double prev_unhidden_ = 0.0;
  double chunk_phase0_ = 0.0;
  double chunk_overlap0_ = 0.0;
  double chunk_window_ = 0.0;
};

/// The reusable execution core shared by the batch Trainer and the online
/// ServingLoop: it owns the optimizers, the kernel thread pool, the
/// prebuilt fused-apply functor, and the eval/batch-staging helpers, so a
/// driver only sequences *which* batches step against *which* tables.
/// Everything here preserves the batch trainer's numeric contract: the
/// fused path runs zero heap allocations at steady state and is
/// bit-identical at any thread count.
class StepExecutor {
 public:
  /// The subset of TrainOptions the execution core needs; both TrainOptions
  /// and ServeOptions can produce one.
  struct Options {
    float dense_lr = 0.1f;
    float sparse_lr = 0.1f;
    /// When false, drivers only run the hardware cost model; MathStep is
    /// never called, but eval-set construction is also skipped.
    bool run_math = true;
    /// Emulate fp16 embedding storage (see TrainOptions::fp16_embeddings).
    bool fp16_embeddings = false;
    size_t num_threads = 1;
    size_t eval_samples = 2048;
    size_t eval_batch = 512;
  };

  /// Held-out eval data gathered once into a flat buffer; `views` are
  /// zero-copy batches into `flat` (so the struct must stay alive while
  /// they are in use; moves are safe — views point at heap buffers).
  struct EvalSet {
    FlatDataset flat;
    std::vector<BatchView> views;
  };

  /// A training batch with its cost-model work units, computed once —
  /// Work() is pure per batch, so the per-epoch loops only shuffle and
  /// charge, never re-derive.
  struct TrainBatch {
    BatchView view;
    BatchWork work;
  };

  StepExecutor(RecModel* model, const Options& options);

  /// Quantizes every table through binary16 when fp16 storage is emulated
  /// (no-op otherwise); drivers call it once before their first step.
  void MaybeQuantizeTables();

  /// One training step into the model's workspaces. The fused (non-fp16)
  /// path performs zero heap allocations once warmed up: the apply functor
  /// is a prebuilt member (single-pointer capture, so std::function's SBO
  /// holds it), dense params are gathered once, and scatter + optimizer
  /// run in SparseSgd's reusable scratch.
  /// With a tracker, each table's fused apply consults it per row
  /// (stale-update skipping; engine/staleness_tracker.h). Only the drivers
  /// that own a tracker pass one — the FAE hot replicas and the
  /// ServingLoop never do, so their steps are untouched.
  void MathStep(const BatchView& batch,
                const std::vector<EmbeddingTable*>& tables,
                RunningMetric& metric, RunningMetric& window,
                StalenessTracker* tracker = nullptr);

  EvalSet MakeEvalSet(const Dataset& dataset,
                      const Dataset::Split& split) const;

  std::vector<TrainBatch> MakeTrainBatches(const FlatDataset& flat,
                                           size_t batch_size, bool hot) const;

  RecModel* model() const { return model_; }
  ThreadPool* pool() const { return pool_.get(); }
  const Options& options() const { return options_; }

 private:
  /// Context behind the prebuilt fused-apply functor: MathStep repoints
  /// `tables` and `tracker` per call (master vs. replica), nothing is
  /// reallocated.
  struct ApplyCtx {
    SparseSgd* sgd = nullptr;
    const std::vector<EmbeddingTable*>* tables = nullptr;
    ThreadPool* pool = nullptr;
    StalenessTracker* tracker = nullptr;
  };

  RecModel* model_;
  Options options_;
  Sgd dense_sgd_;
  SparseSgd sparse_sgd_;
  /// Kernel worker pool, shared with the model; null when num_threads <= 1.
  std::unique_ptr<ThreadPool> pool_;
  ApplyCtx apply_ctx_;
  SparseApplyFn fused_apply_;
  /// model_->DenseParams(), gathered on the first MathStep.
  std::vector<Parameter*> dense_params_;
};

}  // namespace fae

#endif  // FAE_ENGINE_STEP_EXECUTOR_H_
