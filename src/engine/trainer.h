#ifndef FAE_ENGINE_TRAINER_H_
#define FAE_ENGINE_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/fae_config.h"
#include "core/fae_pipeline.h"
#include "data/batch_view.h"
#include "data/dataset.h"
#include "engine/checkpoint.h"
#include "engine/lookahead_cache.h"
#include "engine/metrics.h"
#include "engine/staleness_tracker.h"
#include "engine/step_accountant.h"
#include "engine/step_executor.h"
#include "models/rec_model.h"
#include "sim/cost_model.h"
#include "sim/fault_injector.h"
#include "util/statusor.h"

namespace fae {

/// Execution placements compared in the paper's evaluation, plus the two
/// alternatives its related-work section argues against (model-parallel
/// embedding sharding and transparent GPU caching).
enum class TrainMode { kBaseline, kFae, kNvOpt, kModelParallel, kGpuCache };

std::string_view TrainModeName(TrainMode mode);

/// How FAE keeps the CPU master and the GPU replicas coherent at hot/cold
/// transitions.
enum class SyncStrategy {
  /// Ship the whole hot slice each way (the paper's scheme; its Fig 14
  /// "embedding sync" overhead grows with the hot-slice size).
  kFull,
  /// Ship only rows actually updated since the last sync (dirty tracking
  /// is index-based, so it works in cost-only mode too). Numerically
  /// identical to kFull; see bench/abl_sync_strategy.cc.
  kDirty,
};

struct TrainOptions {
  /// Per-GPU mini-batch; the global batch is this times num_gpus (the
  /// paper's weak scaling, §IV-B2).
  size_t per_gpu_batch = 1024;
  size_t epochs = 1;
  float dense_lr = 0.1f;
  float sparse_lr = 0.1f;
  /// When false, the trainer only runs the hardware cost model (no
  /// numerics) — used by the performance sweeps, where accuracy is not
  /// measured and batch order cannot affect the modeled time. The FAE
  /// scheduler then keeps its initial rate (no test-loss feedback).
  bool run_math = true;
  /// Test samples evaluated per curve point (capped).
  size_t eval_samples = 2048;
  size_t eval_batch = 512;
  /// Baseline evaluation cadence; FAE evaluates at every schedule chunk
  /// boundary, which is also where Eq 7 reads the test loss.
  size_t evals_per_epoch = 10;
  /// Hot-slice coherence scheme (FAE only).
  SyncStrategy sync_strategy = SyncStrategy::kFull;
  /// Emulate fp16 embedding *storage* (the NvOPT representation): after
  /// every sparse update, touched rows are rounded through binary16, so
  /// the tables never hold more precision than fp16 would. Gradients and
  /// the optimizer stay fp32 (standard mixed precision). Lets the paper's
  /// §V "requires accuracy revalidation" claim be tested directly
  /// (bench/abl_mixed_precision.cc).
  bool fp16_embeddings = false;
  uint64_t seed = 7;
  /// Crash-safe checkpoint/resume (engine/checkpoint.h). Applies to every
  /// placement.
  CheckpointOptions checkpoint;
  /// Optional fault-injection schedule (sim/fault_injector.h); not owned,
  /// must outlive the trainer. Faults scheduled for step k fire before the
  /// (k+1)-th training batch.
  FaultInjector* fault_injector = nullptr;
  /// When the plan's hot slice exceeds the per-GPU budget, demote overflow
  /// entries and fall back toward the cold path (with a logged warning)
  /// instead of failing with ResourceExhausted. See DegradePlanToBudget.
  bool degrade_on_overflow = true;
  /// Worker threads for the compute kernels (GEMM, embedding bag, sparse
  /// optimizer). All kernels partition work write-disjointly and keep
  /// per-element summation order fixed, so results are bit-identical at
  /// any thread count — which is why this field is deliberately excluded
  /// from OptionsFingerprint (a resume may change it freely).
  size_t num_threads = 1;
  /// Pipelined execution (see PipelineMode). Like num_threads, excluded
  /// from OptionsFingerprint: results, phase charges, and checkpoint bytes
  /// are identical in every mode, so a resume may switch modes freely.
  PipelineMode pipeline = PipelineMode::kOff;
  /// Staging-ring depth for kPrefetch/kOverlap (>= 1). Depth 1 keeps the
  /// background producer but allows no lookahead (no prep is hidden);
  /// depth 2 is classic double buffering. Also fingerprint-exempt.
  size_t pipeline_depth = 2;
  /// Lookahead oracle embedding cache fused into the batch pipeline
  /// (engine/lookahead_cache.h). Requires pipeline != kOff: the oracle
  /// window is the staging pipeline's forward visibility into upcoming
  /// batches. Pure cost-model overlay — losses, tables, and checkpoint
  /// bytes are bit-identical cache on/off, so all three knobs are
  /// fingerprint-exempt like the pipeline's.
  CacheMode cache = CacheMode::kOff;
  /// Hard cache capacity in embedding rows (>= 1), across all tables.
  size_t cache_budget_rows = 4096;
  /// Oracle window depth in batches; bounds shared with the staging ring
  /// (engine/ring_limits.h). 1 = no lead time (every first fetch is late).
  size_t cache_lookahead = 8;
  /// Storage precision of cold master rows (FAE only; see
  /// embedding/cold_precision.h). Narrower than fp32 shrinks the cold
  /// store's RSS, prices cold-row reads at the quantized width, and — via
  /// FaeConfig::cold_precision in the calibrator — stretches the effective
  /// hot budget by the reclaimed bytes. Hot rows, staged cold rows, and
  /// all optimizer math stay fp32, so the hot path is bit-identical across
  /// modes. Mutually exclusive with fp16_embeddings and the oracle cache
  /// (their budget accounting assumes fp32 cold rows).
  ColdPrecision cold_precision = ColdPrecision::kFp32;
  /// Stale-embedding update skipping (engine/staleness_tracker.h,
  /// ROADMAP item 1 / arXiv 2404.04270): rows whose relative-update EMA
  /// settles below stale_threshold freeze — their scatter + optimizer
  /// visit is elided and the skipped CPU work credited as a cost-overlay
  /// saving, with an Eq-7-style guard adapting the threshold to the loss
  /// trend. kCold freezes only cold rows (requires the FAE placement —
  /// the baseline has no hot set); kAll may freeze any row. Requires
  /// run_math (skip decisions read real update magnitudes) and the fused
  /// fp32 path (mutually exclusive with fp16_embeddings). Like the cache
  /// knobs, the real timeline's charges never change with the knob and
  /// tracker state travels inside the checkpoint, so all three fields are
  /// fingerprint-exempt: a resume may switch modes, and same-mode resume
  /// is bit-exact.
  StaleSkipMode stale_skip = StaleSkipMode::kOff;
  /// EMA freeze threshold (>= 0). 0 never skips — the guard only scales
  /// the threshold, so a zero stays zero and the run is bit-identical to
  /// stale_skip=off.
  double stale_threshold = 0.0;
  /// Measured updates a row needs before it may freeze (>= 1).
  size_t stale_min_visits = 8;
};

/// Everything a training run reports: the modeled timeline, the measured
/// learning curve, and the FAE-specific counters.
struct TrainReport {
  TrainMode mode = TrainMode::kBaseline;
  Timeline timeline;
  std::vector<CurvePoint> curve;
  double final_train_loss = 0.0;
  double final_train_acc = 0.0;
  double final_test_loss = 0.0;
  double final_test_acc = 0.0;
  double final_test_auc = 0.0;
  /// Modeled wall-clock (timeline total minus pipelined-overlap savings).
  double modeled_seconds = 0.0;
  /// Mini-batch staging time charged to Phase::kInputPrep (identical in
  /// every pipeline mode; pipelined modes hide part of it).
  double prep_seconds = 0.0;
  /// Seconds hidden by pipelined overlap (Timeline overlap accounting) and
  /// the fraction of the serial wall they represent. Zero when
  /// pipeline == kOff. Not checkpointed (see Timeline::State): a resumed
  /// run only counts overlap saved since the restore point, so its
  /// modeled_seconds is higher than the uninterrupted run's.
  double overlap_saved_seconds = 0.0;
  double overlap_fraction = 0.0;
  /// Lookahead-oracle-cache results (TrainOptions::cache; all zero when
  /// off). Net seconds the cache removed from the modeled wall — may be
  /// negative for a pathological budget (writeback-dominated). Like the
  /// overlap savings, none of this is checkpointed.
  double cache_saved_seconds = 0.0;
  double cache_hit_rate = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_stale_refreshes = 0;
  uint64_t cache_prefetch_bytes = 0;
  uint64_t cache_writeback_bytes = 0;
  /// Cold-step CPU<->GPU transfer, plain vs effective under the cache
  /// (the bench's transfer-reduction gate).
  uint64_t cache_plain_transfer_bytes = 0;
  uint64_t cache_effective_transfer_bytes = 0;
  double avg_gpu_watts = 0.0;
  size_t num_batches = 0;

  // FAE-only:
  size_t hot_batches = 0;
  size_t cold_batches = 0;
  double hot_fraction = 0.0;
  uint64_t hot_bytes = 0;
  size_t transitions = 0;
  double final_rate = 0.0;
  double threshold = 0.0;
  double preprocess_seconds = 0.0;
  /// Total hot-slice payload shipped over PCIe for coherence (per
  /// direction-event, not multiplied by GPU count).
  uint64_t sync_bytes = 0;
  /// Quantized cold-row storage (TrainOptions::cold_precision; all zero at
  /// fp32 and in cost-only runs, where the masters hold no numerics).
  uint64_t cold_rows = 0;
  /// Bytes the compressed cold store occupies (codes + scale/zero-point).
  uint64_t cold_store_bytes = 0;
  /// fp32 bytes the cold store gave back — the calibrator's budget credit.
  uint64_t cold_reclaimed_bytes = 0;
  /// Budget the hot slice was admitted against: hot_embedding_budget plus
  /// the realized plan's reclaimed bytes (equals the plain budget at fp32).
  uint64_t effective_hot_budget = 0;
  /// Stale-update skipping (TrainOptions::stale_skip; all zero when off).
  /// Net seconds the elided scatter/optimizer work removed from the
  /// modeled wall. Like the overlap/cache savings, not checkpointed — a
  /// resumed run counts savings from the restore point.
  double stale_skip_saved_seconds = 0.0;
  uint64_t stale_skipped_rows = 0;
  uint64_t stale_updated_rows = 0;
  uint64_t stale_reactivated_rows = 0;
  /// Guard state at the end of the run (threshold after adaptation).
  double stale_final_threshold = 0.0;
  uint64_t stale_guard_tightens = 0;
  uint64_t stale_guard_widens = 0;

  // Robustness (graceful degradation, fault injection, resume):
  /// The hot slice was demoted to fit the budget (see DegradePlanToBudget).
  bool degraded = false;
  uint64_t demoted_rows = 0;
  uint64_t fallback_inputs = 0;
  /// An injected crash stopped the run early; the report is partial and
  /// recovery is resuming from the last periodic checkpoint.
  bool interrupted = false;
  bool resumed = false;
  uint64_t resumed_at = 0;  // iteration the run resumed from
  FaultStats faults;
};

/// Checks `options` for a run in `mode` on `system` before any work starts:
/// per-knob ranges plus every pair of modes that does not compose (DESIGN.md
/// §11). A refusal is InvalidArgument naming both conflicting flags. The
/// trainer's entry points call it; the CLI calls it before loading data.
Status ValidateTrainOptions(TrainMode mode, const TrainOptions& options,
                            const SystemSpec& system);

/// Drives training of a RecModel in one of the five placements: FAE on its
/// hot/cold schedule, the rest on one shuffled-order driver. Math is
/// executed for real (accuracy results are measured); time and energy are
/// charged to the SystemSpec through the StepAccountant.
class Trainer {
 public:
  Trainer(RecModel* model, SystemSpec system, TrainOptions options);

  /// Hybrid CPU-GPU baseline (paper Fig 3). Crashes on checkpoint or
  /// fault-handling errors; callers that need those surfaced as Status use
  /// TrainBaselineResumable.
  TrainReport TrainBaseline(const Dataset& dataset,
                            const Dataset::Split& split);

  /// TrainBaseline with Status-based error reporting, honoring
  /// options.checkpoint (resume produces a loss curve identical to an
  /// uninterrupted run) and options.fault_injector.
  StatusOr<TrainReport> TrainBaselineResumable(const Dataset& dataset,
                                               const Dataset::Split& split);

  /// A shuffled-order placement: the baseline or one of its comparators.
  /// All share the baseline's batch order, math, input prep, eval curve,
  /// checkpoint/resume and fault handling; only the step charge differs:
  ///   - kNvOpt: fp16 embeddings on GPU where they fit (paper §V);
  ///   - kModelParallel: tables sharded across GPUs, all-to-all per batch.
  ///     ResourceExhausted when the fullest GPU's shard (plus headroom)
  ///     exceeds GPU memory — the capacity argument the paper opens with;
  ///   - kGpuCache: a transparent per-GPU cache holding `hot_set`'s hot
  ///     rows (FAE's hot slice, same budget), but batches are not
  ///     reorganized, so misses stall each batch on the CPU.
  /// `hot_set` is required for kGpuCache and ignored otherwise. kFae runs
  /// through TrainFae/TrainFaeWithPlan and is refused here.
  StatusOr<TrainReport> Train(TrainMode mode, const Dataset& dataset,
                              const Dataset::Split& split,
                              const FaePlan* hot_set = nullptr);

  /// FAE: runs the static pipeline then the hot/cold schedule.
  StatusOr<TrainReport> TrainFae(const Dataset& dataset,
                                 const Dataset::Split& split,
                                 const FaeConfig& config);

  /// FAE with a pre-computed plan (lets benchmarks reuse preprocessing).
  StatusOr<TrainReport> TrainFaeWithPlan(const Dataset& dataset,
                                         const Dataset::Split& split,
                                         const FaeConfig& config,
                                         const FaePlan& plan);

  size_t GlobalBatchSize() const {
    return options_.per_gpu_batch *
           static_cast<size_t>(std::max(1, system_.WorldSize()));
  }

 private:
  /// Hash of every TrainOptions field that affects the run's numerics or
  /// timeline, stored in checkpoints so a resume with different options is
  /// rejected instead of silently diverging.
  uint64_t OptionsFingerprint() const;
  /// The shuffled-order driver behind Train, for validated options.
  StatusOr<TrainReport> TrainShuffled(TrainMode mode, const Dataset& dataset,
                                      const Dataset::Split& split,
                                      const FaePlan* hot_set);
  /// Delivers the faults scheduled for `iteration`. Returns true when a
  /// crash fired (the caller must stop and return a partial report), an
  /// error Status when a device fault outlived the retry budget.
  /// `on_corrupt_sync` recovers from a corrupted hot-slice sync (empty in
  /// modes without GPU replicas).
  StatusOr<bool> DrainFaults(
      uint64_t iteration, TrainReport& report,
      const std::function<void(uint64_t)>& on_corrupt_sync);
  /// The shared execution core (engine/step_executor.h) owns the math:
  /// optimizers, thread pool, fused apply, eval/batch staging. The Trainer
  /// keeps only the sequencing, cost accounting, and robustness logic.
  using EvalSet = StepExecutor::EvalSet;
  using TrainBatch = StepExecutor::TrainBatch;
  /// Fills the report's derived fields from its timeline; `staleness`
  /// (when stale-skip ran) contributes the accuracy guard's counters.
  void FinishReport(TrainReport& report,
                    const std::vector<BatchView>& eval_batches,
                    RunningMetric& metric,
                    const StalenessTracker* staleness = nullptr) const;

  RecModel* model_;
  SystemSpec system_;
  CostModel cost_;
  StepAccountant accountant_;
  TrainOptions options_;
  StepExecutor exec_;
};

}  // namespace fae

#endif  // FAE_ENGINE_TRAINER_H_
