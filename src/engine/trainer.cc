#include "engine/trainer.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <functional>

#include "core/embedding_replicator.h"
#include "core/fae_format.h"
#include "engine/batch_pipeline.h"
#include "core/input_processor.h"
#include "core/shuffle_scheduler.h"
#include "engine/dirty_rows.h"
#include "engine/ring_limits.h"
#include "sim/partition.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace fae {
namespace {

/// Bounded retry policy for transient device faults: exponential backoff
/// starting at 1 ms; a fault outliving the budget is a permanent device
/// loss and fails the run.
constexpr uint32_t kMaxFaultRetries = 5;
constexpr double kRetryBackoffSeconds = 0.001;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Builds the execution-core options from the trainer's richer set.
StepExecutor::Options ExecOptions(const TrainOptions& options) {
  StepExecutor::Options exec;
  exec.dense_lr = options.dense_lr;
  exec.sparse_lr = options.sparse_lr;
  exec.run_math = options.run_math;
  exec.fp16_embeddings = options.fp16_embeddings;
  exec.num_threads = options.num_threads;
  exec.eval_samples = options.eval_samples;
  exec.eval_batch = options.eval_batch;
  return exec;
}

LookaheadCache::Options CacheOptions(const TrainOptions& options,
                                     uint64_t row_bytes) {
  return {.budget_rows = options.cache_budget_rows,
          .lookahead = options.cache_lookahead,
          .row_bytes = row_bytes};
}

StalenessTracker::Options StaleOptions(const TrainOptions& options) {
  return {.threshold = options.stale_threshold,
          .min_visits = static_cast<uint32_t>(options.stale_min_visits)};
}

/// The cost overlays (DESIGN.md §13, §16) as pricing routines. Each
/// prices one event both ways through the real StepAccountant — the plain
/// charge the real timeline already carries, and the overlay's variant
/// charged into a scratch timeline — and hands the pair to the credit
/// ledger (OverlapTracker::CreditOverlay). The real timeline's phase
/// charges never change with an overlay: that is the bit-identical
/// contract, and why checkpoints stay byte-equal across overlay modes.
struct Overlays {
  Overlays(const StepAccountant& accountant, OverlapTracker& ledger)
      : accountant(accountant), ledger(ledger) {}

  const StepAccountant& accountant;
  OverlapTracker& ledger;
  /// --cache=oracle: the lookahead oracle cache in front of cold steps.
  LookaheadCache cache;
  /// Whether the plain step runs its CPU/GPU lanes overlapped
  /// (--pipeline=overlap) or serially; the variant matches it.
  bool overlap_lanes() const {
    return ledger.mode() == PipelineMode::kOverlap;
  }
  double Lanes(const StepAccountant::BaselineParts& parts) const {
    return overlap_lanes() ? parts.Overlapped() : parts.Total();
  }

  /// One cold step under the cache, against the plain hybrid step.
  void CacheStep(const BatchWork& w,
                 const StepAccountant::BaselineParts& plain) {
    const LookaheadCache::StepCharge sc = cache.OnStep();
    StepAccountant::OracleCacheTraffic t;
    const uint64_t lookups = sc.hit_lookups + sc.miss_lookups;
    if (lookups > 0) {
      t.hit_lookup_bytes =
          w.embedding_read_bytes * sc.hit_lookups / lookups;
      t.miss_lookup_bytes = w.embedding_read_bytes - t.hit_lookup_bytes;
    }
    const uint64_t rows = sc.hit_rows + sc.miss_rows;
    if (rows > 0) {
      t.hit_touched_bytes = w.touched_bytes * sc.hit_rows / rows;
      t.miss_touched_bytes = w.touched_bytes - t.hit_touched_bytes;
    }
    t.timely_prefetch_bytes = sc.timely_prefetch_bytes;
    t.late_prefetch_bytes = sc.late_prefetch_bytes;
    t.writeback_bytes = sc.writeback_bytes;
    Timeline scratch;
    const StepAccountant::OracleCacheParts parts =
        accountant.ChargeOracleCacheStep(w, t, scratch);
    ledger.CreditOverlay(Credit::kCache, Lanes(plain),
                         parts.EffectiveSeconds(overlap_lanes()));
    Timeline::CacheCounters& cc = ledger.timeline().cache_counters();
    cc.hits += sc.hit_lookups;
    cc.misses += sc.miss_lookups;
    cc.stale_refreshes += sc.stale_refreshes;
    cc.prefetch_bytes += sc.timely_prefetch_bytes + sc.late_prefetch_bytes;
    cc.writeback_bytes += sc.writeback_bytes;
    cc.plain_transfer_bytes += 2 * w.embedding_activation_bytes;
    cc.effective_transfer_bytes += parts.transfer_bytes;
  }

  /// Boundary writebacks (hot-chunk entry flush, end-of-run drain): real
  /// DMA the plain run never pays, priced through the trainer's sync path
  /// and debited from the cache's credit.
  void CacheWriteback(uint64_t bytes) {
    if (bytes == 0) return;
    Timeline scratch;
    accountant.ChargeSyncToCpu(bytes, scratch);
    ledger.CreditOverlay(Credit::kCache, 0.0, scratch.PhaseSumSeconds());
    Timeline::CacheCounters& cc = ledger.timeline().cache_counters();
    cc.writeback_bytes += bytes;
    cc.effective_transfer_bytes += bytes;
  }

  /// One CPU step under stale-update skipping, against the plain hybrid
  /// step. Reads the split the StalenessTracker counted during MathStep,
  /// so it runs *after* the math.
  void StaleSkipStep(const BatchWork& w,
                     const StepAccountant::BaselineParts& plain,
                     const StalenessTracker& tracker) {
    const uint64_t skipped_rows = tracker.step_skipped_rows();
    const uint64_t updated_rows = tracker.step_updated_rows();
    Timeline::StaleSkipCounters& sc = ledger.timeline().stale_skip_counters();
    sc.skipped_rows += skipped_rows;
    sc.updated_rows += updated_rows;
    // Nothing elided: the skipped step is the plain step (no scratch
    // pricing, and crediting an exact 0.0 would only accumulate noise).
    if (skipped_rows == 0) return;
    StepAccountant::StaleSkipTraffic t;
    const uint64_t lookups =
        tracker.step_skipped_lookups() + tracker.step_live_lookups();
    if (lookups > 0) {
      t.live_lookup_bytes =
          w.embedding_read_bytes * tracker.step_live_lookups() / lookups;
      t.skipped_lookup_bytes = w.embedding_read_bytes - t.live_lookup_bytes;
    } else {
      t.live_lookup_bytes = w.embedding_read_bytes;
    }
    const uint64_t rows = skipped_rows + updated_rows;
    t.live_touched_bytes = w.touched_bytes * updated_rows / rows;
    t.skipped_touched_bytes = w.touched_bytes - t.live_touched_bytes;
    Timeline scratch;
    ledger.CreditOverlay(
        Credit::kStaleSkip, Lanes(plain),
        Lanes(accountant.ChargeStaleSkipStep(w, t, scratch)));
  }
};

}  // namespace

std::string_view TrainModeName(TrainMode mode) {
  switch (mode) {
    case TrainMode::kBaseline:
      return "baseline";
    case TrainMode::kFae:
      return "fae";
    case TrainMode::kNvOpt:
      return "nvopt";
    case TrainMode::kModelParallel:
      return "model-parallel";
    case TrainMode::kGpuCache:
      return "gpu-cache";
  }
  return "unknown";
}

Status ValidateTrainOptions(TrainMode mode, const TrainOptions& options,
                            const SystemSpec& system) {
  const bool fae = mode == TrainMode::kFae;
  const bool comparator = !fae && mode != TrainMode::kBaseline;
  const std::string name(TrainModeName(mode));
  if (options.per_gpu_batch < 1) {
    return Status::InvalidArgument("--batch must be at least 1");
  }
  if (options.epochs < 1) {
    return Status::InvalidArgument("--epochs must be at least 1");
  }
  FAE_RETURN_IF_ERROR(
      ValidateRingDepth(static_cast<long long>(options.pipeline_depth),
                        "--pipeline-depth")
          .status());
  if (comparator && system.num_nodes > 1) {
    return Status::InvalidArgument(StrFormat(
        "--nodes=%d needs --mode=baseline or --mode=fae: the %s comparator "
        "models a single node",
        system.num_nodes, name.c_str()));
  }
  if (!fae && options.sync_strategy == SyncStrategy::kDirty) {
    return Status::InvalidArgument(StrFormat(
        "--dirty-sync applies to --mode=fae only: the %s placement keeps no "
        "GPU replica of a hot slice to sync",
        name.c_str()));
  }

  // The lookahead oracle cache (DESIGN.md §13).
  if (options.cache != CacheMode::kOff) {
    if (comparator) {
      return Status::InvalidArgument(StrFormat(
          "--cache=oracle applies to --mode=baseline or --mode=fae only: "
          "the %s comparator has no pipelined hybrid path to accelerate",
          name.c_str()));
    }
    if (options.pipeline == PipelineMode::kOff) {
      return Status::InvalidArgument(
          "--cache=oracle requires a pipelined run (--pipeline=prefetch or "
          "overlap): the oracle window is the batch pipeline's forward "
          "visibility into staged batches");
    }
    if (options.cache_budget_rows < 1) {
      return Status::InvalidArgument(
          "--cache-budget-rows must be at least 1");
    }
    FAE_RETURN_IF_ERROR(
        ValidateRingDepth(static_cast<long long>(options.cache_lookahead),
                          "--cache-lookahead")
            .status());
  }

  // The quantized cold store (DESIGN.md §14). Combinations whose budget or
  // traffic accounting assumes fp32 cold rows are errors, not silent
  // fallbacks.
  if (options.cold_precision != ColdPrecision::kFp32) {
    if (!fae) {
      return Status::InvalidArgument(StrFormat(
          "--cold-precision applies to --mode=fae only: the %s placement "
          "has no hot/cold partition, so there is no cold store to quantize",
          name.c_str()));
    }
    if (options.fp16_embeddings) {
      return Status::InvalidArgument(
          "--cold-precision and --fp16-embeddings are mutually exclusive: "
          "fp16 emulation rounds rows through the fp32 tables that the "
          "quantized cold store no longer holds");
    }
    if (options.cache != CacheMode::kOff) {
      return Status::InvalidArgument(
          "--cold-precision cannot be combined with --cache=oracle: the "
          "cache's budget and transfer accounting assume fp32 cold rows, so "
          "the two would double-count the reclaimed bytes");
    }
  }

  // Stale-update skipping (DESIGN.md §16).
  if (options.stale_skip != StaleSkipMode::kOff) {
    if (comparator) {
      return Status::InvalidArgument(StrFormat(
          "--stale-skip applies to --mode=baseline or --mode=fae only: the "
          "%s comparator runs no fused CPU sparse step for the tracker to "
          "ride",
          name.c_str()));
    }
    if (!fae && options.stale_skip == StaleSkipMode::kCold) {
      return Status::InvalidArgument(StrFormat(
          "--stale-skip=cold applies to --mode=fae only: the %s placement "
          "has no hot/cold partition, so there is no hot set to pin live "
          "(use --stale-skip=all)",
          name.c_str()));
    }
    if (!options.run_math) {
      return Status::InvalidArgument(
          "--stale-skip requires real math: skip decisions read measured "
          "per-row update magnitudes, which cost-only runs never produce");
    }
    if (options.fp16_embeddings) {
      return Status::InvalidArgument(
          "--stale-skip and --fp16-embeddings are mutually exclusive: fp16 "
          "emulation materializes gradients outside the fused path that "
          "measures per-row update magnitudes");
    }
    if (options.cache != CacheMode::kOff) {
      return Status::InvalidArgument(
          "--stale-skip cannot be combined with --cache=oracle: both "
          "reprice the same cold-step charges against the plain step, so "
          "their savings would double-count");
    }
    if (options.stale_threshold < 0.0) {
      return Status::InvalidArgument("--stale-threshold must be >= 0");
    }
    if (options.stale_min_visits < 1) {
      return Status::InvalidArgument("--stale-min-visits must be at least 1");
    }
  }
  return Status::OK();
}

Trainer::Trainer(RecModel* model, SystemSpec system, TrainOptions options)
    : model_(model),
      system_(std::move(system)),
      cost_(system_),
      accountant_(&cost_),
      options_(options),
      exec_(model, ExecOptions(options)) {}

uint64_t Trainer::OptionsFingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  h = FnvMix(h, options_.per_gpu_batch);
  h = FnvMix(h, GlobalBatchSize());  // covers the world size too
  h = FnvMix(h, options_.epochs);
  h = FnvMix(h, std::bit_cast<uint32_t>(options_.dense_lr));
  h = FnvMix(h, std::bit_cast<uint32_t>(options_.sparse_lr));
  h = FnvMix(h, options_.run_math ? 1 : 0);
  h = FnvMix(h, options_.eval_samples);
  h = FnvMix(h, options_.eval_batch);
  h = FnvMix(h, options_.evals_per_epoch);
  h = FnvMix(h, static_cast<uint64_t>(options_.sync_strategy));
  h = FnvMix(h, options_.fp16_embeddings ? 1 : 0);
  h = FnvMix(h, options_.seed);
  // num_threads is deliberately absent: the kernels are bit-identical at
  // any thread count, so a resume may change it freely. pipeline and
  // pipeline_depth are absent for the same reason — every pipeline mode
  // produces identical math, phase charges, and checkpoint bytes (the
  // overlap savings live outside Timeline::State), so a run may resume
  // under a different pipeline configuration. The cache knobs (cache,
  // cache_budget_rows, cache_lookahead) are absent on the same contract:
  // the oracle cache is a cost-model overlay whose savings and counters
  // also live outside Timeline::State, so a resume may turn it on, off,
  // or resize it freely. cold_precision is absent for a different reason:
  // the storage mode travels *inside* the model state (ModelIo v3 tags
  // every table), and the resume path reconciles it explicitly — same
  // precision resumes verbatim, fp32 widens exactly, anything else is
  // rejected — so the fingerprint would only forbid the legal directions.
  // The stale-skip triple (stale_skip, stale_threshold, stale_min_visits)
  // is absent on the cold_precision contract: the tracker's per-row state
  // travels *inside* the checkpoint (v3's staleness section) and the
  // resume path reconciles it explicitly —
  // same-mode resume restores it verbatim (bit-exact), turning skipping
  // off ignores it, turning it on starts a fresh tracker — so the
  // fingerprint would only forbid the legal directions.
  return h;
}

StatusOr<bool> Trainer::DrainFaults(
    uint64_t iteration, TrainReport& report,
    const std::function<void(uint64_t)>& on_corrupt_sync) {
  FaultInjector* injector = options_.fault_injector;
  if (injector == nullptr || injector->empty()) return false;
  FaultStats& stats = injector->stats();
  for (const FaultEvent& event : injector->Drain(iteration)) {
    switch (event.kind) {
      case FaultKind::kDeviceTransient: {
        ++stats.device_faults;
        if (event.times > kMaxFaultRetries) {
          return Status::ResourceExhausted(StrFormat(
              "device failed %u consecutive attempts at step %llu, "
              "exhausting the retry budget (%u); treating the device as "
              "permanently lost",
              event.times, static_cast<unsigned long long>(event.step),
              kMaxFaultRetries));
        }
        double backoff = kRetryBackoffSeconds;
        for (uint32_t attempt = 0; attempt < event.times; ++attempt) {
          ++stats.retries;
          report.timeline.Charge(Phase::kFaultRecovery, backoff);
          backoff *= 2.0;
        }
        FAE_LOG(Warning) << "transient device fault at step " << iteration
                         << ": recovered after " << event.times
                         << " retry attempt(s)";
        break;
      }
      case FaultKind::kLinkStall:
        ++stats.link_stalls;
        report.timeline.Charge(Phase::kFaultRecovery, event.stall_seconds);
        FAE_LOG(Warning) << "link stall at step " << iteration << " ("
                         << event.stall_seconds << " s)";
        break;
      case FaultKind::kCorruptSync:
        ++stats.corrupt_syncs;
        if (on_corrupt_sync) {
          on_corrupt_sync(iteration);
        } else {
          FAE_LOG(Warning)
              << "corrupt-sync fault at step " << iteration
              << " ignored: this mode keeps no GPU embedding replicas";
        }
        break;
      case FaultKind::kCrash:
        ++stats.crashes;
        report.interrupted = true;
        FAE_LOG(Warning)
            << "injected crash at step " << iteration
            << ": returning a partial report (resume from the last "
               "checkpoint to continue)";
        return true;
      case FaultKind::kRecalStall:
      case FaultKind::kSwapCrash:
      case FaultKind::kLookupLoss:
        // Serving-side faults (ServingLoop); batch training has no
        // recalibration or lookup path for them to hit.
        FAE_LOG(Warning) << FaultKindName(event.kind) << " fault at step "
                         << iteration
                         << " ignored: batch training has no serving path";
        break;
    }
  }
  return false;
}

void Trainer::FinishReport(TrainReport& report,
                           const std::vector<BatchView>& eval_batches,
                           RunningMetric& metric,
                           const StalenessTracker* staleness) const {
  if (options_.fault_injector != nullptr) {
    report.faults = options_.fault_injector->stats();
  }
  // The pipelined wall: phase totals minus what overlap hid (equal to the
  // plain total when nothing overlapped).
  report.modeled_seconds = report.timeline.OverlappedTotalSeconds();
  report.prep_seconds = report.timeline.seconds(Phase::kInputPrep);
  report.overlap_saved_seconds = report.timeline.credit(Credit::kOverlap);
  report.overlap_fraction = report.timeline.OverlapFraction();
  report.cache_saved_seconds = report.timeline.credit(Credit::kCache);
  const Timeline::CacheCounters& cc = report.timeline.cache_counters();
  report.cache_hits = cc.hits;
  report.cache_misses = cc.misses;
  report.cache_hit_rate =
      cc.hits + cc.misses > 0
          ? static_cast<double>(cc.hits) /
                static_cast<double>(cc.hits + cc.misses)
          : 0.0;
  report.cache_stale_refreshes = cc.stale_refreshes;
  report.cache_prefetch_bytes = cc.prefetch_bytes;
  report.cache_writeback_bytes = cc.writeback_bytes;
  report.cache_plain_transfer_bytes = cc.plain_transfer_bytes;
  report.cache_effective_transfer_bytes = cc.effective_transfer_bytes;
  // The per-step skip/update counts reached the timeline as the overlay
  // priced each step; the guard's counters live in the tracker until now.
  if (staleness != nullptr) {
    Timeline::StaleSkipCounters& sc = report.timeline.stale_skip_counters();
    sc.reactivated_rows += staleness->total_reactivated_rows();
    sc.guard_tightens += staleness->guard_tightens();
    sc.guard_widens += staleness->guard_widens();
    report.stale_final_threshold = staleness->threshold();
  }
  report.stale_skip_saved_seconds = report.timeline.credit(Credit::kStaleSkip);
  const Timeline::StaleSkipCounters& ssc =
      report.timeline.stale_skip_counters();
  report.stale_skipped_rows = ssc.skipped_rows;
  report.stale_updated_rows = ssc.updated_rows;
  report.stale_reactivated_rows = ssc.reactivated_rows;
  report.stale_guard_tightens = ssc.guard_tightens;
  report.stale_guard_widens = ssc.guard_widens;
  report.avg_gpu_watts = cost_.AverageGpuWatts(
      report.modeled_seconds, report.timeline.gpu_busy_seconds(),
      report.timeline.seconds(Phase::kCpuGpuTransfer) +
          report.timeline.seconds(Phase::kEmbeddingSync));
  if (options_.run_math) {
    report.final_train_loss = metric.mean_loss();
    report.final_train_acc = metric.accuracy();
    const EvalResult eval = Evaluate(*model_, eval_batches);
    report.final_test_loss = eval.loss;
    report.final_test_acc = eval.accuracy;
    report.final_test_auc = eval.auc;
  }
}

TrainReport Trainer::TrainBaseline(const Dataset& dataset,
                                   const Dataset::Split& split) {
  StatusOr<TrainReport> report = TrainBaselineResumable(dataset, split);
  FAE_CHECK(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

StatusOr<TrainReport> Trainer::TrainBaselineResumable(
    const Dataset& dataset, const Dataset::Split& split) {
  return Train(TrainMode::kBaseline, dataset, split);
}

StatusOr<TrainReport> Trainer::Train(TrainMode mode, const Dataset& dataset,
                                     const Dataset::Split& split,
                                     const FaePlan* hot_set) {
  if (mode == TrainMode::kFae) {
    return Status::InvalidArgument(
        "the FAE placement runs on its hot/cold schedule (TrainFae), not "
        "the shuffled-order driver");
  }
  if (mode == TrainMode::kGpuCache && hot_set == nullptr) {
    return Status::InvalidArgument(
        "the gpu-cache comparator needs a plan whose hot set fills its "
        "cache");
  }
  FAE_RETURN_IF_ERROR(ValidateTrainOptions(mode, options_, system_));
  return TrainShuffled(mode, dataset, split, hot_set);
}

StatusOr<TrainReport> Trainer::TrainShuffled(TrainMode mode,
                                             const Dataset& dataset,
                                             const Dataset::Split& split,
                                             const FaePlan* hot_set) {
  const DatasetSchema& schema = dataset.schema();
  TrainReport report;
  report.mode = mode;
  // Per-mode setup: what each comparator's step pricer reads.
  // NvOPT: greedy fp16 placement, largest tables first, into 80% of GPU
  // memory — access-oblivious, per the paper's characterization of NvOPT.
  std::vector<bool> nvopt_on_gpu;
  if (mode == TrainMode::kNvOpt) {
    std::vector<size_t> order(schema.num_tables());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return schema.TableBytes(a) > schema.TableBytes(b);
    });
    nvopt_on_gpu.assign(schema.num_tables(), false);
    uint64_t budget = static_cast<uint64_t>(0.8 * system_.gpu.mem_capacity);
    for (size_t t : order) {
      const uint64_t fp16_bytes = schema.TableBytes(t) / 2;
      if (fp16_bytes <= budget) {
        nvopt_on_gpu[t] = true;
        budget -= fp16_bytes;
      }
    }
  }
  // Model-parallel: tables sharded with the LPT heuristic; the *largest
  // realized shard* (not the balanced ideal) must fit, with 20% headroom
  // for activations and the dense model. A single table larger than a GPU
  // can make this impossible regardless of the GPU count — the paper's
  // capacity argument.
  if (mode == TrainMode::kModelParallel) {
    std::vector<uint64_t> table_bytes(schema.num_tables());
    for (size_t t = 0; t < schema.num_tables(); ++t) {
      table_bytes[t] = schema.TableBytes(t);
    }
    const Partition partition =
        PartitionLpt(table_bytes, std::max(1, system_.num_gpus));
    if (partition.MaxWeight() >
        static_cast<uint64_t>(0.8 * system_.gpu.mem_capacity)) {
      return Status::ResourceExhausted(StrFormat(
          "model-parallel shard (%s on the fullest GPU) exceeds GPU memory "
          "(%s)",
          HumanBytes(partition.MaxWeight()).c_str(),
          HumanBytes(system_.gpu.mem_capacity).c_str()));
    }
  }
  // GPU cache: the plan's hot rows are the (fixed) cache contents; each
  // step splits its lookups into hits and misses against them.
  const uint64_t row_bytes = schema.embedding_dim * sizeof(float);
  std::vector<uint32_t> miss_rows;
  if (mode == TrainMode::kGpuCache) {
    report.hot_bytes = hot_set->hot_bytes;
    report.threshold = hot_set->threshold;
  }
  // Prices one step on the real timeline. Comparator steps carry no
  // CPU/GPU lane split (like FAE's hot steps), so the whole step is one
  // serial lane and --pipeline hides only their input prep.
  auto charge_step = [&](const BatchView& view, const BatchWork& work)
      -> StepAccountant::BaselineParts {
    if (mode == TrainMode::kBaseline) {
      return accountant_.ChargeBaselineStep(work, report.timeline);
    }
    const double before = report.timeline.PhaseSumSeconds();
    if (mode == TrainMode::kNvOpt) {
      accountant_.ChargeNvOptStep(work, nvopt_on_gpu, schema.embedding_dim,
                                  view.batch_size(), report.timeline);
    } else if (mode == TrainMode::kModelParallel) {
      accountant_.ChargeModelParallelStep(work, report.timeline);
    } else {  // kGpuCache
      uint64_t hits = 0, misses = 0, miss_touched = 0;
      for (size_t t = 0; t < schema.num_tables(); ++t) {
        miss_rows.clear();
        for (uint32_t row : view.indices(t)) {
          if (hot_set->hot_set.IsHot(t, row)) {
            ++hits;
          } else {
            ++misses;
            miss_rows.push_back(row);
          }
        }
        std::sort(miss_rows.begin(), miss_rows.end());
        miss_touched += static_cast<uint64_t>(
            std::unique(miss_rows.begin(), miss_rows.end()) -
            miss_rows.begin());
      }
      accountant_.ChargeCacheStep(work, hits * row_bytes, misses * row_bytes,
                                  miss_touched * row_bytes, report.timeline);
    }
    return {.serial = report.timeline.PhaseSumSeconds() - before};
  };

  exec_.MaybeQuantizeTables();
  const bool pipelined = options_.pipeline != PipelineMode::kOff;
  const bool cache_on = options_.cache == CacheMode::kOracle;

  std::vector<uint64_t> ids = split.train;
  Xoshiro256 rng(options_.seed);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextBounded(i)]);
  }
  // Serial data path: one gather into epoch order; batches are views into
  // the gathered buffers (consecutive sample ranges), with cost-model work
  // units computed once. Per-epoch reshuffles permute the view list — the
  // underlying data is never copied again.
  //
  // Pipelined data path: no epoch-wide materialization at all. Each batch
  // is a descriptor — a fixed subspan of the shuffled ids — that the
  // BatchPipeline stages into a ring workspace just in time, overlapping
  // the gather with the previous step's compute. Work units are computed
  // at a descriptor's first staging and cached (Work is pure per batch
  // contents). Both paths reshuffle per epoch with the identical
  // NextBounded call sequence, so the RNG stream — and with it the batch
  // order and checkpoint bytes — match exactly.
  struct BatchDesc {
    std::span<const uint64_t> ids;
    BatchWork work;
    bool work_valid = false;
  };
  FlatDataset train_flat;
  std::vector<TrainBatch> batches;
  std::vector<BatchDesc> descs;
  const size_t global_batch = GlobalBatchSize();
  if (pipelined) {
    for (size_t begin = 0; begin < ids.size(); begin += global_batch) {
      BatchDesc d;
      d.ids = std::span<const uint64_t>(ids).subspan(
          begin, std::min(global_batch, ids.size() - begin));
      descs.push_back(std::move(d));
    }
  } else {
    train_flat = dataset.flat().Gather(ids);
    batches = exec_.MakeTrainBatches(train_flat, global_batch, /*hot=*/false);
  }
  const size_t num_batches = pipelined ? descs.size() : batches.size();
  // One NextBounded sequence regardless of data path (checkpoints verify
  // the RNG stream, so the paths must consume identically).
  auto reshuffle_batches = [&] {
    for (size_t i = num_batches; i > 1; --i) {
      const size_t j = rng.NextBounded(i);
      if (pipelined) {
        std::swap(descs[i - 1], descs[j]);
      } else {
        std::swap(batches[i - 1], batches[j]);
      }
    }
  };
  const EvalSet eval_set =
      options_.run_math ? exec_.MakeEvalSet(dataset, split) : EvalSet{};

  std::vector<EmbeddingTable*> tables;
  for (EmbeddingTable& t : model_->tables()) tables.push_back(&t);

  // Stale-update skipping (baseline kAll only; ValidateTrainOptions
  // refuses the rest). The tracker rides inside every fused step; the
  // overlay prices what it elided.
  const bool stale_on = options_.stale_skip != StaleSkipMode::kOff;
  StalenessTracker staleness;
  if (stale_on) {
    staleness.Init(dataset.schema().table_rows, StaleOptions(options_));
  }
  const StalenessTracker* stale_report = stale_on ? &staleness : nullptr;

  RunningMetric metric;
  RunningMetric window;
  const size_t eval_every =
      std::max<size_t>(1, num_batches / std::max<size_t>(
                                            1, options_.evals_per_epoch));
  size_t iteration = 0;
  size_t start_epoch = 0;
  size_t start_batch = 0;

  const CheckpointOptions& ckpt = options_.checkpoint;
  const uint64_t dataset_fp = FaeFormat::Fingerprint(dataset);
  const uint64_t options_fp = OptionsFingerprint();

  if (ckpt.resume) {
    if (ckpt.path.empty()) {
      return Status::InvalidArgument(
          "resume requested but no checkpoint path was given");
    }
    const CheckpointIo::Expectation expect{
        static_cast<uint32_t>(mode), dataset_fp, options_fp};
    FAE_ASSIGN_OR_RETURN(TrainerCheckpoint ck,
                         CheckpointIo::Load(ckpt.path, *model_, &expect));
    // Replay the shuffles consumed up to the save point — the initial id
    // shuffle above plus one batch reshuffle per started epoch — so the
    // resumed batch order matches the uninterrupted run's.
    for (uint64_t e = 0; e <= ck.epoch; ++e) reshuffle_batches();
    if (!(rng.state() == ck.rng)) {
      return Status::FailedPrecondition(
          "checkpoint RNG stream does not match the replayed shuffles "
          "(was the checkpoint taken on a different dataset or split?)");
    }
    metric.Restore(ck.metric);
    window.Restore(ck.window);
    report.timeline.set_state(ck.timeline);
    report.curve = ck.curve;
    // Stale-skip reconciliation (the knob is fingerprint-exempt): resuming
    // with skipping on restores the tracker verbatim when the checkpoint
    // carries one (bit-exact continuation) and starts fresh otherwise;
    // resuming with it off ignores any stored section.
    if (stale_on && ck.has_staleness) staleness.Restore(ck.staleness);
    iteration = ck.iteration;
    report.num_batches = ck.iteration;
    start_epoch = ck.epoch;
    start_batch = ck.batch_in_epoch;
    report.resumed = true;
    report.resumed_at = ck.iteration;
    if (options_.fault_injector != nullptr) {
      options_.fault_injector->SkipUntil(ck.iteration);
    }
    FAE_LOG(Info) << "resumed " << TrainModeName(mode) << " training from "
                  << ckpt.path << " at iteration " << ck.iteration;
  }

  uint64_t next_save = 0;
  if (!ckpt.path.empty() && ckpt.every_steps > 0) {
    next_save = (iteration / ckpt.every_steps + 1) * ckpt.every_steps;
  }
  auto save_checkpoint = [&](size_t epoch, size_t batch_in_epoch) -> Status {
    TrainerCheckpoint ck;
    ck.mode = static_cast<uint32_t>(mode);
    ck.dataset_fingerprint = dataset_fp;
    ck.options_fingerprint = options_fp;
    ck.epoch = epoch;
    ck.iteration = iteration;
    ck.batch_in_epoch = batch_in_epoch;
    ck.rng = rng.state();
    ck.metric = metric.state();
    ck.window = window.state();
    ck.timeline = report.timeline.state();
    ck.curve = report.curve;
    if (stale_on) {
      ck.has_staleness = true;
      ck.staleness = staleness.state();
    }
    return CheckpointIo::Save(ckpt.path, ck, *model_);
  };

  std::unique_ptr<BatchPipeline> prefetcher;
  if (pipelined) {
    prefetcher = std::make_unique<BatchPipeline>(options_.pipeline_depth);
  }
  OverlapTracker tracker(options_.pipeline, options_.pipeline_depth,
                         &report.timeline);
  Overlays overlays(accountant_, tracker);
  if (cache_on) {
    // Same per-row payload the FAE sync machinery ships: the embedding
    // vector plus the optimizer's row index word.
    overlays.cache.Init(
        schema.table_rows,
        CacheOptions(options_, schema.embedding_dim * sizeof(float) +
                                   sizeof(uint32_t)));
  }
  // The batch descriptors double as the cache's oracle feed: at a segment
  // start the first `cache_lookahead` batches enter the window, and each
  // step hands the next one over as it retires — the window stays exactly
  // as far ahead as the configured lookahead permits.
  auto cache_push = [&](size_t b) {
    overlays.cache.PushBatch(dataset.flat(), descs[b].ids);
  };
  auto cache_drain = [&] {
    if (cache_on) overlays.CacheWriteback(overlays.cache.FlushAllDirty());
  };

  for (size_t epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    // Reshuffle batch order each epoch (already replayed for the epoch a
    // resume landed in).
    if (!(report.resumed && epoch == start_epoch)) reshuffle_batches();
    const size_t first = epoch == start_epoch ? start_batch : 0;
    if (pipelined) {
      // One pipeline segment per epoch: the epoch boundary is a sync
      // point the prefetcher never crosses.
      std::vector<BatchPipeline::Spec> specs;
      specs.reserve(num_batches - first);
      for (size_t b = first; b < num_batches; ++b) {
        specs.push_back(
            BatchPipeline::Spec{&dataset.flat(), descs[b].ids, false});
      }
      prefetcher->Begin(std::move(specs));
    }
    tracker.BeginSegment();
    if (cache_on) {
      overlays.cache.BeginSegment();
      const size_t ahead =
          std::min(num_batches, first + options_.cache_lookahead);
      for (size_t b = first; b < ahead; ++b) cache_push(b);
    }
    for (size_t b = first; b < num_batches; ++b) {
      FAE_ASSIGN_OR_RETURN(const bool crashed,
                           DrainFaults(iteration, report, nullptr));
      if (crashed) {
        // ~BatchPipeline cancels the abandoned segment.
        cache_drain();
        FinishReport(report, eval_set.views, metric, stale_report);
        return report;
      }
      const BatchView* view = nullptr;
      const BatchWork* work = nullptr;
      if (pipelined) {
        const BatchView& staged = prefetcher->Acquire();
        BatchDesc& d = descs[b];
        if (!d.work_valid) {
          d.work = model_->Work(staged);
          d.work_valid = true;
        }
        view = &staged;
        work = &d.work;
      } else {
        view = &batches[b].view;
        work = &batches[b].work;
      }
      // Identical charges in every pipeline mode — staging cost plus the
      // step; pipelined modes then credit back what overlap hid.
      const double prep = accountant_.ChargeInputPrep(BatchInputBytes(*view),
                                                      report.timeline);
      const StepAccountant::BaselineParts parts = charge_step(*view, *work);
      tracker.OnStep(prep, parts.Total(), parts.Overlapped());
      if (cache_on) {
        overlays.CacheStep(*work, parts);
        const size_t ahead = b + options_.cache_lookahead;
        if (ahead < num_batches) cache_push(ahead);
      }
      if (options_.run_math) {
        exec_.MathStep(*view, tables, metric, window,
                       stale_on ? &staleness : nullptr);
        // After the math: the tracker's step counters now hold this
        // step's skip/update split.
        if (stale_on) overlays.StaleSkipStep(*work, parts, staleness);
      }
      if (pipelined) prefetcher->Release();
      ++iteration;
      ++report.num_batches;
      if (options_.run_math && iteration % eval_every == 0) {
        CurvePoint point = window.Flush(iteration);
        const EvalResult eval = Evaluate(*model_, eval_set.views);
        point.test_loss = eval.loss;
        point.test_acc = eval.accuracy;
        report.curve.push_back(point);
        if (stale_on) staleness.OnTestLoss(eval.loss);
      }
      if (next_save != 0 && iteration >= next_save) {
        FAE_RETURN_IF_ERROR(save_checkpoint(epoch, b + 1));
        next_save = (iteration / ckpt.every_steps + 1) * ckpt.every_steps;
      }
    }
  }
  cache_drain();
  FinishReport(report, eval_set.views, metric, stale_report);
  return report;
}

StatusOr<TrainReport> Trainer::TrainFae(const Dataset& dataset,
                                        const Dataset::Split& split,
                                        const FaeConfig& config) {
  Stopwatch prep_watch;
  FaePipeline pipeline(config);
  FAE_ASSIGN_OR_RETURN(FaePlan plan, pipeline.Prepare(dataset, split.train));
  FAE_ASSIGN_OR_RETURN(TrainReport report,
                       TrainFaeWithPlan(dataset, split, config, plan));
  report.preprocess_seconds = prep_watch.ElapsedSeconds();
  return report;
}

StatusOr<TrainReport> Trainer::TrainFaeWithPlan(const Dataset& dataset,
                                                const Dataset::Split& split,
                                                const FaeConfig& config,
                                                const FaePlan& plan) {
  FAE_RETURN_IF_ERROR(ValidateTrainOptions(TrainMode::kFae, options_, system_));
  if (config.cold_precision != options_.cold_precision) {
    return Status::InvalidArgument(
        "FaeConfig::cold_precision and TrainOptions::cold_precision "
        "disagree: the calibrator's budget credit must match the storage "
        "mode the trainer realizes");
  }
  exec_.MaybeQuantizeTables();
  TrainReport report;
  report.mode = TrainMode::kFae;

  // Bytes a quantized cold store gives back under `pl` — credited to the
  // hot budget below with the same ColdRowBytes arithmetic the calibrator
  // used, or degradation would undo the calibrator's budget feedback.
  const DatasetSchema& schema = dataset.schema();
  auto reclaimed_for = [&](const FaePlan& pl) -> uint64_t {
    if (options_.cold_precision == ColdPrecision::kFp32) return 0;
    const uint64_t saved_per_row =
        schema.embedding_dim * sizeof(float) -
        ColdRowBytes(schema.embedding_dim, options_.cold_precision);
    uint64_t cold = 0;
    for (size_t t = 0; t < schema.num_tables(); ++t) {
      if (pl.hot_set.mask(t).empty()) continue;  // all-hot: nothing cold
      cold += schema.table_rows[t] - pl.hot_set.HotCount(t);
    }
    return cold * saved_per_row;
  };

  // Graceful degradation: when the hot slice no longer fits the per-GPU
  // budget (popularity drift after calibration, a smaller deployment GPU),
  // demote overflow entries and fall back toward the cold path instead of
  // aborting — unless the caller opted into hard failure. The budget is
  // the *effective* one: L plus what the quantized cold store reclaims
  // (demotions only grow the cold side, so the credit never shrinks under
  // degradation and the recheck below is conservative).
  FaePlan shrunk;
  const FaePlan* active = &plan;
  uint64_t effective_budget =
      system_.hot_embedding_budget + reclaimed_for(plan);
  if (plan.hot_bytes > effective_budget) {
    if (!options_.degrade_on_overflow) {
      return Status::ResourceExhausted(
          "plan's hot slice exceeds the per-GPU hot-embedding budget");
    }
    shrunk = DegradePlanToBudget(dataset, plan, effective_budget,
                                 config.num_threads);
    effective_budget = system_.hot_embedding_budget + reclaimed_for(shrunk);
    if (shrunk.hot_bytes > effective_budget) {
      return Status::ResourceExhausted(
          "hot slice still exceeds the per-GPU budget after demoting every "
          "demotable row");
    }
    active = &shrunk;
  }
  const FaePlan& p = *active;
  report.effective_hot_budget = effective_budget;
  report.cold_reclaimed_bytes = reclaimed_for(p);
  report.threshold = p.threshold;
  report.hot_bytes = p.hot_bytes;
  report.hot_fraction = p.inputs.HotFraction();
  report.degraded = p.degraded;
  report.demoted_rows = p.demoted_rows;
  report.fallback_inputs = p.fallback_inputs;

  // Each class is shuffled and gathered once into a flat buffer; pure
  // hot/cold batches are views into it.
  InputProcessor::PackedFlat packed =
      InputProcessor::PackFlat(dataset, p.inputs, options_.seed);
  std::vector<TrainBatch> hot_batches =
      exec_.MakeTrainBatches(packed.hot, GlobalBatchSize(), /*hot=*/true);
  std::vector<TrainBatch> cold_batches =
      exec_.MakeTrainBatches(packed.cold, GlobalBatchSize(), /*hot=*/false);
  report.hot_batches = hot_batches.size();
  report.cold_batches = cold_batches.size();

  OverlapTracker tracker(options_.pipeline, options_.pipeline_depth,
                         &report.timeline);
  Overlays overlays(accountant_, tracker);

  const EvalSet eval_set =
      options_.run_math ? exec_.MakeEvalSet(dataset, split) : EvalSet{};

  std::vector<EmbeddingTable*> master_tables;
  for (EmbeddingTable& t : model_->tables()) master_tables.push_back(&t);

  // Stale-update skipping rides the CPU master path only (cold batches);
  // the GPU replicas' hot steps never consult the tracker. kCold pins the
  // hot set live — cold batches touch hot rows on the master, and those
  // must keep updating or the next pull sync would ship frozen rows as if
  // they were fresh. The always-update set comes from the *post-degrade*
  // hot set, matching what the replicas actually hold.
  const bool stale_on = options_.stale_skip != StaleSkipMode::kOff;
  StalenessTracker staleness;
  if (stale_on) {
    staleness.Init(schema.table_rows, StaleOptions(options_));
    if (options_.stale_skip == StaleSkipMode::kCold) {
      for (size_t t = 0; t < schema.num_tables(); ++t) {
        staleness.SetAlwaysUpdate(t, p.hot_set.HotRows(t));
      }
    }
  }

  // The replica stands for every GPU's copy (they stay bit-identical under
  // synchronous data parallelism).
  EmbeddingReplicator replicator(model_->tables(), p.hot_set);
  std::vector<EmbeddingTable*> replica_tables = replicator.replica_tables();

  // Pre-translate the hot class into replica coordinates (one translated
  // clone of the gathered buffer; the paper stores preprocessed data in
  // the FAE format for reuse). Hot training batches view this clone.
  FlatDataset hot_translated;
  std::vector<BatchView> hot_translated_views;
  if (options_.run_math) {
    FAE_ASSIGN_OR_RETURN(hot_translated, replicator.TranslateFlat(packed.hot));
    hot_translated_views =
        MakeBatchViews(hot_translated, GlobalBatchSize(), /*hot=*/true);
  }

  // Pipelined staging: each schedule chunk is one BatchPipeline segment
  // (the chunk boundary is FAE's sync point — the scheduler's rate
  // feedback can change the upcoming mix there, so nothing is staged
  // across it). Batches of the packed classes are contiguous sample
  // ranges, so staging specs index through one shared iota pool. Hot
  // batches stage from the replica-coordinate clone when math runs (the
  // staged copy feeds MathStep directly); the untranslated views keep
  // serving work units and dirty tracking in every mode.
  const bool pipelined = options_.pipeline != PipelineMode::kOff;
  // stage_ids must outlive the prefetcher: the producer thread reads
  // Spec::ids spans into it until ~BatchPipeline joins, including on early
  // returns that abandon a segment mid-chunk (injected crashes).
  std::vector<uint64_t> stage_ids;
  std::unique_ptr<BatchPipeline> prefetcher;
  const FlatDataset* hot_stage_src = nullptr;
  if (pipelined) {
    prefetcher = std::make_unique<BatchPipeline>(options_.pipeline_depth);
    stage_ids.resize(std::max(packed.hot.size(), packed.cold.size()));
    std::iota(stage_ids.begin(), stage_ids.end(), 0);
    hot_stage_src = options_.run_math ? &hot_translated : &packed.hot;
  }
  // Cold-chunk CPU seconds awaiting a hot chunk to hide under (kOverlap).
  double pending_cold_unhidden = 0.0;

  ShuffleScheduler scheduler(cold_batches.size(), hot_batches.size(), config);
  RunningMetric metric;
  RunningMetric window;
  size_t iteration = 0;
  size_t start_epoch = 0;

  // Dirty-row tracking for SyncStrategy::kDirty: a reusable bitmap plus
  // touched list per table (see DirtyRows) holding *master* row ids;
  // tracking is index-based so it works in cost-only mode too.
  const bool dirty_sync = options_.sync_strategy == SyncStrategy::kDirty;
  const size_t num_tables = dataset.schema().num_tables();
  const uint64_t row_bytes =
      dataset.schema().embedding_dim * sizeof(float) + sizeof(uint32_t);
  DirtyRows master_dirty;
  DirtyRows replica_dirty;
  if (dirty_sync) {
    master_dirty.Init(dataset.schema().table_rows);
    replica_dirty.Init(dataset.schema().table_rows);
  }
  bool replica_initialized = false;

  // The oracle cache accelerates FAE's cold chunks (hot chunks already run
  // entirely on the GPUs). It may cache hot rows too — cold batches touch
  // them — so the chunk boundaries keep it coherent: dirty cached hot rows
  // flush to the master before a hot chunk's pull sync, and a hot chunk's
  // push sync marks cached copies stale on the way out.
  const bool cache_on = options_.cache == CacheMode::kOracle;
  if (cache_on) {
    overlays.cache.Init(dataset.schema().table_rows,
                        CacheOptions(options_, row_bytes));
  }
  auto cold_cache_push = [&](size_t i) {
    const size_t begin = i * GlobalBatchSize();
    const size_t count =
        std::min(GlobalBatchSize(), packed.cold.size() - begin);
    overlays.cache.PushBatch(
        packed.cold,
        std::span<const uint64_t>(stage_ids).subspan(begin, count));
  };

  const CheckpointOptions& ckpt = options_.checkpoint;
  const uint64_t dataset_fp = FaeFormat::Fingerprint(dataset);
  const uint64_t options_fp = OptionsFingerprint();

  if (ckpt.resume) {
    if (ckpt.path.empty()) {
      return Status::InvalidArgument(
          "resume requested but no checkpoint path was given");
    }
    const CheckpointIo::Expectation expect{
        static_cast<uint32_t>(TrainMode::kFae), dataset_fp, options_fp};
    FAE_ASSIGN_OR_RETURN(TrainerCheckpoint ck,
                         CheckpointIo::Load(ckpt.path, *model_, &expect));
    // FAE checkpoints are taken at schedule-chunk boundaries, where the
    // CPU master copy (restored just now) is authoritative; the replicas
    // are rebuilt by a full pull on the next hot chunk, which is
    // numerically identical to the uninterrupted run (the modeled sync
    // traffic may differ by at most one full-slice sync under kDirty).
    scheduler.Restore(ck.scheduler);
    metric.Restore(ck.metric);
    window.Restore(ck.window);
    report.timeline.set_state(ck.timeline);
    report.curve = ck.curve;
    // Stale-skip reconciliation (the knob is fingerprint-exempt): keep-on
    // restores the tracker verbatim, turn-on starts fresh, turn-off
    // ignores the stored section. See TrainShuffled.
    if (stale_on && ck.has_staleness) staleness.Restore(ck.staleness);
    iteration = ck.iteration;
    report.num_batches = ck.iteration;
    report.sync_bytes = ck.sync_bytes;
    start_epoch = ck.epoch;
    report.resumed = true;
    report.resumed_at = ck.iteration;
    if (options_.fault_injector != nullptr) {
      options_.fault_injector->SkipUntil(ck.iteration);
    }
    FAE_LOG(Info) << "resumed FAE training from " << ckpt.path
                  << " at iteration " << ck.iteration << " (rate "
                  << scheduler.rate() << ")";
  }

  // Cold-store reconciliation, after any resume restored the masters:
  //  - fresh quantized run: compress each partitioned table's cold rows;
  //  - resume at the same precision: keep the restored store *verbatim*
  //    (requantizing would re-round; see model_io.h) after checking the
  //    hot/cold partition still matches the plan;
  //  - resume at fp32 from a quantized checkpoint: widen exactly;
  //  - any other precision change: reject.
  // Cost-only runs skip compression (the masters hold no numerics); the
  // byte accounting below does not depend on it.
  const ColdPrecision target = options_.cold_precision;
  {
    std::vector<EmbeddingTable>& ts = model_->tables();
    for (size_t t = 0; t < ts.size(); ++t) {
      EmbeddingTable& tab = ts[t];
      const std::span<const uint8_t> mask = p.hot_set.mask(t);
      if (tab.compressed()) {
        if (tab.cold_precision() == target) {
          if (mask.empty() || !tab.PartitionMatches(mask)) {
            return Status::FailedPrecondition(StrFormat(
                "checkpoint table %zu's hot/cold partition does not match "
                "the current plan (popularity drift since the checkpoint?); "
                "resume with --cold-precision=fp32 to widen and repartition",
                t));
          }
        } else if (target == ColdPrecision::kFp32) {
          tab.Decompress();
        } else {
          return Status::FailedPrecondition(StrFormat(
              "checkpoint stores table %zu's cold rows as %s but the run "
              "requests %s; resume at the same cold precision or at fp32",
              t, std::string(ColdPrecisionName(tab.cold_precision())).c_str(),
              std::string(ColdPrecisionName(target)).c_str()));
        }
      } else if (target != ColdPrecision::kFp32 && options_.run_math &&
                 !mask.empty()) {
        tab.CompressCold(mask, target);
      }
      report.cold_rows += tab.cold_rows();
      report.cold_store_bytes += tab.ColdStoreBytes();
    }
  }

  // Cold batches stream cold rows out of the quantized store, so their
  // modeled read traffic shrinks to the quantized row width (hot rows a
  // cold batch touches stay fp32, and updates write fp32 staging rows, so
  // only the read side scales). One hot-mask pass per batch, computed once
  // — chunks index cold_batches stably.
  std::vector<BatchWork> cold_work_narrow;
  const bool quantized_cost = target != ColdPrecision::kFp32;
  if (quantized_cost) {
    const uint64_t fp32_row = schema.embedding_dim * sizeof(float);
    const uint64_t cold_row =
        ColdRowBytes(schema.embedding_dim, target);
    cold_work_narrow.reserve(cold_batches.size());
    for (const TrainBatch& batch : cold_batches) {
      uint64_t hot_lookups = 0;
      uint64_t cold_lookups = 0;
      for (size_t t = 0; t < schema.num_tables(); ++t) {
        for (uint32_t row : batch.view.indices(t)) {
          if (p.hot_set.IsHot(t, row)) {
            ++hot_lookups;
          } else {
            ++cold_lookups;
          }
        }
      }
      BatchWork w = batch.work;
      w.embedding_read_bytes =
          hot_lookups * fp32_row + cold_lookups * cold_row;
      cold_work_narrow.push_back(w);
    }
  }
  auto cold_work = [&](size_t i) -> const BatchWork& {
    return quantized_cost ? cold_work_narrow[i] : cold_batches[i].work;
  };

  uint64_t next_save = 0;
  if (!ckpt.path.empty() && ckpt.every_steps > 0) {
    next_save = (iteration / ckpt.every_steps + 1) * ckpt.every_steps;
  }
  auto save_checkpoint = [&](size_t epoch) -> Status {
    TrainerCheckpoint ck;
    ck.mode = static_cast<uint32_t>(TrainMode::kFae);
    ck.dataset_fingerprint = dataset_fp;
    ck.options_fingerprint = options_fp;
    ck.epoch = epoch;
    ck.iteration = iteration;
    ck.sync_bytes = report.sync_bytes;
    ck.metric = metric.state();
    ck.window = window.state();
    ck.scheduler = scheduler.state();
    ck.timeline = report.timeline.state();
    ck.curve = report.curve;
    if (stale_on) {
      ck.has_staleness = true;
      ck.staleness = staleness.state();
    }
    return CheckpointIo::Save(ckpt.path, ck, *model_);
  };

  // Hot-slice syncs at the chunk boundaries. Each charges the transfer
  // and counts the bytes. A sync ships the whole slice under kFull, on the
  // first replication, and once nearly everything is dirty (hot rows are
  // frequently touched by construction, and a wholesale copy avoids the
  // per-row index overhead); otherwise
  // only the dirty rows.
  auto pull_to_gpus = [&] {
    uint64_t bytes = master_dirty.TotalTouched() * row_bytes;
    const bool whole =
        !dirty_sync || !replica_initialized || bytes >= p.hot_bytes;
    if (whole) bytes = p.hot_bytes;
    accountant_.ChargeSyncToGpus(bytes, report.timeline);
    report.sync_bytes += bytes;
    if (options_.run_math) {
      if (whole) {
        replicator.PullFromMasters(model_->tables());
      } else {
        replicator.PullRowsFromMasters(model_->tables(),
                                       master_dirty.touched());
      }
    }
    master_dirty.Clear();
    replica_initialized = true;
  };
  // Leaving a hot chunk: the masters absorb the GPU updates.
  auto push_to_cpu = [&] {
    uint64_t bytes = replica_dirty.TotalTouched() * row_bytes;
    const bool whole = !dirty_sync || bytes >= p.hot_bytes;
    if (whole) bytes = p.hot_bytes;
    accountant_.ChargeSyncToCpu(bytes, report.timeline);
    report.sync_bytes += bytes;
    if (options_.run_math) {
      if (whole) {
        replicator.PushToMasters(model_->tables());
      } else {
        replicator.PushRowsToMasters(model_->tables(),
                                     replica_dirty.touched());
      }
    }
    replica_dirty.Clear();
  };

  // Recovery from a corrupted hot-slice sync: every replica is garbage, so
  // discard them all and re-pull from the CPU master copy, which is always
  // authoritative. GPU updates not yet pushed when the fault hit are lost
  // (honest degradation — training continues from the master's state).
  auto recover_corrupt_sync = [&](uint64_t at) {
    FAE_LOG(Warning) << "corrupted hot-slice sync at step " << at
                     << ": discarding GPU replicas and re-pulling "
                     << HumanBytes(p.hot_bytes) << " from the CPU master";
    if (options_.run_math) {
      replicator.ScrambleReplicas(options_.seed ^ at);
      replicator.PullFromMasters(model_->tables());
    }
    Timeline scratch;
    accountant_.ChargeSyncToGpus(p.hot_bytes, scratch);
    const double seconds = scratch.PhaseSumSeconds();
    report.timeline.Charge(Phase::kFaultRecovery, seconds);
    report.timeline.AddPcieBytes(p.hot_bytes);
    report.sync_bytes += p.hot_bytes;
    // Replicas now mirror the masters exactly.
    master_dirty.Clear();
    replica_dirty.Clear();
    replica_initialized = true;
  };

  auto finalize = [&] {
    if (cache_on) overlays.CacheWriteback(overlays.cache.FlushAllDirty());
    report.transitions = scheduler.transitions();
    report.final_rate = scheduler.rate();
    FinishReport(report, eval_set.views, metric,
                 stale_on ? &staleness : nullptr);
  };

  for (size_t epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    // A resume lands mid-epoch: the restored scheduler state already
    // encodes the position, so only later epochs reset it.
    if (!(report.resumed && epoch == start_epoch)) scheduler.ResetEpoch();
    while (auto chunk = scheduler.Next()) {
      if (pipelined) {
        const FlatDataset* src = chunk->hot ? hot_stage_src : &packed.cold;
        std::vector<BatchPipeline::Spec> specs;
        specs.reserve(chunk->count);
        for (size_t i = chunk->begin; i < chunk->begin + chunk->count; ++i) {
          const size_t begin = i * GlobalBatchSize();
          const size_t count =
              std::min(GlobalBatchSize(), src->size() - begin);
          specs.push_back(BatchPipeline::Spec{
              src, std::span<const uint64_t>(stage_ids).subspan(begin, count),
              chunk->hot});
        }
        prefetcher->Begin(std::move(specs));
      }
      // The chunk window spans everything charged for this chunk —
      // including the hot-slice syncs — so kOverlap can pair a cold
      // chunk's CPU time against the next hot chunk's GPU+DMA time.
      tracker.BeginSegment();
      if (chunk->hot) {
        // Cold->hot boundary: dirty cached hot rows reach the master
        // *before* the replicas pull, so the pull sees every cold-chunk
        // update — the same coherence order the dirty-sync path enforces.
        if (cache_on) {
          overlays.CacheWriteback(overlays.cache.FlushDirty(p.hot_set));
        }
        // Hot phase: replicas pull the latest rows (cold batches may have
        // updated hot entries on the CPU master).
        pull_to_gpus();
        for (size_t i = chunk->begin; i < chunk->begin + chunk->count; ++i) {
          FAE_ASSIGN_OR_RETURN(
              const bool crashed,
              DrainFaults(iteration, report, recover_corrupt_sync));
          if (crashed) {
            finalize();
            return report;
          }
          const BatchView* math_view =
              options_.run_math ? &hot_translated_views[i] : nullptr;
          if (pipelined) {
            const BatchView& staged = prefetcher->Acquire();
            if (options_.run_math) math_view = &staged;
          }
          const double prep = accountant_.ChargeInputPrep(
              BatchInputBytes(hot_batches[i].view), report.timeline);
          const double before = report.timeline.PhaseSumSeconds();
          accountant_.ChargeHotStep(hot_batches[i].work, report.timeline);
          const double step_seconds =
              report.timeline.PhaseSumSeconds() - before;
          tracker.OnStep(prep, step_seconds, step_seconds);
          if (options_.run_math) {
            exec_.MathStep(*math_view, replica_tables, metric, window);
          }
          if (pipelined) prefetcher->Release();
          if (dirty_sync) {
            // Untranslated indices — dirty tracking speaks master ids.
            for (size_t t = 0; t < num_tables; ++t) {
              replica_dirty.MarkAll(t, hot_batches[i].view.indices(t));
            }
          }
          ++iteration;
          ++report.num_batches;
        }
        push_to_cpu();
        // Hot->cold boundary: the push-to-masters just made every cached
        // copy of a hot row stale; the next cold reference refetches it.
        if (cache_on) overlays.cache.InvalidateHot(p.hot_set);
      } else {
        if (cache_on) {
          overlays.cache.BeginSegment();
          const size_t ahead = std::min<size_t>(
              chunk->begin + chunk->count,
              chunk->begin + options_.cache_lookahead);
          for (size_t i = chunk->begin; i < ahead; ++i) cold_cache_push(i);
        }
        for (size_t i = chunk->begin; i < chunk->begin + chunk->count; ++i) {
          FAE_ASSIGN_OR_RETURN(
              const bool crashed,
              DrainFaults(iteration, report, recover_corrupt_sync));
          if (crashed) {
            finalize();
            return report;
          }
          const BatchView* math_view = &cold_batches[i].view;
          if (pipelined) {
            const BatchView& staged = prefetcher->Acquire();
            math_view = &staged;
          }
          const double prep = accountant_.ChargeInputPrep(
              BatchInputBytes(cold_batches[i].view), report.timeline);
          const StepAccountant::BaselineParts parts =
              accountant_.ChargeBaselineStep(cold_work(i), report.timeline);
          tracker.OnStep(prep, parts.Total(), parts.Overlapped());
          if (cache_on) {
            overlays.CacheStep(cold_work(i), parts);
            const size_t ahead = i + options_.cache_lookahead;
            if (ahead < chunk->begin + chunk->count) cold_cache_push(ahead);
          }
          if (options_.run_math) {
            exec_.MathStep(*math_view, master_tables, metric, window,
                           stale_on ? &staleness : nullptr);
            // After the math: the tracker counted this step's skip/update
            // split.
            if (stale_on) {
              overlays.StaleSkipStep(cold_work(i), parts, staleness);
            }
          }
          if (pipelined) prefetcher->Release();
          if (dirty_sync) {
            // Cold inputs may update hot rows on the master; those rows
            // must reach the replicas before the next hot phase.
            for (size_t t = 0; t < num_tables; ++t) {
              for (uint32_t row : cold_batches[i].view.indices(t)) {
                if (p.hot_set.IsHot(t, row)) master_dirty.Mark(t, row);
              }
            }
          }
          ++iteration;
          ++report.num_batches;
        }
        // End of the cold chunk: requantize every staged cold row back
        // into the store. Flushing *here* — before the boundary eval and
        // any checkpoint — keeps the schedule deterministic (an eval or a
        // resume always sees requantized cold rows, never a mix that
        // depends on the checkpoint cadence) and restores the alloc-free
        // steady state (the staging buffer keeps its capacity).
        if (options_.run_math && target != ColdPrecision::kFp32) {
          for (EmbeddingTable* t : master_tables) {
            if (t->compressed()) t->FlushStaged();
          }
        }
      }
      if (tracker.mode() == PipelineMode::kOverlap) {
        // Pair the interleaved phases: a cold chunk banks its unhidden
        // CPU seconds, and the next hot chunk hides them under its own
        // unhidden GPU+DMA span (capped by the shorter of the two) — the
        // overlapped hot/cold schedule the pipelined trainer models.
        // Seconds an overlay already removed from a chunk are outside
        // its unhidden span, so no second is credited twice.
        const double unhidden =
            std::max(0.0, tracker.ChunkUnhiddenSeconds());
        if (chunk->hot) {
          const double hid = std::min(pending_cold_unhidden, unhidden);
          if (hid > 0.0) report.timeline.AddCredit(Credit::kOverlap, hid);
          pending_cold_unhidden = 0.0;
        } else {
          pending_cold_unhidden = unhidden;
        }
      }
      if (options_.run_math) {
        CurvePoint point = window.Flush(iteration);
        const EvalResult eval = Evaluate(*model_, eval_set.views);
        point.test_loss = eval.loss;
        point.test_acc = eval.accuracy;
        report.curve.push_back(point);
        scheduler.ReportTestLoss(eval.loss);
        if (stale_on) staleness.OnTestLoss(eval.loss);
      }
      // Chunk boundaries are the FAE save points: the masters have just
      // absorbed every GPU update, so the checkpoint needs no replica
      // state — a resume re-pulls the slice from the masters.
      if (next_save != 0 && iteration >= next_save) {
        FAE_RETURN_IF_ERROR(save_checkpoint(epoch));
        next_save = (iteration / ckpt.every_steps + 1) * ckpt.every_steps;
      }
    }
  }
  finalize();
  return report;
}

}  // namespace fae
