#ifndef FAE_ENGINE_LOOKAHEAD_CACHE_H_
#define FAE_ENGINE_LOOKAHEAD_CACHE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/embedding_classifier.h"
#include "data/batch_view.h"
#include "data/flat_dataset.h"
#include "engine/dirty_rows.h"

namespace fae {

/// Embedding-cache modes for TrainOptions::cache. Like the pipeline knobs,
/// the mode changes only the modeled schedule, never the math: losses,
/// tables, and checkpoint bytes are bit-identical with the cache on or off
/// (tests/engine/pipeline_determinism_test.cc).
enum class CacheMode {
  kOff,
  /// Lookahead oracle cache (BagPipe-style): the staging ring's upcoming
  /// batch specs reveal the exact rows the next k batches touch, so the
  /// cache prefetches them into a budgeted simulated GPU cache ahead of
  /// use and evicts only rows with no reference left in the window —
  /// furthest-in-future (Belady) eviction made exact by the oracle.
  kOracle,
};

std::string_view CacheModeName(CacheMode mode);

/// The lookahead oracle cache fused into the batch pipeline.
///
/// The pipeline already stages future batches in a depth-N ring, which
/// means the trainer can see the future: the union of embedding rows the
/// next `lookahead` batches reference. This class turns that visibility
/// into a cache policy:
///
///   - a per-table residency bitmap plus window reference counts track
///     which rows are in the simulated GPU cache and how many upcoming
///     lookups still need them (DirtyRows-style flat bitmaps + reused
///     lists — the steady-state step allocates nothing once warmed up,
///     per the PR-3 contract);
///   - rows missing from the cache are prefetched in window order by a
///     persistent cursor, at most once per window entry. Rows fetched one
///     or more steps before their batch trains count as *timely* (their
///     DMA hides under compute, like the input prefetcher hides gather);
///     rows first seen at their own step (segment starts, budget stalls)
///     count as *late* and pay serial transfer time;
///   - eviction only ever selects a resident row with zero references in
///     the window (any such row is Belady-optimal: its next use is beyond
///     every windowed row's). When capacity is full and every resident
///     row is still referenced, new rows simply miss — the budget is a
///     hard cap, never exceeded;
///   - rows updated on the GPU while cached are dirty; evicting one (or
///     flushing at a hot-chunk boundary) writes it back over PCIe through
///     the same sync cost path the trainer already charges;
///   - a master-side write to a cached row (FAE's hot chunks pushing to
///     the masters, serving's continuous training) marks it stale: the
///     next reference refetches the row (counted, and charged) before
///     serving it from the GPU.
///
/// The cache is a *cost-model overlay*: it observes the exact reference
/// stream and prices an alternative schedule, but the numeric path never
/// reads or writes it, which is what keeps training bit-identical cache
/// on/off. Per-step savings are computed against the real StepAccountant
/// and credited to the Timeline ledger as Credit::kCache — outside
/// Timeline::State, exactly like the pipeline's overlap savings, so
/// checkpoints stay byte-equal across cache modes.
///
/// In the serving loop the hot slice acts as the cache's *pinned tier*:
/// always GPU-resident, never counted against the budget, never evicted.
/// The cache proper manages only cold rows there (SetPinned + DropPinned
/// on hot swaps).
class LookaheadCache {
 public:
  struct Options {
    /// Hard capacity in rows, across all tables. Never exceeded.
    size_t budget_rows = 0;
    /// Oracle window in batches (>= 1; bounds shared with the pipeline
    /// ring — engine/ring_limits.h). 1 means only the current batch is
    /// visible: every first fetch is late, but cross-batch reuse still
    /// hits.
    size_t lookahead = 1;
    /// Modeled bytes to move one row over PCIe (embedding payload plus
    /// optimizer state — the sync machinery's row size).
    uint64_t row_bytes = 0;
    /// Training caches update resident rows on the GPU (hits dirty the
    /// row; evictions write back). Serving caches are read-only replicas
    /// refreshed from the master, never dirty.
    bool track_dirty = true;
  };

  /// What one step's batch cost looks like under the cache; the trainer
  /// prices this against the plain hybrid step through the accountant.
  struct StepCharge {
    uint64_t hit_lookups = 0;   // lookups served from the GPU cache
    uint64_t miss_lookups = 0;  // lookups on the CPU fallback path
    uint64_t hit_rows = 0;      // unique batch rows resident (or fetched)
    uint64_t miss_rows = 0;     // unique batch rows that could not fit
    uint64_t timely_prefetch_bytes = 0;  // shipped >= 1 step ahead
    uint64_t late_prefetch_bytes = 0;    // shipped at the step itself
    uint64_t stale_refreshes = 0;        // invalidated rows refetched
    uint64_t writeback_bytes = 0;        // dirty evictions this step
  };

  /// Lifetime totals (across segments and boundary flushes).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stale_refreshes = 0;
    uint64_t prefetch_bytes = 0;
    uint64_t writeback_bytes = 0;
    uint64_t evictions = 0;
    uint64_t peak_resident_rows = 0;
  };

  LookaheadCache() = default;

  /// Sizes every per-table structure. Steady-state operation allocates
  /// nothing beyond what warms up here (vectors only ever reuse capacity).
  void Init(const std::vector<uint64_t>& table_rows, const Options& options);

  /// Serving's pinned tier: rows hot in `pinned` are served from the
  /// replicated hot slice, so the cache skips them entirely. Pass nullptr
  /// (the default) for training, where the cache may hold any row.
  void SetPinned(const HotSet* pinned) { pinned_ = pinned; }

  /// Starts a new oracle segment (baseline epoch / FAE schedule chunk /
  /// serving session). The window resets — prefetch never crosses a
  /// segment boundary, mirroring the staging ring — but cache *contents*
  /// persist.
  void BeginSegment();

  /// Appends the next batch (in training order) to the oracle window.
  /// At most `lookahead` batches may be in flight.
  void PushBatch(const BatchView& view);
  void PushBatch(const FlatDataset& flat, std::span<const uint64_t> ids);

  /// Processes the oldest pushed batch — the one about to train: fetches
  /// its still-missing rows (late), classifies every lookup, slides the
  /// window, then runs the prefetch cursor over the remaining window
  /// (timely). Returns the step's traffic for the accountant.
  StepCharge OnStep();

  /// Cold->hot boundary (training): writes dirty rows of `hot` back to
  /// the master so the upcoming hot-slice sync is coherent. Returns the
  /// bytes written back (also tallied in stats).
  uint64_t FlushDirty(const HotSet& hot);

  /// Hot->cold boundary (training): the hot chunk just pushed replica
  /// updates to the masters, so cached copies of hot rows are stale; the
  /// next reference refetches them.
  void InvalidateHot(const HotSet& hot);

  /// End of run / crash unwind: writes every remaining dirty row back.
  uint64_t FlushAllDirty();

  /// Serving's continuous training just updated the master rows that
  /// `ids`'s lookups reference: resident cached copies refresh eagerly (a
  /// serving cache is a read-only replica — the next request must not be
  /// answered from the superseded copy). Returns the refreshed bytes for
  /// the caller to charge; also tallied as stale refreshes.
  uint64_t RefreshUpdated(const FlatDataset& flat,
                          std::span<const uint64_t> ids);

  /// Serving hot swap: rows of `pinned` now live in the replicated hot
  /// slice, so cached copies are dropped (freeing budget). Serving caches
  /// are clean, but dirty copies would be written back honestly. Returns
  /// bytes written back.
  uint64_t DropPinned(const HotSet& pinned);

  // Introspection (tests and the eviction-invariant fuzzer).
  bool IsResident(size_t table, uint32_t row) const {
    return TestBit(resident_[table], row);
  }
  bool IsDirty(size_t table, uint32_t row) const {
    return TestBit(dirty_[table], row);
  }
  bool IsStale(size_t table, uint32_t row) const {
    return TestBit(stale_[table], row);
  }
  uint32_t WindowRefs(size_t table, uint32_t row) const {
    return refs_[table][row];
  }
  size_t resident_rows() const { return resident_count_; }
  size_t window_batches() const { return tail_seq_ - head_seq_; }
  const Options& options() const { return options_; }
  const Stats& stats() const { return stats_; }

 private:
  using Bitmap = std::vector<uint64_t>;

  static bool TestBit(const Bitmap& b, uint32_t row) {
    return (b[row >> 6] >> (row & 63)) & 1;
  }
  static void SetBit(Bitmap& b, uint32_t row) {
    b[row >> 6] |= uint64_t{1} << (row & 63);
  }
  static void ClearBit(Bitmap& b, uint32_t row) {
    b[row >> 6] &= ~(uint64_t{1} << (row & 63));
  }
  static uint64_t Key(size_t table, uint32_t row) {
    return (static_cast<uint64_t>(table) << 32) | row;
  }

  bool IsPinned(size_t table, uint32_t row) const {
    return pinned_ != nullptr && pinned_->IsHot(table, row);
  }

  void PushKey(size_t table, uint32_t row, std::vector<uint64_t>& slot);
  /// Pops a Belady-evictable victim (resident, zero window refs, not
  /// pinned); false when every resident row is still referenced.
  bool PopEvictable(uint64_t* victim);
  void Evict(uint64_t key, uint64_t* writeback_bytes);
  /// Inserts `key`, evicting one victim if at capacity. False when full
  /// with nothing evictable (the row becomes a miss).
  bool TryInsert(size_t table, uint32_t row, bool timely, StepCharge& c);
  /// Walks every resident (table, row); `fn` may clear bits but must not
  /// insert.
  template <typename Fn>
  void ForEachResident(Fn&& fn);

  Options options_;
  const HotSet* pinned_ = nullptr;

  // Per-table state, sized once in Init.
  std::vector<Bitmap> resident_;
  std::vector<Bitmap> dirty_;
  std::vector<Bitmap> stale_;
  std::vector<Bitmap> evict_flag_;  // row has a live evictable_ entry
  std::vector<std::vector<uint32_t>> refs_;  // upcoming window references

  size_t resident_count_ = 0;
  /// LIFO of candidate victims, lazily validated at pop (a row may have
  /// been re-referenced or dropped since it was flagged). Any validated
  /// entry is Belady-optimal, so order among them is free.
  std::vector<uint64_t> evictable_;

  /// The window ring: lookahead reusable per-batch key lists, plus the
  /// absolute batch sequence numbers delimiting the live span and the
  /// persistent prefetch cursor (batch seq + index into its key list).
  std::vector<std::vector<uint64_t>> window_;
  size_t head_seq_ = 0;
  size_t tail_seq_ = 0;
  size_t cursor_seq_ = 0;
  size_t cursor_idx_ = 0;

  /// Per-batch first-occurrence tracker (reused; cleared each step).
  DirtyRows batch_seen_;

  Stats stats_;
};

}  // namespace fae

#endif  // FAE_ENGINE_LOOKAHEAD_CACHE_H_
