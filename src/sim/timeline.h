#ifndef FAE_SIM_TIMELINE_H_
#define FAE_SIM_TIMELINE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace fae {

/// Training-phase taxonomy used in the paper's latency breakdown (Fig 14).
enum class Phase : int {
  kEmbeddingForward = 0,   // embedding bag lookups + pooling
  kMlpForward,             // bottom/top MLP (and attention) forward
  kMlpBackward,            // dense backward
  kEmbeddingBackward,      // scatter of embedding gradients
  kOptimizerDense,         // SGD over MLP parameters
  kOptimizerSparse,        // SGD over touched embedding rows
  kCpuGpuTransfer,         // activations/gradients over PCIe
  kAllReduce,              // gradient all-reduce over NVLink
  kEmbeddingSync,          // FAE-only: hot-table sync at hot<->cold swaps
  kNetwork,                // inter-node traffic (multi-node clusters only)
  kFaultRecovery,          // retry backoff + re-sync after injected faults
  kInputPrep,              // mini-batch gather/pack into staging buffers
  kNumPhases,
};

std::string_view PhaseName(Phase phase);

/// Cost overlays that credit modeled seconds back against the phase
/// charges. Every overlay keeps the real phase charges untouched and
/// records what it saves (or, signed negative, costs) here, so the
/// per-phase breakdown and the checkpointed State stay identical with any
/// overlay on or off. Credits are summed in enum order; adding or
/// removing a kind whose credit is always +0.0 leaves every
/// PhaseSumSeconds() - CreditSum() bit-identical (x + 0.0 == x).
enum class Credit : int {
  kOverlap = 0,  // pipelined overlap (--pipeline; DESIGN.md §11)
  kCache,        // lookahead oracle cache (--cache; §13)
  kStaleSkip,    // stale-update skipping (--stale-skip; §16)
  kNumCredits,
};

/// Accumulates modeled seconds per phase plus per-device busy time and
/// link traffic, from which wall time, breakdowns (Fig 14), communication
/// tables (Table V) and power (Table VI) are derived.
class Timeline {
 public:
  /// Accumulator snapshot for checkpoint/resume: restoring it reproduces
  /// the phase/traffic/busy-time accumulators of an uninterrupted run.
  ///
  /// Deliberately excludes the credit ledger (AddCredit) and the overlay
  /// counters: phase charges are identical with every overlay on or off,
  /// so checkpoints are byte-identical across --pipeline, --cache and
  /// --stale-skip modes and a resume may switch them
  /// (DESIGN.md §11). The cost: a resumed run's credits restart from zero,
  /// so it reports a higher modeled wall than the same run uninterrupted.
  struct State {
    std::array<double, static_cast<int>(Phase::kNumPhases)> seconds{};
    double cpu_busy = 0.0;
    double gpu_busy = 0.0;
    uint64_t pcie_bytes = 0;
    uint64_t nvlink_bytes = 0;
    uint64_t network_bytes = 0;
  };

  State state() const {
    return State{seconds_,     cpu_busy_,     gpu_busy_,
                 pcie_bytes_,  nvlink_bytes_, network_bytes_};
  }
  void set_state(const State& state) {
    seconds_ = state.seconds;
    cpu_busy_ = state.cpu_busy;
    gpu_busy_ = state.gpu_busy;
    pcie_bytes_ = state.pcie_bytes;
    nvlink_bytes_ = state.nvlink_bytes;
    network_bytes_ = state.network_bytes;
  }

  void Charge(Phase phase, double seconds) {
    seconds_[static_cast<int>(phase)] += seconds;
  }

  /// Also attributes the time as busy time on CPU or GPU.
  void ChargeCpu(Phase phase, double seconds) {
    Charge(phase, seconds);
    cpu_busy_ += seconds;
  }
  void ChargeGpu(Phase phase, double seconds) {
    Charge(phase, seconds);
    gpu_busy_ += seconds;
  }

  void AddPcieBytes(uint64_t bytes) { pcie_bytes_ += bytes; }
  void AddNvlinkBytes(uint64_t bytes) { nvlink_bytes_ += bytes; }
  void AddNetworkBytes(uint64_t bytes) { network_bytes_ += bytes; }

  double seconds(Phase phase) const {
    return seconds_[static_cast<int>(phase)];
  }

  /// The credit ledger: modeled seconds an overlay removed from the wall.
  /// Signed — cache boundary writebacks cost DMA the plain run never pays
  /// — and the net is honest, not clamped per event.
  void AddCredit(Credit credit, double seconds) {
    credits_[static_cast<int>(credit)] += seconds;
  }
  double credit(Credit credit) const {
    return credits_[static_cast<int>(credit)];
  }
  /// Sum of every credit, in enum order.
  double CreditSum() const;

  /// Lookahead-oracle cache counters (engine/lookahead_cache.h); outside
  /// State like the ledger.
  struct CacheCounters {
    uint64_t hits = 0;             // lookups served from the GPU cache
    uint64_t misses = 0;           // lookups on the CPU fallback path
    uint64_t stale_refreshes = 0;  // resident rows refetched after a
                                   // master-side write invalidated them
    uint64_t prefetch_bytes = 0;   // rows shipped ahead of use
    uint64_t writeback_bytes = 0;  // dirty rows flushed on evict/boundary
    /// Cold-step CPU<->GPU transfer, plain vs with the cache (activation
    /// round trips scaled by the miss share, plus all cache DMA). The
    /// bench's ">= 2x transfer reduction" gate reads these.
    uint64_t plain_transfer_bytes = 0;
    uint64_t effective_transfer_bytes = 0;
  };
  CacheCounters& cache_counters() { return cache_counters_; }
  const CacheCounters& cache_counters() const { return cache_counters_; }

  /// Stale-skip counters (engine/staleness_tracker.h); outside State like
  /// the ledger.
  struct StaleSkipCounters {
    uint64_t skipped_rows = 0;      // row-updates elided this run
    uint64_t updated_rows = 0;      // row-updates applied this run
    uint64_t reactivated_rows = 0;  // rows un-frozen by the accuracy guard
    uint64_t guard_tightens = 0;    // guard halved the threshold (loss rose)
    uint64_t guard_widens = 0;      // guard doubled it (steady improvement)
  };
  StaleSkipCounters& stale_skip_counters() { return stale_skip_counters_; }
  const StaleSkipCounters& stale_skip_counters() const {
    return stale_skip_counters_;
  }

  /// PhaseSumSeconds() minus every credit: the modeled wall-clock with the
  /// overlays applied. Equals PhaseSumSeconds() when no overlay ran.
  double OverlappedTotalSeconds() const;

  /// Fraction of the serial wall-clock hidden by overlap, in [0, 1).
  double OverlapFraction() const;

  /// Sum of per-phase seconds: the modeled wall-clock of the synchronous
  /// pipeline (total device work).
  double PhaseSumSeconds() const;

  double cpu_busy_seconds() const { return cpu_busy_; }
  double gpu_busy_seconds() const { return gpu_busy_; }
  uint64_t pcie_bytes() const { return pcie_bytes_; }
  uint64_t nvlink_bytes() const { return nvlink_bytes_; }
  uint64_t network_bytes() const { return network_bytes_; }

  /// Multi-line per-phase report with percentages.
  std::string Report() const;

 private:
  std::array<double, static_cast<int>(Phase::kNumPhases)> seconds_{};
  /// Not part of State — see the State doc comment.
  std::array<double, static_cast<int>(Credit::kNumCredits)> credits_{};
  CacheCounters cache_counters_;
  StaleSkipCounters stale_skip_counters_;
  double cpu_busy_ = 0.0;
  double gpu_busy_ = 0.0;
  uint64_t pcie_bytes_ = 0;
  uint64_t nvlink_bytes_ = 0;
  uint64_t network_bytes_ = 0;
};

}  // namespace fae

#endif  // FAE_SIM_TIMELINE_H_
