#ifndef FAE_SIM_PARTITION_H_
#define FAE_SIM_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fae {

/// A placement of weighted items (embedding tables) onto `num_bins`
/// devices.
struct Partition {
  /// bin_of[i] = device holding item i.
  std::vector<int> bin_of;
  /// Total weight per device.
  std::vector<uint64_t> bin_weight;

  uint64_t MaxWeight() const;
  /// max / mean — 1.0 is perfectly balanced; the model-parallel trainer
  /// charges its per-device work scaled by this factor.
  double Imbalance() const;
};

/// Longest-processing-time greedy partition: sort items by descending
/// weight, always placing into the lightest bin. The standard heuristic
/// recommendation systems use to shard embedding tables across devices
/// (guaranteed within 4/3 of the optimal makespan).
Partition PartitionLpt(const std::vector<uint64_t>& weights, int num_bins);

}  // namespace fae

#endif  // FAE_SIM_PARTITION_H_
