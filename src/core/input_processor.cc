#include "core/input_processor.h"

#include <algorithm>

#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fae {

ProcessedInputs InputProcessor::Classify(
    const Dataset& dataset, const HotSet& hot_set,
    const std::vector<uint64_t>& which) const {
  Stopwatch watch;
  ProcessedInputs out;
  std::vector<uint8_t> is_hot(which.size(), 0);

  // Streams the flat CSR buffers columnar: one pass per table over its
  // contiguous arrays (all-hot tables skipped outright — every lookup
  // passes), demoting a sample on its first cold lookup. The final
  // hot/cold verdict is an AND across tables, so the per-table order
  // produces exactly the per-sample-order classification.
  const FlatDataset& flat = dataset.flat();
  const size_t num_tables = flat.schema().num_tables();
  auto classify_range = [&](size_t begin, size_t end) {
    // Survivor-list sweep: each table pass walks only the samples every
    // earlier table kept fully hot, so a sample stops costing anything
    // after the pass that demotes it (the columnar analogue of the AoS
    // loop's early exit).
    std::vector<uint32_t> survivors;
    survivors.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      survivors.push_back(static_cast<uint32_t>(i));
    }
    std::vector<uint32_t> next;
    next.reserve(survivors.size());
    for (size_t t = 0; t < num_tables && !survivors.empty(); ++t) {
      if (hot_set.table_all_hot(t)) continue;
      const std::span<const uint8_t> mask = hot_set.mask(t);
      next.clear();
      for (uint32_t i : survivors) {
        bool hot = true;
        for (uint32_t row : flat.lookups(t, which[i])) {
          if (mask[row] == 0) {
            hot = false;
            break;
          }
        }
        if (hot) next.push_back(i);
      }
      survivors.swap(next);
    }
    for (uint32_t i : survivors) is_hot[i] = 1;
  };

  if (num_threads_ > 1 && which.size() > 1024) {
    ThreadPool pool(num_threads_);
    pool.ParallelFor(which.size(), classify_range);
  } else {
    classify_range(0, which.size());
  }

  for (size_t i = 0; i < which.size(); ++i) {
    (is_hot[i] ? out.hot_ids : out.cold_ids).push_back(which[i]);
  }
  out.seconds = watch.ElapsedSeconds();
  return out;
}

InputProcessor::PackedFlat InputProcessor::PackFlat(
    const Dataset& dataset, const ProcessedInputs& inputs, uint64_t seed) {
  // Fisher-Yates within each class keeps batches pure but random.
  Xoshiro256 rng(seed);
  std::vector<uint64_t> hot = inputs.hot_ids;
  std::vector<uint64_t> cold = inputs.cold_ids;
  for (size_t i = hot.size(); i > 1; --i) {
    std::swap(hot[i - 1], hot[rng.NextBounded(i)]);
  }
  for (size_t i = cold.size(); i > 1; --i) {
    std::swap(cold[i - 1], cold[rng.NextBounded(i)]);
  }
  PackedFlat packed{dataset.flat().Gather(hot), dataset.flat().Gather(cold)};
  return packed;
}

}  // namespace fae
