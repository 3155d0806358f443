#ifndef FAE_CORE_FAE_PIPELINE_H_
#define FAE_CORE_FAE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/calibrator.h"
#include "core/embedding_classifier.h"
#include "core/fae_config.h"
#include "core/input_processor.h"
#include "data/dataset.h"
#include "util/statusor.h"

namespace fae {

/// Output of FAE's static preprocessing: everything the runtime needs to
/// schedule hot/cold training.
struct FaePlan {
  double threshold = 0.0;
  uint64_t h_zt = 0;
  HotSet hot_set;
  ProcessedInputs inputs;
  /// Actual bytes of the hot slice (hot rows x dim x 4).
  uint64_t hot_bytes = 0;
  /// Share of sampled accesses landing on hot entries (paper: 75-92%);
  /// zero when the plan was loaded from cache (no profile retained).
  double hot_access_share = 0.0;
  bool from_cache = false;

  /// Set by DegradePlanToBudget: the plan was shrunk to fit a tighter
  /// budget than it was calibrated for (popularity drift, a smaller GPU).
  bool degraded = false;
  /// Hot rows demoted to cold by the degradation pass.
  uint64_t demoted_rows = 0;
  /// Formerly-hot inputs that now touch a demoted row and fell back to the
  /// cold (hybrid CPU-GPU) execution path.
  uint64_t fallback_inputs = 0;
};

/// Ties the static components together: Calibrator -> Embedding Classifier
/// -> Input Processor, with optional FAE-format caching so the work runs
/// "only once per training dataset" (paper §II-B(1)).
class FaePipeline {
 public:
  explicit FaePipeline(FaeConfig config) : config_(std::move(config)) {}

  /// Full static pass over `dataset`, classifying the samples listed in
  /// `train_ids`.
  StatusOr<FaePlan> Prepare(const Dataset& dataset,
                            const std::vector<uint64_t>& train_ids) const;

  /// Like Prepare, but loads `cache_path` when it holds a valid plan for
  /// this dataset and writes it after a fresh run otherwise.
  StatusOr<FaePlan> PrepareCached(const Dataset& dataset,
                                  const std::vector<uint64_t>& train_ids,
                                  const std::string& cache_path) const;

  const FaeConfig& config() const { return config_; }

 private:
  FaeConfig config_;
};

/// Graceful degradation when a plan's hot slice no longer fits the per-GPU
/// budget (popularity drift after calibration, or a smaller deployment GPU):
/// demotes overflow entries from the hot set and reclassifies the affected
/// hot inputs as cold, so execution falls back toward the cold path instead
/// of aborting. The demotion itself is deterministic; see
/// HotSet::DemoteToBudget for the victim order.
FaePlan DegradePlanToBudget(const Dataset& dataset, const FaePlan& plan,
                            uint64_t budget_bytes, size_t num_threads);

}  // namespace fae

#endif  // FAE_CORE_FAE_PIPELINE_H_
