#include "core/fae_pipeline.h"

#include "core/fae_format.h"
#include "util/logging.h"

namespace fae {

StatusOr<FaePlan> FaePipeline::Prepare(
    const Dataset& dataset, const std::vector<uint64_t>& train_ids) const {
  Calibrator calibrator(config_);
  FAE_ASSIGN_OR_RETURN(CalibrationResult calibration,
                       calibrator.Calibrate(dataset));

  FaePlan plan;
  plan.threshold = calibration.threshold;
  plan.h_zt = calibration.h_zt;
  plan.hot_set =
      EmbeddingClassifier::Classify(calibration.profile, dataset.schema(),
                                    calibration.h_zt,
                                    config_.large_table_bytes);
  plan.hot_bytes = plan.hot_set.HotBytes(dataset.schema().embedding_dim);
  plan.hot_access_share = plan.hot_set.HotAccessShare(calibration.profile);

  InputProcessor processor(config_.num_threads);
  // The calibration record (per-row profile, threshold sweep) dies here:
  // nothing downstream reads it, and a plan outlives many steps.
  plan.inputs = processor.Classify(dataset, plan.hot_set, train_ids);
  return plan;
}

StatusOr<FaePlan> FaePipeline::PrepareCached(
    const Dataset& dataset, const std::vector<uint64_t>& train_ids,
    const std::string& cache_path) const {
  StatusOr<FaePreprocessed> cached = FaeFormat::Load(cache_path, dataset);
  if (cached.ok()) {
    FaePlan plan;
    plan.threshold = cached->threshold;
    plan.h_zt = cached->h_zt;
    plan.hot_set = std::move(cached->hot_set);
    plan.hot_bytes = plan.hot_set.HotBytes(dataset.schema().embedding_dim);
    plan.inputs.hot_ids = std::move(cached->hot_ids);
    plan.inputs.cold_ids = std::move(cached->cold_ids);
    plan.from_cache = true;
    return plan;
  }
  if (cached.status().code() != StatusCode::kNotFound) {
    FAE_LOG(Warning) << "ignoring unusable FAE cache " << cache_path << ": "
                     << cached.status().ToString();
  }

  FAE_ASSIGN_OR_RETURN(FaePlan plan, Prepare(dataset, train_ids));

  FaePreprocessed out;
  out.fingerprint = FaeFormat::Fingerprint(dataset);
  out.threshold = plan.threshold;
  out.h_zt = plan.h_zt;
  out.hot_set = plan.hot_set;
  out.hot_ids = plan.inputs.hot_ids;
  out.cold_ids = plan.inputs.cold_ids;
  const Status save_status = FaeFormat::Save(cache_path, out);
  if (!save_status.ok()) {
    FAE_LOG(Warning) << "could not write FAE cache " << cache_path << ": "
                     << save_status.ToString();
  }
  return plan;
}

FaePlan DegradePlanToBudget(const Dataset& dataset, const FaePlan& plan,
                            uint64_t budget_bytes, size_t num_threads) {
  FaePlan out = plan;
  const size_t dim = dataset.schema().embedding_dim;
  out.demoted_rows = out.hot_set.DemoteToBudget(dim, budget_bytes);
  out.hot_bytes = out.hot_set.HotBytes(dim);
  out.degraded = true;
  if (out.demoted_rows == 0) return out;

  // Inputs classified hot against the original set may now touch a demoted
  // row; re-run the classification over just those inputs and move the
  // casualties to the cold list (relative order within each class is
  // preserved, keeping the run deterministic).
  InputProcessor processor(num_threads);
  ProcessedInputs reclassified =
      processor.Classify(dataset, out.hot_set, plan.inputs.hot_ids);
  out.fallback_inputs = reclassified.cold_ids.size();
  out.inputs.hot_ids = std::move(reclassified.hot_ids);
  out.inputs.cold_ids = plan.inputs.cold_ids;
  out.inputs.cold_ids.insert(out.inputs.cold_ids.end(),
                             reclassified.cold_ids.begin(),
                             reclassified.cold_ids.end());
  FAE_LOG(Warning) << "hot slice exceeded the GPU budget; demoted "
                   << out.demoted_rows << " rows and moved "
                   << out.fallback_inputs
                   << " inputs to the cold path (degraded mode)";
  return out;
}

}  // namespace fae
