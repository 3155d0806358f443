#ifndef FAE_FAE_H_
#define FAE_FAE_H_

/// Umbrella header: the whole public API of the FAE library.
///
/// Typical flow (see README.md / examples/quickstart.cpp):
///   1. data/       — build or load a dataset
///   2. core/       — FaePipeline::Prepare: calibrate, classify, pack
///   3. models/     — MakeModel (DLRM / TBSM per Table I)
///   4. engine/     — Trainer::TrainFaeWithPlan vs TrainBaseline
///   5. sim/        — the simulated hardware the engine charges time to

#include "core/calibrator.h"
#include "core/embedding_classifier.h"
#include "core/embedding_logger.h"
#include "core/embedding_replicator.h"
#include "core/fae_config.h"
#include "core/fae_format.h"
#include "core/fae_pipeline.h"
#include "core/input_processor.h"
#include "core/rand_em_box.h"
#include "core/shuffle_scheduler.h"
#include "data/dataset.h"
#include "data/dataset_io.h"
#include "data/minibatch.h"
#include "data/sample.h"
#include "data/schema.h"
#include "data/synthetic.h"
#include "embedding/embedding_bag.h"
#include "embedding/embedding_table.h"
#include "embedding/rowwise_adagrad.h"
#include "embedding/sparse_sgd.h"
#include "engine/metrics.h"
#include "engine/step_accountant.h"
#include "engine/trainer.h"
#include "models/dlrm.h"
#include "models/factory.h"
#include "models/model_config.h"
#include "models/model_io.h"
#include "models/rec_model.h"
#include "models/tbsm.h"
#include "sim/cost_model.h"
#include "sim/device.h"
#include "sim/partition.h"
#include "sim/timeline.h"
#include "stats/access_profile.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/sampling.h"
#include "stats/t_table.h"
#include "stats/zipf.h"
#include "tensor/attention.h"
#include "tensor/linear.h"
#include "tensor/loss.h"
#include "tensor/mlp.h"
#include "tensor/momentum_sgd.h"
#include "tensor/ops.h"
#include "tensor/sgd.h"
#include "tensor/tensor.h"
#include "util/file_io.h"
#include "util/half.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

#endif  // FAE_FAE_H_
