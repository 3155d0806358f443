#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads and the code that drives the library through
// them. Each workload is one process: its inputs are generated from the
// seed into a .faed file first, and the measured program only loads that
// file.

#include <cstdint>
#include <string>
#include <vector>

#include "data/schema.h"
#include "engine/lookahead_cache.h"
#include "engine/step_executor.h"
#include "report.h"
#include "util/status.h"

namespace perfbench {

/// The public entry point a workload runs.
enum class Entry {
  kFae,     // Trainer::TrainFaeWithPlan after FaePipeline::Prepare
  kHybrid,  // Trainer::TrainBaselineResumable (the hybrid CPU-GPU baseline)
  kServe,   // ServingLoop::Serve with continuous training
};

struct WorkloadSpec {
  std::string name;
  Entry entry = Entry::kFae;
  fae::WorkloadKind kind = fae::WorkloadKind::kKaggleDlrm;
  fae::DatasetScale scale = fae::DatasetScale::kSmall;
  size_t inputs = 0;
  double zipf = 1.15;
  double drift = 0.0;
  /// Every workload runs its kernels on one thread (plus the pipeline
  /// producer when pipelined). This is the pool size that the traced run's
  /// thread-scaling probe compares against one thread
  /// (util.thread_speedup); 1 skips the probe.
  size_t scaling_threads = 1;
  /// Per-GPU batch for training, request batch for serving.
  size_t batch = 1024;
  int gpus = 4;
  uint64_t budget_bytes = 0;
  double sample_rate = 0.05;
  fae::PipelineMode pipeline = fae::PipelineMode::kOff;
  fae::CacheMode cache = fae::CacheMode::kOff;
  size_t cache_budget_rows = 0;
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Writes the workload's inputs for `seed` to `path` (a .faed file). The
/// same seed always writes the same bytes.
fae::Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& path);

struct RunOptions {
  std::string data_path;
  /// Per-run directory for files the program writes (the serve swap
  /// artifact).
  std::string scratch_dir;
  /// Where the traced run writes its Chrome trace.
  std::string trace_out;
  double seconds = 10.0;
  bool trace = false;
};

/// Runs one measurement of `spec`. With trace off the result carries the
/// end-to-end metrics; with trace on, the per-layer metrics.
Result RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
