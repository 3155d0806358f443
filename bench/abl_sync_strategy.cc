// Ablation: wholesale hot-slice sync (the paper's scheme) vs dirty-row
// delta sync at every hot<->cold transition.
//
// Expected: identical training math (verified in
// tests/engine/placements_test.cc), strictly fewer synced bytes, and a
// smaller embedding-sync share — a straightforward optimization over the
// paper's design, mattering most when hot slices are large (the paper
// notes Kaggle's larger hot slice inflates its sync share, Fig 14).

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("abl_sync_strategy", {"gpus", "inputs", "scale"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "tiny"));
  const size_t inputs = args.GetNonNegativeInt("inputs", 60000);
  const int gpus = static_cast<int>(args.GetPositiveInt("gpus", 4));

  bench::PrintHeader("Ablation: full vs dirty-row embedding sync");
  std::printf("%d GPUs\n\n", gpus);
  std::printf("%-22s %-7s %12s %12s %12s %10s\n", "workload", "sync",
              "synced", "sync-time", "total", "sync%");

  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    Dataset::Split split = dataset.MakeSplit(0.1);
    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.large_table_bytes = bench::LargeTableCutoff(scale);
    cfg.gpu_memory_budget =
        bench::HotBudget(scale, dataset.schema().embedding_dim);
    cfg.num_threads = 2;
    FaePipeline pipeline(cfg);
    auto plan = pipeline.Prepare(dataset, split.train);
    if (!plan.ok()) continue;

    for (SyncStrategy strategy : {SyncStrategy::kFull, SyncStrategy::kDirty}) {
      TrainOptions opt;
      opt.per_gpu_batch = kind == WorkloadKind::kTaobaoTbsm ? 256 : 1024;
      opt.epochs = 1;
      opt.run_math = false;
      opt.sync_strategy = strategy;

      SystemSpec sys = MakePaperServer(gpus);
      sys.hot_embedding_budget = cfg.gpu_memory_budget;
      auto model = MakeModel(dataset.schema(), true, 5);
      Trainer trainer(model.get(), sys, opt);
      auto report = trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
      if (!report.ok()) continue;
      const double sync_s = report->timeline.seconds(Phase::kEmbeddingSync);
      std::printf("%-22s %-7s %12s %12s %12s %9.1f%%\n",
                  std::string(WorkloadName(kind)).c_str(),
                  strategy == SyncStrategy::kFull ? "full" : "dirty",
                  HumanBytes(report->sync_bytes).c_str(),
                  HumanSeconds(sync_s).c_str(),
                  HumanSeconds(report->modeled_seconds).c_str(),
                  100.0 * sync_s / report->modeled_seconds);
    }
  }
  std::printf(
      "\nDirty sync ships only updated rows; both variants are numerically\n"
      "identical (tests/engine/placements_test.cc).\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
