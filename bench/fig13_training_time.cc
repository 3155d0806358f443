// Reproduces Fig 13 + Table IV: modeled training time and speedup of FAE
// vs the hybrid baseline for 1, 2, and 4 GPUs (weak scaling), per
// workload. Cost-only mode: numerics are skipped, so only the hardware
// model determines the output.
//
// Paper shape: FAE reduces training time ~54-58% on average (2.34x mean
// speedup); 4 GPUs benefit most on the large datasets, while small
// datasets (Taobao) can regress slightly from 2 to 4 GPUs.

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("fig13_training_time", {"epochs", "inputs", "scale"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "tiny"));
  // Default to inputs >> table rows, the regime of the paper's datasets
  // (45M-80M inputs vs <=10M-row tables).
  const size_t inputs = args.GetNonNegativeInt("inputs", 60000);
  const size_t epochs = args.GetPositiveInt("epochs", 1);

  bench::PrintHeader(
      "Fig 13 + Table IV: training time, baseline vs FAE (1/2/4 GPUs)");
  std::printf("%-22s %5s %14s %14s %9s\n", "workload", "gpus", "baseline",
              "fae", "speedup");

  double speedup_sum = 0.0;
  int speedup_count = 0;
  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    Dataset::Split split = dataset.MakeSplit(0.1);
    // Paper batch sizes: 1K for Criteo, 256 for Taobao (per GPU).
    const size_t per_gpu_batch =
        kind == WorkloadKind::kTaobaoTbsm ? 256 : 1024;

    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.large_table_bytes = bench::LargeTableCutoff(scale);
    cfg.gpu_memory_budget =
        bench::HotBudget(scale, dataset.schema().embedding_dim);
    cfg.num_threads = 2;
    FaePipeline pipeline(cfg);
    auto plan = pipeline.Prepare(dataset, split.train);
    if (!plan.ok()) {
      std::printf("%-22s plan failed: %s\n",
                  std::string(WorkloadName(kind)).c_str(),
                  plan.status().ToString().c_str());
      continue;
    }

    for (int gpus : {1, 2, 4}) {
      TrainOptions opt;
      opt.per_gpu_batch = per_gpu_batch;
      opt.epochs = epochs;
      opt.run_math = false;

      auto base_model = MakeModel(dataset.schema(), /*full_size=*/true, 5);
      SystemSpec sys = MakePaperServer(gpus);
      sys.hot_embedding_budget = cfg.gpu_memory_budget;
      Trainer base_trainer(base_model.get(), sys, opt);
      TrainReport base = base_trainer.TrainBaseline(dataset, split);

      auto fae_model = MakeModel(dataset.schema(), /*full_size=*/true, 5);
      Trainer fae_trainer(fae_model.get(), sys, opt);
      auto fae = fae_trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
      if (!fae.ok()) {
        std::printf("  fae failed: %s\n", fae.status().ToString().c_str());
        continue;
      }
      const double speedup = base.modeled_seconds / fae->modeled_seconds;
      speedup_sum += speedup;
      ++speedup_count;
      std::printf("%-22s %5d %14s %14s %8.2fx\n",
                  std::string(WorkloadName(kind)).c_str(), gpus,
                  HumanSeconds(base.modeled_seconds).c_str(),
                  HumanSeconds(fae->modeled_seconds).c_str(), speedup);
    }
  }
  if (speedup_count > 0) {
    std::printf("\nmean speedup: %.2fx over %d configurations\n",
                speedup_sum / speedup_count, speedup_count);
  }
  std::printf(
      "\nPaper reference (Table IV, 10 epochs): e.g. Kaggle 245.3->122.7 min\n"
      "(1 GPU), Terabyte 364.8->156.4 min (4 GPUs); mean speedup 2.34x.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
