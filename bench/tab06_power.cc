// Reproduces Table VI: per-GPU average power, baseline vs FAE.
//
// Paper shape: FAE draws 5.3-8.8% less power per GPU, attributed to the
// reduced CPU-GPU communication. The power model (sim/device.cc) is
// calibrated to the V100's ~50 W P0-idle plus a communication-active
// increment; see EXPERIMENTS.md for the calibration notes.

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/trainer.h"
#include "models/factory.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("tab06_power", {"gpus", "inputs", "scale"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "tiny"));
  // Default to inputs >> table rows, the regime of the paper's datasets
  // (45M-80M inputs vs <=10M-row tables).
  const size_t inputs = args.GetNonNegativeInt("inputs", 60000);
  const int gpus = static_cast<int>(args.GetPositiveInt("gpus", 4));

  bench::PrintHeader("Table VI: per-GPU power, baseline vs FAE");
  std::printf("%d GPUs, paper per-GPU batch sizes (1K Criteo, 256 Taobao)\n\n",
              gpus);
  std::printf("%-22s %10s %10s %10s\n", "workload", "baseline", "fae",
              "reduction");

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

    TrainOptions opt;
    opt.per_gpu_batch = kind == WorkloadKind::kTaobaoTbsm ? 256 : 1024;
    opt.epochs = 1;
    opt.run_math = false;

    SystemSpec sys = MakePaperServer(gpus);
    sys.hot_embedding_budget = cfg.gpu_memory_budget;
    auto base_model = MakeModel(dataset.schema(), true, 5);
    Trainer base_trainer(base_model.get(), sys, opt);
    TrainReport base = base_trainer.TrainBaseline(dataset, split);
    auto fae_model = MakeModel(dataset.schema(), true, 5);
    Trainer fae_trainer(fae_model.get(), sys, opt);
    auto fae = fae_trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
    if (!fae.ok()) continue;

    std::printf("%-22s %9.2fW %9.2fW %9.1f%%\n",
                std::string(WorkloadName(kind)).c_str(), base.avg_gpu_watts,
                fae->avg_gpu_watts,
                100.0 * (base.avg_gpu_watts - fae->avg_gpu_watts) /
                    base.avg_gpu_watts);
  }
  std::printf(
      "\nPaper reference (Table VI): baseline 58.9-62.5 W, FAE 55.8-57.0 W,\n"
      "a 5.3-8.8%% reduction.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
