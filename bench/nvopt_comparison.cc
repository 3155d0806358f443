// Reproduces the §V NvOPT comparison: FAE vs a mixed-precision-on-GPU
// baseline that places fp16 embedding tables on the device with no
// access-awareness (largest-first, until GPU memory runs out).
//
// Paper shape: FAE is 1.48x faster than NvOPT on the Terabyte dataset
// (1 V100, 32K batch) because the access-aware hot slice serves most
// lookups from GPU memory while NvOPT's placement spills the hottest
// tables' traffic to the CPU whenever capacity is short.

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("nvopt_comparison",
                   {"batch", "capacity_scale", "inputs", "scale"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "tiny"));
  // Default to inputs >> table rows, the regime of the paper's datasets
  // (45M-80M inputs vs <=10M-row tables).
  const size_t inputs = args.GetNonNegativeInt("inputs", 60000);
  const size_t batch = args.GetPositiveInt("batch", 4096);
  // Shrink the modeled GPU memory so the fp16 tables do not all fit, as on
  // the paper's Terabyte dataset (30 GB fp16 vs 16 GB V100). Scaled-down
  // tables need a scaled-down capacity for the same regime.
  const double capacity_scale = args.GetDouble("capacity_scale", 0.0);

  bench::PrintHeader("SecV: FAE vs NvOPT-style mixed-precision baseline");
  std::printf("1 GPU, %zu per-GPU batch\n\n", batch);
  std::printf("%-22s %14s %14s %14s %12s\n", "workload", "baseline",
              "nvopt", "fae", "fae/nvopt");

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
    opt.per_gpu_batch = batch;
    opt.epochs = 1;
    opt.run_math = false;

    SystemSpec sys = MakePaperServer(1);
    sys.hot_embedding_budget = cfg.gpu_memory_budget;
    // Default: capacity such that roughly half the fp16 bytes fit.
    const uint64_t total = dataset.schema().TotalEmbeddingBytes();
    sys.gpu.mem_capacity =
        capacity_scale > 0
            ? static_cast<uint64_t>(capacity_scale * sys.gpu.mem_capacity)
            : std::max<uint64_t>(total / 4, 1 << 20);

    auto base_model = MakeModel(dataset.schema(), true, 5);
    Trainer base_trainer(base_model.get(), sys, opt);
    TrainReport base = base_trainer.TrainBaseline(dataset, split);

    auto nv_model = MakeModel(dataset.schema(), true, 5);
    Trainer nv_trainer(nv_model.get(), sys, opt);
    auto nv = nv_trainer.Train(TrainMode::kNvOpt, dataset, split);

    auto fae_model = MakeModel(dataset.schema(), true, 5);
    Trainer fae_trainer(fae_model.get(), sys, opt);
    auto fae = fae_trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
    if (!nv.ok() || !fae.ok()) continue;

    std::printf("%-22s %14s %14s %14s %11.2fx\n",
                std::string(WorkloadName(kind)).c_str(),
                HumanSeconds(base.modeled_seconds).c_str(),
                HumanSeconds(nv->modeled_seconds).c_str(),
                HumanSeconds(fae->modeled_seconds).c_str(),
                nv->modeled_seconds / fae->modeled_seconds);
  }
  std::printf(
      "\nPaper reference: FAE is 1.48x faster than NvOPT on *Terabyte*\n"
      "(105.98 -> 71.58 min/epoch, 32K batch, one V100) — the dataset whose\n"
      "fp16 tables cannot fit the GPU. Kaggle/Taobao fit wholly in fp16 at\n"
      "paper scale, so NvOPT is competitive there and the paper makes no\n"
      "claim about them; only the Terabyte row reproduces a paper result.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
