// Reproduces Fig 14 + Table V: per-phase latency breakdown of baseline and
// FAE executions (1/2/4 GPUs) and the absolute CPU-GPU communication time.
//
// Paper shape: the CPU-side sparse optimizer dominates the baseline; FAE
// adds an embedding-sync slice but removes most optimizer and transfer
// time; communication drops ~4x-6x (Table V).

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

namespace fae {
namespace {

void PrintBreakdown(const char* label, const Timeline& tl) {
  const double total = tl.PhaseSumSeconds();
  std::printf("  %-10s total %-10s", label, HumanSeconds(total).c_str());
  for (Phase phase :
       {Phase::kEmbeddingForward, Phase::kMlpForward, Phase::kMlpBackward,
        Phase::kEmbeddingBackward, Phase::kOptimizerSparse,
        Phase::kOptimizerDense, Phase::kCpuGpuTransfer, Phase::kAllReduce,
        Phase::kEmbeddingSync}) {
    const double pct = total > 0 ? 100.0 * tl.seconds(phase) / total : 0.0;
    if (pct < 0.05) continue;
    std::printf(" %s=%.1f%%", std::string(PhaseName(phase)).c_str(), pct);
  }
  std::printf("\n");
}

void Run(const bench::Args& args) {
  args.AcceptsOnly("fig14_latency_breakdown", {"inputs", "scale"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "tiny"));
  // Default to inputs >> table rows, the regime of the paper's datasets
  // (45M-80M inputs vs <=10M-row tables).
  const size_t inputs = args.GetNonNegativeInt("inputs", 60000);

  bench::PrintHeader("Fig 14: latency breakdown; Table V: CPU-GPU comms");

  struct CommRow {
    std::string workload;
    int gpus;
    double base_comm;
    double fae_comm;
  };
  std::vector<CommRow> comm_rows;

  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    Dataset::Split split = dataset.MakeSplit(0.1);
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
      std::printf("%s: plan failed: %s\n",
                  std::string(WorkloadName(kind)).c_str(),
                  plan.status().ToString().c_str());
      continue;
    }

    std::printf("\n%s (hot inputs %.1f%%, hot slice %s)\n",
                std::string(WorkloadName(kind)).c_str(),
                100 * plan->inputs.HotFraction(),
                HumanBytes(plan->hot_bytes).c_str());

    for (int gpus : {1, 2, 4}) {
      TrainOptions opt;
      opt.per_gpu_batch = per_gpu_batch;
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

      std::printf(" %d GPU(s):\n", gpus);
      PrintBreakdown("baseline", base.timeline);
      PrintBreakdown("fae", fae->timeline);

      const double base_comm =
          base.timeline.seconds(Phase::kCpuGpuTransfer) +
          base.timeline.seconds(Phase::kEmbeddingSync);
      const double fae_comm =
          fae->timeline.seconds(Phase::kCpuGpuTransfer) +
          fae->timeline.seconds(Phase::kEmbeddingSync);
      comm_rows.push_back({std::string(WorkloadName(kind)), gpus, base_comm,
                           fae_comm});
    }
  }

  std::printf("\nTable V: CPU-GPU communication time\n");
  std::printf("%-22s %5s %14s %14s %9s\n", "workload", "gpus", "baseline",
              "fae", "ratio");
  for (const CommRow& row : comm_rows) {
    std::printf("%-22s %5d %14s %14s %8.2fx\n", row.workload.c_str(),
                row.gpus, HumanSeconds(row.base_comm).c_str(),
                HumanSeconds(row.fae_comm).c_str(),
                row.fae_comm > 0 ? row.base_comm / row.fae_comm : 0.0);
  }
  std::printf(
      "\nPaper reference: baseline is dominated by the CPU-side sparse\n"
      "optimizer; FAE's embedding-sync overhead stays small; Table V shows\n"
      "communication dropping e.g. 11.05->2.5 min (Kaggle, 1 GPU).\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
