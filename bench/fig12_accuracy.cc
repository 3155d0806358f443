// Reproduces Fig 12 + Table III: training/test accuracy of FAE-scheduled
// training vs the baseline, per workload. Training math is executed for
// real (the hardware model only affects reported time, not numerics).
//
// Paper shape: FAE reaches baseline accuracy on every dataset; curves
// overlap within noise (Table III deltas are within ~0.5%).

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/trainer.h"
#include "models/factory.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("fig12_accuracy",
                   {"epochs", "full_model", "inputs", "scale"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "tiny"));
  const size_t inputs = args.GetNonNegativeInt("inputs", 12000);
  const size_t epochs = args.GetPositiveInt("epochs", 2);
  const bool full_model = args.GetBool("full_model", false);

  bench::PrintHeader("Fig 12 + Table III: accuracy, baseline vs FAE");

  std::printf("%-22s %10s %10s %10s %10s %9s %9s\n", "workload",
              "base-train", "fae-train", "base-test", "fae-test",
              "base-auc", "fae-auc");

  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    Dataset::Split split = dataset.MakeSplit(0.15);

    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = epochs;
    opt.run_math = true;
    opt.eval_samples = 1024;
    opt.evals_per_epoch = 8;

    FaeConfig cfg;
    cfg.sample_rate = 0.2;
    cfg.large_table_bytes = bench::LargeTableCutoff(scale);
    cfg.gpu_memory_budget =
        bench::HotBudget(scale, dataset.schema().embedding_dim);
    cfg.num_threads = 2;

    auto base_model = MakeModel(dataset.schema(), full_model, 5);
    Trainer base_trainer(base_model.get(), MakePaperServer(1), opt);
    TrainReport base = base_trainer.TrainBaseline(dataset, split);

    auto fae_model = MakeModel(dataset.schema(), full_model, 5);
    Trainer fae_trainer(fae_model.get(), MakePaperServer(1), opt);
    auto fae = fae_trainer.TrainFae(dataset, split, cfg);
    if (!fae.ok()) {
      std::printf("%-22s FAE failed: %s\n",
                  std::string(WorkloadName(kind)).c_str(),
                  fae.status().ToString().c_str());
      continue;
    }

    std::printf("%-22s %9.2f%% %9.2f%% %9.2f%% %9.2f%% %9.3f %9.3f\n",
                std::string(WorkloadName(kind)).c_str(),
                100 * base.final_train_acc, 100 * fae->final_train_acc,
                100 * base.final_test_acc, 100 * fae->final_test_acc,
                base.final_test_auc, fae->final_test_auc);

    std::printf("  curves (iteration: baseline-test%% / fae-test%%):\n");
    const size_t n = std::min(base.curve.size(), fae->curve.size());
    for (size_t i = 0; i < n; ++i) {
      std::printf("    iter %5zu: %6.2f%% / %6.2f%%\n",
                  base.curve[i].iteration, 100 * base.curve[i].test_acc,
                  100 * fae->curve[i].test_acc);
    }
    std::printf(
        "  fae: hot-inputs %.1f%%, transitions %zu, final rate R(%.0f)\n",
        100 * fae->hot_fraction, fae->transitions, fae->final_rate);
  }
  std::printf(
      "\nPaper reference (Table III): FAE matches baseline accuracy within\n"
      "~0.5%% on all three datasets (e.g. Kaggle test 78.86%% for both).\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
