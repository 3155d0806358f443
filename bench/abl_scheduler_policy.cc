// Ablation: the Shuffle Scheduler's adaptive rate (Eq 7) vs fixed rates
// R(1), R(50), R(100). Measures final test accuracy (real math) and the
// number of hot<->cold transitions (each costs one hot-slice sync).
//
// Expected: R(100) minimizes sync but risks accuracy (hot-only stretches);
// R(1) maximizes shuffling at maximal sync cost; the adaptive policy sits
// near R(1)/R(50) accuracy at a fraction of the transitions.

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("abl_scheduler_policy", {"epochs", "inputs"});
  const size_t inputs = args.GetNonNegativeInt("inputs", 6000);
  const size_t epochs = args.GetPositiveInt("epochs", 2);
  const DatasetScale scale = DatasetScale::kTiny;

  bench::PrintHeader("Ablation: adaptive vs fixed scheduler rates");
  std::printf("%-10s %12s %12s %12s %14s\n", "policy", "test-acc%",
              "test-loss", "transitions", "sync-time");

  Dataset dataset = bench::MakeWorkloadDataset(WorkloadKind::kKaggleDlrm,
                                               scale, inputs);
  Dataset::Split split = dataset.MakeSplit(0.15);

  struct Policy {
    const char* name;
    double initial;
    bool adaptive;
  };
  const Policy policies[] = {{"adaptive", 50.0, true},
                             {"R(1)", 1.0, false},
                             {"R(50)", 50.0, false},
                             {"R(100)", 100.0, false}};

  for (const Policy& policy : policies) {
    FaeConfig cfg;
    cfg.sample_rate = 0.2;
    cfg.large_table_bytes = bench::LargeTableCutoff(scale);
    cfg.gpu_memory_budget =
        bench::HotBudget(scale, dataset.schema().embedding_dim);
    cfg.num_threads = 2;
    cfg.initial_rate = policy.initial;
    if (!policy.adaptive) {
      // Pin the rate by collapsing the adaptation band.
      cfg.min_rate = policy.initial;
      cfg.max_rate = policy.initial;
    }

    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = epochs;
    opt.run_math = true;
    opt.eval_samples = 512;

    auto model = MakeModel(dataset.schema(), false, 5);
    Trainer trainer(model.get(), MakePaperServer(1), opt);
    auto report = trainer.TrainFae(dataset, split, cfg);
    if (!report.ok()) {
      std::printf("%-10s failed: %s\n", policy.name,
                  report.status().ToString().c_str());
      continue;
    }
    std::printf("%-10s %11.2f%% %12.4f %12zu %14s\n", policy.name,
                100 * report->final_test_acc, report->final_test_loss,
                report->transitions,
                HumanSeconds(
                    report->timeline.seconds(Phase::kEmbeddingSync))
                    .c_str());
  }
  std::printf(
      "\nDesign note (DESIGN.md): Eq 7 trades sync overhead against the\n"
      "shuffling the optimizer needs; the adaptive policy should match\n"
      "fine-grained shuffling accuracy with fewer transitions than R(1).\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
