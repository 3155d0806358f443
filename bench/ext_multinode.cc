// Extension (paper §IV-A3): the paper evaluates a single server ("the
// open-sourced DLRM and TBSM models do not support multi-server
// implementations. However, even in a multi-server scenario, we expect our
// insights to hold true"). This harness tests that expectation on the
// simulated cluster: N paper servers over a 100 GbE RDMA fabric, baseline
// vs FAE across the paper workloads and node counts, with FAE's hot slice
// replicated on every GPU of every node (§III).
//
// Gate (ctest's bench_multinode_smoke): every workload x node row must
// run, and FAE's modeled seconds must be below the baseline's in every row.
// A workload whose preprocessing or training fails is reported to stderr
// and fails the binary — never silently dropped. The runs are cost-only
// and take about 2 s, so the gate checks the committed table at its full
// size. (At much smaller sizes a 4-node global batch of 16k outgrows the
// whole dataset, and FAE's per-chunk syncs are no longer amortized.)
//
// Usage:
//   ext_multinode [--out=BENCH_multinode.json] [--scale=tiny]
//                 [--inputs=60000] [--gpus=4]
//
// Timing uses the simulator's modeled seconds (deterministic, so no
// reps); results are identical run to run.

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fae_pipeline.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

namespace fae {
namespace {

constexpr int kNodeCounts[] = {1, 2, 4};

struct ContextRow {
  std::string workload;
  int nodes = 0;
  double baseline_seconds = 0.0;
  double fae_seconds = 0.0;
  double net_share = 0.0;
};

void WriteJson(const std::string& path, int gpus,
               const std::vector<ContextRow>& context, size_t expected_rows,
               bool gate_ok) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": \"ext_multinode\",\n");
  std::fprintf(f, "  \"gpus_per_node\": %d,\n", gpus);
  std::fprintf(f, "  \"rows_expected\": %zu,\n", expected_rows);
  std::fprintf(f, "  \"rows_run\": %zu,\n", context.size());
  std::fprintf(f, "  \"criterion_ok\": %s,\n", gate_ok ? "true" : "false");
  std::fprintf(f, "  \"context\": [\n");
  for (size_t i = 0; i < context.size(); ++i) {
    const ContextRow& r = context[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"nodes\": %d, "
                 "\"baseline_seconds\": %.9f, \"fae_seconds\": %.9f, "
                 "\"baseline_network_share\": %.4f}%s\n",
                 r.workload.c_str(), r.nodes, r.baseline_seconds,
                 r.fae_seconds, r.net_share,
                 i + 1 < context.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Baseline vs FAE for every paper workload at every node count. A row
/// that fails to preprocess or train is reported to stderr and left out,
/// which the caller's row count turns into a failure.
std::vector<ContextRow> RunContextTable(DatasetScale scale, size_t inputs,
                                        int gpus) {
  std::vector<ContextRow> rows;
  std::printf("%d GPUs per node, weak scaling\n\n", gpus);
  std::printf("%-22s %6s %14s %14s %9s %16s\n", "workload", "nodes",
              "baseline", "fae", "speedup", "base net-share");

  for (WorkloadKind kind : bench::AllWorkloads()) {
    const std::string name(WorkloadName(kind));
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
    if (!plan.ok()) {
      std::fprintf(stderr, "skip %s: preprocessing failed: %s\n",
                   name.c_str(), plan.status().ToString().c_str());
      continue;
    }

    for (int nodes : kNodeCounts) {
      TrainOptions opt;
      opt.per_gpu_batch = kind == WorkloadKind::kTaobaoTbsm ? 256 : 1024;
      opt.epochs = 1;
      opt.run_math = false;

      SystemSpec sys = MakeMultiNodeCluster(nodes, gpus);
      sys.hot_embedding_budget = cfg.gpu_memory_budget;
      auto base_model = MakeModel(dataset.schema(), true, 5);
      Trainer base_trainer(base_model.get(), sys, opt);
      TrainReport base = base_trainer.TrainBaseline(dataset, split);
      auto fae_model = MakeModel(dataset.schema(), true, 5);
      Trainer fae_trainer(fae_model.get(), sys, opt);
      auto fae = fae_trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
      if (!fae.ok()) {
        std::fprintf(stderr,
                     "skip %s at %d node(s): FAE training failed: %s\n",
                     name.c_str(), nodes, fae.status().ToString().c_str());
        continue;
      }

      const double net_share =
          base.timeline.seconds(Phase::kNetwork) / base.modeled_seconds;
      std::printf("%-22s %6d %14s %14s %8.2fx %15.1f%%\n", name.c_str(),
                  nodes, HumanSeconds(base.modeled_seconds).c_str(),
                  HumanSeconds(fae->modeled_seconds).c_str(),
                  base.modeled_seconds / fae->modeled_seconds,
                  100 * net_share);
      rows.push_back({name, nodes, base.modeled_seconds,
                      fae->modeled_seconds, net_share});
    }
  }
  return rows;
}

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  args.AcceptsOnly("ext_multinode", {"gpus", "inputs", "out", "scale"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "tiny"));
  const size_t inputs = static_cast<size_t>(
      args.GetNonNegativeInt("inputs", 60000));
  const int gpus = static_cast<int>(args.GetPositiveInt("gpus", 4));

  bench::PrintHeader(
      "Extension: multi-node scaling (N paper servers over 100GbE)");
  const std::vector<ContextRow> context =
      RunContextTable(scale, inputs, gpus);

  const size_t expected_rows =
      bench::AllWorkloads().size() * std::size(kNodeCounts);
  bool fae_wins = true;
  for (const ContextRow& r : context) {
    if (!(r.fae_seconds < r.baseline_seconds)) {
      std::fprintf(stderr, "FAIL: %s at %d node(s): FAE %s >= baseline %s\n",
                   r.workload.c_str(), r.nodes,
                   HumanSeconds(r.fae_seconds).c_str(),
                   HumanSeconds(r.baseline_seconds).c_str());
      fae_wins = false;
    }
  }
  const bool all_rows = context.size() == expected_rows;
  if (!all_rows) {
    std::fprintf(stderr, "FAIL: %zu of %zu workload x node rows ran\n",
                 context.size(), expected_rows);
  }
  const bool gate_ok = all_rows && fae_wins;

  const std::string out = args.GetString("out", "BENCH_multinode.json");
  WriteJson(out, gpus, context, expected_rows, gate_ok);
  std::printf("\nFAE below baseline in every row (%zu of %zu rows): %s\n",
              context.size(), expected_rows, gate_ok ? "yes" : "NO");
  std::printf("wrote %s\n", out.c_str());
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) { return fae::Run(argc, argv); }
