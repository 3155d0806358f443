// Lookahead-oracle-cache ablation (the PR gate for --cache, DESIGN.md
// §13): runs the real engine with the pipelined FAE trainer — the PR-4
// overlap baseline — with the cache off and on, plus the synchronous
// baseline driver and a budget sweep for context.
//
// Three things are checked, and all fail the binary (ctest's
// bench_cache_smoke runs it with --smoke):
//   1. Determinism: phase-charge totals are bit-identical cache on/off —
//      the cache is a cost-model overlay, it never changes what work is
//      charged (math-level bit-exactness is pinned separately by
//      PipelineDeterminismTest and the checkpoint-byte checks).
//   2. Transfer gate: the oracle cache must cut the cold steps' effective
//      CPU<->GPU traffic by >= 2x against the plain 2x pooled-activation
//      round trip (prefetch + writeback DMA included — no hiding bytes).
//   3. Wall gate: cached overlapped FAE must beat the PR-4 overlap
//      baseline by >= 1.15x end to end on the modeled wall.
//
// The workload matches abl_pipelined (zipf 1.8, generous hot budget): the
// cold minority is exactly where the cache bites, because FAE already
// moved the hot majority onto the GPUs.
//
// Usage:
//   abl_lookahead_cache [--out=BENCH_cache.json] [--inputs=8000]
//                       [--batch=256] [--epochs=2] [--gpus=4] [--zipf=1.8]
//                       [--budget-kb=1024] [--depth=2]
//                       [--cache-budget-rows=20000] [--cache-lookahead=8]
//                       [--smoke]
//
// Timing uses the simulator's modeled seconds (deterministic, so no reps),
// with --cost-only math skipped; results are identical run to run.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fae_pipeline.h"
#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

namespace fae {
namespace {

struct CaseResult {
  std::string driver;  // baseline | fae
  size_t cache_budget_rows = 0;  // 0 = cache off
  double modeled_seconds = 0.0;
  double phase_sum_seconds = 0.0;
  double overlap_saved_seconds = 0.0;
  double cache_saved_seconds = 0.0;
  double cache_hit_rate = 0.0;
  uint64_t plain_transfer_bytes = 0;
  uint64_t effective_transfer_bytes = 0;
  uint64_t prefetch_bytes = 0;
  uint64_t writeback_bytes = 0;
};

struct Suite {
  size_t inputs = 8000;
  size_t batch = 256;
  size_t epochs = 2;
  int gpus = 4;
  double zipf = 1.8;
  uint64_t budget_bytes = 1024ULL << 10;
  size_t depth = 2;
  size_t cache_budget_rows = 20000;
  size_t cache_lookahead = 8;
};

constexpr double kTransferGate = 2.0;
constexpr double kWallGate = 1.15;

TrainOptions MakeOptions(const Suite& s, size_t cache_budget_rows) {
  TrainOptions opt;
  opt.per_gpu_batch = s.batch;
  opt.epochs = s.epochs;
  opt.run_math = false;  // cost-only: the modeled wall is the measurement
  opt.pipeline = PipelineMode::kOverlap;  // the PR-4 overlap baseline
  opt.pipeline_depth = s.depth;
  if (cache_budget_rows > 0) {
    opt.cache = CacheMode::kOracle;
    opt.cache_budget_rows = cache_budget_rows;
    opt.cache_lookahead = s.cache_lookahead;
  }
  return opt;
}

void WriteJson(const std::string& path, const Suite& s, double hot_fraction,
               const std::vector<CaseResult>& results,
               double transfer_reduction, double wall_speedup,
               bool deterministic, bool gate_ok) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": \"abl_lookahead_cache\",\n");
  std::fprintf(f, "  \"workload\": \"kaggle_dlrm_tiny\",\n");
  std::fprintf(f, "  \"inputs\": %zu,\n", s.inputs);
  std::fprintf(f, "  \"per_gpu_batch\": %zu,\n", s.batch);
  std::fprintf(f, "  \"epochs\": %zu,\n", s.epochs);
  std::fprintf(f, "  \"gpus\": %d,\n", s.gpus);
  std::fprintf(f, "  \"zipf\": %.3f,\n", s.zipf);
  std::fprintf(f, "  \"hot_budget_bytes\": %llu,\n",
               static_cast<unsigned long long>(s.budget_bytes));
  std::fprintf(f, "  \"pipeline_depth\": %zu,\n", s.depth);
  std::fprintf(f, "  \"cache_lookahead\": %zu,\n", s.cache_lookahead);
  std::fprintf(f, "  \"hot_input_fraction\": %.4f,\n", hot_fraction);
  std::fprintf(f, "  \"phase_sums_bit_identical_cache_on_off\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"criterion_transfer_reduction\": %.3f,\n",
               transfer_reduction);
  std::fprintf(f, "  \"criterion_transfer_gate\": %.2f,\n", kTransferGate);
  std::fprintf(f, "  \"criterion_wall_speedup\": %.3f,\n", wall_speedup);
  std::fprintf(f, "  \"criterion_wall_gate\": %.2f,\n", kWallGate);
  std::fprintf(f, "  \"criterion_ok\": %s,\n", gate_ok ? "true" : "false");
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(
        f,
        "    {\"driver\": \"%s\", \"cache_budget_rows\": %zu, "
        "\"modeled_seconds\": %.9f, \"phase_sum_seconds\": %.9f, "
        "\"overlap_saved_seconds\": %.9f, \"cache_saved_seconds\": %.9f, "
        "\"cache_hit_rate\": %.4f, \"plain_transfer_bytes\": %llu, "
        "\"effective_transfer_bytes\": %llu, \"prefetch_bytes\": %llu, "
        "\"writeback_bytes\": %llu}%s\n",
        r.driver.c_str(), r.cache_budget_rows, r.modeled_seconds,
        r.phase_sum_seconds, r.overlap_saved_seconds, r.cache_saved_seconds,
        r.cache_hit_rate,
        static_cast<unsigned long long>(r.plain_transfer_bytes),
        static_cast<unsigned long long>(r.effective_transfer_bytes),
        static_cast<unsigned long long>(r.prefetch_bytes),
        static_cast<unsigned long long>(r.writeback_bytes),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  args.AcceptsOnly("abl_lookahead_cache",
                   {"batch", "budget-kb", "cache-budget-rows",
                    "cache-lookahead", "depth", "epochs", "gpus", "inputs",
                    "out", "smoke", "zipf"});
  Suite s;
  const bool smoke = args.GetBool("smoke", false);
  s.inputs = static_cast<size_t>(args.GetNonNegativeInt("inputs", (long)s.inputs));
  s.batch = static_cast<size_t>(args.GetPositiveInt("batch", (long)s.batch));
  s.epochs = static_cast<size_t>(args.GetPositiveInt("epochs", (long)s.epochs));
  s.gpus = static_cast<int>(args.GetPositiveInt("gpus", s.gpus));
  s.zipf = args.GetDouble("zipf", s.zipf);
  s.budget_bytes = args.GetPositiveInt("budget-kb", 1024) * 1024ull;
  s.depth = static_cast<size_t>(args.GetPositiveInt("depth", (long)s.depth));
  s.cache_budget_rows = static_cast<size_t>(
      args.GetPositiveInt("cache-budget-rows", (long)s.cache_budget_rows));
  s.cache_lookahead = static_cast<size_t>(
      args.GetPositiveInt("cache-lookahead", (long)s.cache_lookahead));

  bench::PrintHeader(
      "Ablation: lookahead oracle cache (--cache) on the pipelined trainer");
  std::printf(
      "inputs=%zu batch=%zu epochs=%zu gpus=%d zipf=%.2f depth=%zu "
      "cache=%zu rows / %zu ahead\n",
      s.inputs, s.batch, s.epochs, s.gpus, s.zipf, s.depth,
      s.cache_budget_rows, s.cache_lookahead);

  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  SyntheticOptions gen_opt;
  gen_opt.seed = 42;
  gen_opt.zipf_exponent = s.zipf;
  Dataset dataset = SyntheticGenerator(schema, gen_opt).Generate(s.inputs);
  Dataset::Split split = dataset.MakeSplit(0.1);

  FaeConfig cfg;
  cfg.sample_rate = 0.25;
  cfg.large_table_bytes = bench::LargeTableCutoff(DatasetScale::kTiny);
  cfg.gpu_memory_budget = s.budget_bytes;
  cfg.num_threads = 2;
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(dataset, split.train);
  if (!plan.ok()) {
    std::fprintf(stderr, "FAE preprocessing failed: %s\n",
                 plan.status().ToString().c_str());
    return 2;
  }
  const double hot_fraction = plan->inputs.HotFraction();
  std::printf("hot input fraction: %.2f\n\n", hot_fraction);

  const SystemSpec sys = MakePaperServer(s.gpus);
  std::vector<CaseResult> results;
  auto record = [&](const std::string& driver, size_t budget,
                    const TrainReport& report) {
    results.push_back({driver, budget, report.modeled_seconds,
                       report.timeline.PhaseSumSeconds(),
                       report.overlap_saved_seconds,
                       report.cache_saved_seconds, report.cache_hit_rate,
                       report.cache_plain_transfer_bytes,
                       report.cache_effective_transfer_bytes,
                       report.cache_prefetch_bytes,
                       report.cache_writeback_bytes});
  };

  // A starved budget rides along to show honest partial-win behavior (and
  // to prove the gate numbers are not a degenerate 100%-hit artifact).
  const std::vector<size_t> budgets = {0, s.cache_budget_rows / 8,
                                       s.cache_budget_rows};
  for (size_t budget : budgets) {
    auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/5);
    Trainer trainer(model.get(), sys, MakeOptions(s, budget));
    record("baseline", budget, trainer.TrainBaseline(dataset, split));
  }
  for (size_t budget : budgets) {
    auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/5);
    Trainer trainer(model.get(), sys, MakeOptions(s, budget));
    auto report = trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
    if (!report.ok()) {
      std::fprintf(stderr, "FAE training failed: %s\n",
                   report.status().ToString().c_str());
      return 2;
    }
    record("fae", budget, *report);
  }

  std::printf("%-9s %10s %12s %12s %8s %12s %12s\n", "driver", "budget",
              "modeled", "cache-saved", "hit%", "xfer-plain", "xfer-eff");
  for (const CaseResult& r : results) {
    std::printf("%-9s %10zu %12s %12s %7.1f%% %12s %12s\n", r.driver.c_str(),
                r.cache_budget_rows, HumanSeconds(r.modeled_seconds).c_str(),
                HumanSeconds(r.cache_saved_seconds).c_str(),
                100.0 * r.cache_hit_rate,
                HumanBytes(r.plain_transfer_bytes).c_str(),
                HumanBytes(r.effective_transfer_bytes).c_str());
  }

  // Determinism: within a driver, every cache shape charges the exact same
  // phase totals — the cache only moves time off the modeled wall. (The
  // FAE driver's *overlap credit* legitimately shrinks with the cache on:
  // the double-count guard refuses to hide cold seconds under a hot chunk
  // when the cache already removed them, so overlap_saved is not part of
  // this identity.)
  bool deterministic = true;
  for (size_t d = 0; d < 2; ++d) {
    const size_t base = d * budgets.size();
    for (size_t c = 1; c < budgets.size(); ++c) {
      deterministic &= results[base + c].phase_sum_seconds ==
                       results[base].phase_sum_seconds;
    }
  }

  // Gates run on the full-budget FAE case against the cache-off PR-4
  // overlap baseline (results layout: [driver][budget index]).
  const CaseResult& fae_off = results[budgets.size()];
  const CaseResult& fae_on = results[2 * budgets.size() - 1];
  const double transfer_reduction =
      fae_on.effective_transfer_bytes > 0
          ? static_cast<double>(fae_on.plain_transfer_bytes) /
                static_cast<double>(fae_on.effective_transfer_bytes)
          : 0.0;
  const double wall_speedup =
      fae_on.modeled_seconds > 0.0
          ? fae_off.modeled_seconds / fae_on.modeled_seconds
          : 0.0;
  const bool gate_ok = transfer_reduction >= kTransferGate &&
                       wall_speedup >= kWallGate && deterministic;

  std::printf(
      "\ncold-step transfer reduction: %.2fx (gate: >= %.2fx)\n"
      "fae end-to-end speedup:       %.2fx (gate: >= %.2fx)\n"
      "phase sums bit-identical cache on/off: %s\n",
      transfer_reduction, kTransferGate, wall_speedup, kWallGate,
      deterministic ? "yes" : "NO");

  const std::string out = args.GetString("out", "BENCH_cache.json");
  WriteJson(out, s, hot_fraction, results, transfer_reduction, wall_speedup,
            deterministic, gate_ok);
  std::printf("wrote %s\n", out.c_str());

  if (!deterministic) {
    std::fprintf(stderr, "FAIL: cache shapes disagree on phase charges\n");
    return 1;
  }
  if (transfer_reduction < kTransferGate) {
    std::fprintf(stderr, "FAIL: transfer reduction %.2fx < %.2fx gate\n",
                 transfer_reduction, kTransferGate);
    return 1;
  }
  if (wall_speedup < kWallGate) {
    std::fprintf(stderr, "FAIL: end-to-end speedup %.2fx < %.2fx gate\n",
                 wall_speedup, kWallGate);
    return 1;
  }
  (void)smoke;  // same deterministic workload either way; kept for symmetry
  return 0;
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) { return fae::Run(argc, argv); }
