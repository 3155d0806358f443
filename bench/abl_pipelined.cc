// Pipelined-trainer ablation (the PR gate for --pipeline, DESIGN.md §11):
// runs the real engine in every pipeline mode — off (serial), prefetch
// (double-buffered input staging), overlap (staging + hot/cold phase
// overlap) — for both the baseline and the FAE trainer, on a skewed
// workload where most inputs are hot.
//
// Two things are checked, and both fail the binary (ctest's
// bench_pipelined_smoke runs it with --smoke):
//   1. Determinism: phase-charge totals are bit-identical across modes —
//      the pipeline hides time, it never changes what work is charged
//      (the math-level bit-exactness is pinned separately by
//      PipelineDeterminismTest).
//   2. The gate: FAE in overlap mode must beat serial FAE by >= 1.3x on
//      the modeled wall (epoch time), i.e. the overlap machinery must hide
//      a real fraction of the schedule, not round to zero.
//
// The workload leans hotter than the paper's default (zipf 1.8, generous
// hot budget) because overlap's ceiling is min(cold time, hot time) per
// adjacent chunk pair: a hot-majority schedule with the hot chunks' GPU
// steps ~3x faster than cold CPU steps is where pipelining pays, and is
// exactly the regime the paper targets (§II-A skew).
//
// Usage:
//   abl_pipelined [--out=BENCH_pipelined.json] [--inputs=8000]
//                 [--batch=256] [--epochs=2] [--gpus=4] [--zipf=1.8]
//                 [--budget-kb=1024] [--depth=2] [--smoke]
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

struct ModeResult {
  std::string driver;  // baseline | fae
  PipelineMode mode = PipelineMode::kOff;
  double modeled_seconds = 0.0;
  double phase_sum_seconds = 0.0;
  double prep_seconds = 0.0;
  double overlap_saved_seconds = 0.0;
  double overlap_fraction = 0.0;
};

struct Suite {
  size_t inputs = 8000;
  size_t batch = 256;
  size_t epochs = 2;
  int gpus = 4;
  double zipf = 1.8;
  uint64_t budget_bytes = 1024ULL << 10;
  size_t depth = 2;
};

constexpr double kGateSpeedup = 1.3;

TrainOptions MakeOptions(const Suite& s, PipelineMode mode) {
  TrainOptions opt;
  opt.per_gpu_batch = s.batch;
  opt.epochs = s.epochs;
  opt.run_math = false;  // cost-only: the modeled wall is the measurement
  opt.pipeline = mode;
  opt.pipeline_depth = s.depth;
  return opt;
}

void WriteJson(const std::string& path, const Suite& s, double hot_fraction,
               const std::vector<ModeResult>& results, double fae_speedup,
               double baseline_speedup, bool deterministic, bool gate_ok) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": \"abl_pipelined\",\n");
  std::fprintf(f, "  \"workload\": \"kaggle_dlrm_tiny\",\n");
  std::fprintf(f, "  \"inputs\": %zu,\n", s.inputs);
  std::fprintf(f, "  \"per_gpu_batch\": %zu,\n", s.batch);
  std::fprintf(f, "  \"epochs\": %zu,\n", s.epochs);
  std::fprintf(f, "  \"gpus\": %d,\n", s.gpus);
  std::fprintf(f, "  \"zipf\": %.3f,\n", s.zipf);
  std::fprintf(f, "  \"hot_budget_bytes\": %llu,\n",
               static_cast<unsigned long long>(s.budget_bytes));
  std::fprintf(f, "  \"pipeline_depth\": %zu,\n", s.depth);
  std::fprintf(f, "  \"hot_input_fraction\": %.4f,\n", hot_fraction);
  std::fprintf(f, "  \"phase_sums_bit_identical_across_modes\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"criterion_fae_overlap_speedup\": %.3f,\n",
               fae_speedup);
  std::fprintf(f, "  \"criterion_gate\": %.2f,\n", kGateSpeedup);
  std::fprintf(f, "  \"criterion_ok\": %s,\n", gate_ok ? "true" : "false");
  std::fprintf(f, "  \"baseline_overlap_speedup\": %.3f,\n",
               baseline_speedup);
  std::fprintf(f, "  \"modes\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    std::fprintf(
        f,
        "    {\"driver\": \"%s\", \"pipeline\": \"%s\", "
        "\"modeled_seconds\": %.9f, \"phase_sum_seconds\": %.9f, "
        "\"prep_seconds\": %.9f, \"overlap_saved_seconds\": %.9f, "
        "\"overlap_fraction\": %.4f}%s\n",
        r.driver.c_str(), std::string(PipelineModeName(r.mode)).c_str(),
        r.modeled_seconds, r.phase_sum_seconds, r.prep_seconds,
        r.overlap_saved_seconds, r.overlap_fraction,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  args.AcceptsOnly("abl_pipelined",
                   {"batch", "budget-kb", "depth", "epochs", "gpus", "inputs",
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

  bench::PrintHeader(
      "Ablation: pipelined trainer (--pipeline) vs serial execution");
  std::printf("inputs=%zu batch=%zu epochs=%zu gpus=%d zipf=%.2f depth=%zu\n",
              s.inputs, s.batch, s.epochs, s.gpus, s.zipf, s.depth);

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
  const std::vector<PipelineMode> modes = {
      PipelineMode::kOff, PipelineMode::kPrefetch, PipelineMode::kOverlap};

  std::vector<ModeResult> results;
  auto record = [&](const std::string& driver, PipelineMode mode,
                    const TrainReport& report) {
    results.push_back({driver, mode, report.modeled_seconds,
                       report.timeline.PhaseSumSeconds(),
                       report.prep_seconds, report.overlap_saved_seconds,
                       report.overlap_fraction});
  };

  for (PipelineMode mode : modes) {
    auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/5);
    Trainer trainer(model.get(), sys, MakeOptions(s, mode));
    record("baseline", mode, trainer.TrainBaseline(dataset, split));
  }
  for (PipelineMode mode : modes) {
    auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/5);
    Trainer trainer(model.get(), sys, MakeOptions(s, mode));
    auto report = trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
    if (!report.ok()) {
      std::fprintf(stderr, "FAE training failed: %s\n",
                   report.status().ToString().c_str());
      return 2;
    }
    record("fae", mode, *report);
  }

  std::printf("%-9s %-9s %12s %12s %12s %9s\n", "driver", "pipeline",
              "modeled", "prep", "hidden", "overlap%");
  for (const ModeResult& r : results) {
    std::printf("%-9s %-9s %12s %12s %12s %8.1f%%\n", r.driver.c_str(),
                std::string(PipelineModeName(r.mode)).c_str(),
                HumanSeconds(r.modeled_seconds).c_str(),
                HumanSeconds(r.prep_seconds).c_str(),
                HumanSeconds(r.overlap_saved_seconds).c_str(),
                100.0 * r.overlap_fraction);
  }

  // Determinism: within a driver, every mode charges the exact same phase
  // totals — overlap only moves time off the modeled wall.
  bool deterministic = true;
  for (size_t d = 0; d < 2; ++d) {
    const size_t base = d * modes.size();
    for (size_t m = 1; m < modes.size(); ++m) {
      deterministic &= results[base + m].phase_sum_seconds ==
                       results[base].phase_sum_seconds;
      deterministic &=
          results[base + m].prep_seconds == results[base].prep_seconds;
    }
  }

  const double baseline_speedup =
      results[0].modeled_seconds / results[2].modeled_seconds;
  const double fae_speedup =
      results[3].modeled_seconds / results[5].modeled_seconds;
  const bool gate_ok = fae_speedup >= kGateSpeedup;

  std::printf(
      "\nbaseline overlap speedup: %.2fx (informational; the synchronous\n"
      "baseline is CPU-bound, so intra-step overlap hides little)\n"
      "fae overlap speedup:      %.2fx (gate: >= %.2fx)\n"
      "phase sums bit-identical across modes: %s\n",
      baseline_speedup, fae_speedup, kGateSpeedup,
      deterministic ? "yes" : "NO");

  const std::string out = args.GetString("out", "BENCH_pipelined.json");
  WriteJson(out, s, hot_fraction, results, fae_speedup, baseline_speedup,
            deterministic, gate_ok);
  std::printf("wrote %s\n", out.c_str());

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: pipeline modes disagree on phase charges\n");
    return 1;
  }
  if (!gate_ok) {
    std::fprintf(stderr, "FAIL: fae overlap speedup %.2fx < %.2fx gate\n",
                 fae_speedup, kGateSpeedup);
    return 1;
  }
  (void)smoke;  // same deterministic workload either way; kept for symmetry
  return 0;
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) { return fae::Run(argc, argv); }
