// Quantized cold-row storage ablation (the PR gate for --cold-precision,
// DESIGN.md §14). The paper dismisses representation-changing approaches
// because they "require accuracy revalidation across a variety of models
// and datasets"; FAE's partition sidesteps the objection — only the cold
// minority is quantized, the hot majority and all optimizer state stay
// fp32 — and this harness measures exactly what that buys and what it
// costs, against the real kernels and the real engine.
//
// Four things are checked, and all fail the binary (ctest's
// bench_quant_smoke runs it with --smoke):
//   1. Compression: the int8 cold store must be >= 3.0x smaller than the
//      same rows at fp32, fp16 >= 1.9x. The int8 gate runs on the dim-64
//      Terabyte workload (RMC3): at dim 16 the per-row scale/zero-point
//      overhead caps int8 at 64/24 = 2.67x, below the gate by design.
//   2. Error: per-element int8 reconstruction error is bounded by the
//      per-row scale/2 (plus rounding slop), across magnitude ranges from
//      1e-3 to 1e3; max/mean abs error is reported for int8 and fp16.
//   3. Hot-path bit-identity: hot-row gathers from a compressed table are
//      bit-identical to the plain fp32 table, and a full run_math FAE run
//      whose plan keeps everything hot produces bit-identical master
//      tables in all three --cold-precision modes.
//   4. Speedup: with the reclaimed cold bytes credited back to the budget
//      (the calibrator's feedback loop), cost-only int8 FAE must beat
//      fp32 FAE by >= 1.1x end to end on the modeled wall — the finer
//      threshold moves more of the access stream onto the GPUs.
//
// Usage:
//   abl_mixed_precision [--out=BENCH_quant.json] [--inputs=4000]
//                       [--plan-inputs=8000] [--batch=128] [--gpus=4]
//                       [--budget-kb=224] [--epochs=2] [--smoke]
//
// run_math cases use a fixed seed; cost-only cases use the simulator's
// modeled seconds. Results are identical run to run.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fae_pipeline.h"
#include "data/synthetic.h"
#include "embedding/cold_precision.h"
#include "embedding/embedding_table.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "tensor/kernels.h"
#include "util/random.h"
#include "util/string_util.h"

namespace fae {
namespace {

constexpr double kInt8Gate = 3.0;
constexpr double kFp16Gate = 1.9;
constexpr double kSpeedupGate = 1.1;

struct ErrorStats {
  double max_abs = 0.0;
  double mean_abs = 0.0;
  bool bound_ok = true;  // int8: per element |err| <= scale/2 + slop
};

struct CaseResult {
  ColdPrecision precision = ColdPrecision::kFp32;
  uint64_t cold_rows = 0;
  uint64_t cold_store_bytes = 0;
  uint64_t cold_fp32_bytes = 0;  // the same rows at fp32 (the numerator)
  uint64_t resident_bytes = 0;   // actual table footprint, slot maps included
  uint64_t effective_hot_budget = 0;
  uint64_t reclaimed_bytes = 0;
  double modeled_seconds = 0.0;
  double step_seconds = 0.0;
  double final_test_acc = 0.0;
};

long PeakRssKb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;  // KiB on Linux
}

// --- 1. Kernel-level error study ------------------------------------------

ErrorStats MeasureError(ColdPrecision precision, size_t rows, size_t dim,
                        Xoshiro256& rng) {
  ErrorStats st;
  std::vector<float> x(dim), back(dim);
  std::vector<uint8_t> q8(dim);
  std::vector<uint16_t> q16(dim);
  const double magnitudes[] = {1e-3, 1.0, 1e3};
  double sum = 0.0;
  size_t count = 0;
  for (double mag : magnitudes) {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t i = 0; i < dim; ++i) {
        x[i] = static_cast<float>((2.0 * rng.NextDouble() - 1.0) * mag);
      }
      float scale = 0.0f, zero = 0.0f;
      if (precision == ColdPrecision::kInt8) {
        kernels::QuantizeRowI8(dim, x.data(), q8.data(), &scale, &zero);
        kernels::DequantRowI8(dim, q8.data(), scale, zero, back.data());
      } else {
        kernels::QuantizeRowF16(dim, x.data(), q16.data());
        kernels::DequantRowF16(dim, q16.data(), back.data());
      }
      for (size_t i = 0; i < dim; ++i) {
        const double err = std::fabs(static_cast<double>(back[i]) -
                                     static_cast<double>(x[i]));
        st.max_abs = std::max(st.max_abs, err);
        sum += err;
        ++count;
        if (precision == ColdPrecision::kInt8) {
          // scale/2 from rounding to the nearest code, plus a few ulp of
          // slop from the float affine round trip.
          const double bound =
              0.5 * scale + 4.0 * std::fabs(zero) * 1.2e-7 + 1e-12;
          if (err > bound) st.bound_ok = false;
        }
      }
    }
  }
  st.mean_abs = count > 0 ? sum / static_cast<double>(count) : 0.0;
  return st;
}

// --- 3a. Direct hot-row gather identity -----------------------------------

bool HotGatherBitIdentical(size_t rows, size_t dim, ColdPrecision precision) {
  Xoshiro256 rng(11);
  EmbeddingTable plain(rows, dim, rng);
  EmbeddingTable packed = plain;  // same values, then compress one copy
  std::vector<uint8_t> mask(rows, 0);
  for (size_t r = 0; r < rows; r += 4) mask[r] = 1;  // every 4th row hot
  packed.CompressCold(mask, precision);
  std::vector<float> a(dim), b(dim);
  for (size_t r = 0; r < rows; r += 4) {
    std::fill(a.begin(), a.end(), 0.25f);
    std::fill(b.begin(), b.end(), 0.25f);
    plain.AddRowTo(r, a.data());
    packed.AddRowTo(r, b.data());
    if (std::memcmp(a.data(), b.data(), dim * sizeof(float)) != 0)
      return false;
    plain.ReadRowInto(r, a.data());
    packed.ReadRowInto(r, b.data());
    if (std::memcmp(a.data(), b.data(), dim * sizeof(float)) != 0)
      return false;
  }
  return true;
}

// --- JSON ------------------------------------------------------------------

void WriteJson(const std::string& path, const std::vector<CaseResult>& cases,
               const ErrorStats& err8, const ErrorStats& err16,
               double int8_ratio, double fp16_ratio, double speedup,
               double hot_frac_fp32, double hot_frac_int8,
               bool hot_bit_identical, bool gate_ok) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": \"abl_mixed_precision\",\n");
  std::fprintf(f, "  \"workload\": \"terabyte_dlrm_tiny\",\n");
  std::fprintf(f, "  \"criterion_int8_compression\": %.3f,\n", int8_ratio);
  std::fprintf(f, "  \"criterion_int8_gate\": %.2f,\n", kInt8Gate);
  std::fprintf(f, "  \"criterion_fp16_compression\": %.3f,\n", fp16_ratio);
  std::fprintf(f, "  \"criterion_fp16_gate\": %.2f,\n", kFp16Gate);
  std::fprintf(f, "  \"criterion_speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"criterion_speedup_gate\": %.2f,\n", kSpeedupGate);
  std::fprintf(f, "  \"criterion_error_bound_ok\": %s,\n",
               err8.bound_ok ? "true" : "false");
  std::fprintf(f, "  \"criterion_hot_bit_identical\": %s,\n",
               hot_bit_identical ? "true" : "false");
  std::fprintf(f, "  \"criterion_ok\": %s,\n", gate_ok ? "true" : "false");
  std::fprintf(f, "  \"hot_fraction_fp32_plan\": %.4f,\n", hot_frac_fp32);
  std::fprintf(f, "  \"hot_fraction_int8_plan\": %.4f,\n", hot_frac_int8);
  std::fprintf(f,
               "  \"quant_error\": {\"int8_max_abs\": %.9g, "
               "\"int8_mean_abs\": %.9g, \"fp16_max_abs\": %.9g, "
               "\"fp16_mean_abs\": %.9g},\n",
               err8.max_abs, err8.mean_abs, err16.max_abs, err16.mean_abs);
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(
        f,
        "    {\"cold_precision\": \"%s\", \"cold_rows\": %llu, "
        "\"cold_store_bytes\": %llu, \"cold_fp32_bytes\": %llu, "
        "\"resident_bytes\": %llu, \"effective_hot_budget\": %llu, "
        "\"reclaimed_bytes\": %llu, \"modeled_seconds\": %.9f, "
        "\"step_seconds\": %.9f, \"final_test_acc\": %.6f}%s\n",
        std::string(ColdPrecisionName(c.precision)).c_str(),
        static_cast<unsigned long long>(c.cold_rows),
        static_cast<unsigned long long>(c.cold_store_bytes),
        static_cast<unsigned long long>(c.cold_fp32_bytes),
        static_cast<unsigned long long>(c.resident_bytes),
        static_cast<unsigned long long>(c.effective_hot_budget),
        static_cast<unsigned long long>(c.reclaimed_bytes), c.modeled_seconds,
        c.step_seconds, c.final_test_acc, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  args.AcceptsOnly("abl_mixed_precision",
                   {"batch", "budget-kb", "epochs", "gpus", "inputs", "out",
                    "plan-inputs", "smoke"});
  const bool smoke = args.GetBool("smoke", false);
  const size_t inputs =
      static_cast<size_t>(args.GetNonNegativeInt("inputs", smoke ? 1200 : 4000));
  const size_t plan_inputs =
      static_cast<size_t>(args.GetPositiveInt("plan-inputs", smoke ? 2500 : 8000));
  const size_t batch = static_cast<size_t>(args.GetPositiveInt("batch", 128));
  const int gpus = static_cast<int>(args.GetPositiveInt("gpus", 4));
  const size_t epochs = static_cast<size_t>(args.GetPositiveInt("epochs", 2));
  // Default sits where the feedback loop is visible: fp32 planning only
  // fits a coarse threshold, the int8 reclaimed credit admits a fine one.
  const uint64_t budget_bytes = args.GetPositiveInt("budget-kb", 224) * 1024ull;

  bench::PrintHeader(
      "Ablation: quantized cold-row storage (--cold-precision)");

  // 1. Kernel round-trip error, real gather/quantize kernels.
  Xoshiro256 err_rng(3);
  const ErrorStats err8 =
      MeasureError(ColdPrecision::kInt8, smoke ? 64 : 256, 64, err_rng);
  const ErrorStats err16 =
      MeasureError(ColdPrecision::kFp16, smoke ? 64 : 256, 64, err_rng);
  std::printf("int8 abs error: max %.3g mean %.3g (<= scale/2: %s)\n",
              err8.max_abs, err8.mean_abs, err8.bound_ok ? "yes" : "NO");
  std::printf("fp16 abs error: max %.3g mean %.3g\n\n", err16.max_abs,
              err16.mean_abs);

  // 3a. Hot-row gathers out of a compressed table vs the plain table.
  bool hot_bit_identical =
      HotGatherBitIdentical(smoke ? 512 : 4096, 64, ColdPrecision::kInt8) &&
      HotGatherBitIdentical(smoke ? 512 : 4096, 64, ColdPrecision::kFp16);

  // The dim-64 Terabyte workload: the int8 compression gate needs the
  // dim where the per-row metadata overhead is amortized (header comment).
  Dataset dataset = bench::MakeWorkloadDataset(WorkloadKind::kTerabyteDlrm,
                                               DatasetScale::kTiny, inputs);
  const DatasetSchema& schema = dataset.schema();
  Dataset::Split split = dataset.MakeSplit(0.15);
  const SystemSpec sys = MakePaperServer(gpus);
  const size_t dim_bytes = schema.embedding_dim * sizeof(float);

  auto make_cfg = [&](ColdPrecision p) {
    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.large_table_bytes = bench::LargeTableCutoff(DatasetScale::kTiny);
    cfg.gpu_memory_budget = budget_bytes;
    cfg.num_threads = 2;
    cfg.cold_precision = p;
    return cfg;
  };

  // 2+5. run_math per mode: storage footprint and learning outcome.
  std::vector<CaseResult> cases;
  const ColdPrecision modes[] = {ColdPrecision::kFp32, ColdPrecision::kFp16,
                                 ColdPrecision::kInt8};
  for (ColdPrecision p : modes) {
    FaeConfig cfg = make_cfg(p);
    FaePipeline pipeline(cfg);
    auto plan = pipeline.Prepare(dataset, split.train);
    if (!plan.ok()) {
      std::fprintf(stderr, "FAE preprocessing failed: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    TrainOptions opt;
    opt.per_gpu_batch = batch;
    opt.epochs = 1;
    opt.eval_samples = 512;
    opt.cold_precision = p;
    auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/5);
    Trainer trainer(model.get(), sys, opt);
    auto report = trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
    if (!report.ok()) {
      std::fprintf(stderr, "FAE training failed: %s\n",
                   report.status().ToString().c_str());
      return 2;
    }
    CaseResult c;
    c.precision = p;
    c.cold_rows = report->cold_rows;
    c.cold_store_bytes = report->cold_store_bytes;
    c.cold_fp32_bytes = report->cold_rows * dim_bytes;
    for (const EmbeddingTable& t : model->tables()) {
      c.resident_bytes += t.ResidentBytes();
    }
    c.effective_hot_budget = report->effective_hot_budget;
    c.reclaimed_bytes = report->cold_reclaimed_bytes;
    c.modeled_seconds = report->modeled_seconds;
    c.step_seconds = report->num_batches > 0
                         ? report->modeled_seconds /
                               static_cast<double>(report->num_batches)
                         : 0.0;
    c.final_test_acc = report->final_test_acc;
    // A host measurement that moves run to run: logged, kept out of the
    // committed gate file so it regenerates byte-identically.
    std::fprintf(stderr, "%s: peak RSS %ld KiB\n",
                 std::string(ColdPrecisionName(c.precision)).c_str(),
                 PeakRssKb());
    cases.push_back(c);
  }

  std::printf("%-6s %10s %12s %12s %12s %12s %9s\n", "mode", "cold-rows",
              "cold-fp32", "cold-store", "resident", "eff-budget", "test%");
  for (const CaseResult& c : cases) {
    std::printf("%-6s %10llu %12s %12s %12s %12s %8.2f%%\n",
                std::string(ColdPrecisionName(c.precision)).c_str(),
                static_cast<unsigned long long>(c.cold_rows),
                HumanBytes(c.cold_fp32_bytes).c_str(),
                HumanBytes(c.cold_store_bytes).c_str(),
                HumanBytes(c.resident_bytes).c_str(),
                HumanBytes(c.effective_hot_budget).c_str(),
                100.0 * c.final_test_acc);
  }

  const CaseResult& c16 = cases[1];
  const CaseResult& c8 = cases[2];
  const double fp16_ratio =
      c16.cold_store_bytes > 0 ? static_cast<double>(c16.cold_fp32_bytes) /
                                     static_cast<double>(c16.cold_store_bytes)
                               : 0.0;
  const double int8_ratio =
      c8.cold_store_bytes > 0 ? static_cast<double>(c8.cold_fp32_bytes) /
                                    static_cast<double>(c8.cold_store_bytes)
                              : 0.0;

  // 3b. Everything-hot plan: a cutoff above every table makes each table
  // all-hot, the compression step a no-op, and the three modes must then
  // produce bit-identical master tables — the hot path never sees the
  // quantizer.
  {
    FaeConfig cfg = make_cfg(ColdPrecision::kFp32);
    cfg.large_table_bytes = 1ULL << 40;
    cfg.gpu_memory_budget = 1ULL << 40;
    std::vector<std::vector<float>> baseline;
    for (ColdPrecision p : modes) {
      cfg.cold_precision = p;
      FaePipeline pipeline(cfg);
      auto plan = pipeline.Prepare(dataset, split.train);
      if (!plan.ok()) {
        std::fprintf(stderr, "all-hot preprocessing failed: %s\n",
                     plan.status().ToString().c_str());
        return 2;
      }
      TrainOptions opt;
      opt.per_gpu_batch = batch;
      opt.epochs = 1;
      opt.eval_samples = 256;
      opt.cold_precision = p;
      auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/5);
      Trainer trainer(model.get(), sys, opt);
      auto report = trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
      if (!report.ok()) {
        std::fprintf(stderr, "all-hot training failed: %s\n",
                     report.status().ToString().c_str());
        return 2;
      }
      if (baseline.empty()) {
        for (const EmbeddingTable& t : model->tables())
          baseline.push_back(t.raw());
      } else {
        size_t i = 0;
        for (const EmbeddingTable& t : model->tables()) {
          hot_bit_identical &=
              t.raw().size() == baseline[i].size() &&
              std::memcmp(t.raw().data(), baseline[i].data(),
                          baseline[i].size() * sizeof(float)) == 0;
          ++i;
        }
      }
    }
  }
  std::printf("\nhot path bit-identical across modes: %s\n",
              hot_bit_identical ? "yes" : "NO");

  // 4. Cost-only speedup: the reclaimed bytes feed the calibrator, which
  // admits a finer threshold, which moves more accesses into hot chunks.
  double speedup = 0.0, hot_frac_fp32 = 0.0, hot_frac_int8 = 0.0;
  {
    Dataset plan_ds = bench::MakeWorkloadDataset(
        WorkloadKind::kTerabyteDlrm, DatasetScale::kTiny, plan_inputs);
    Dataset::Split plan_split = plan_ds.MakeSplit(0.1);
    double modeled[2] = {0.0, 0.0};
    const ColdPrecision pair[] = {ColdPrecision::kFp32, ColdPrecision::kInt8};
    for (int i = 0; i < 2; ++i) {
      FaeConfig cfg = make_cfg(pair[i]);
      FaePipeline pipeline(cfg);
      auto plan = pipeline.Prepare(plan_ds, plan_split.train);
      if (!plan.ok()) {
        std::fprintf(stderr, "speedup preprocessing failed: %s\n",
                     plan.status().ToString().c_str());
        return 2;
      }
      (i == 0 ? hot_frac_fp32 : hot_frac_int8) = plan->inputs.HotFraction();
      TrainOptions opt;
      opt.per_gpu_batch = batch;
      opt.epochs = epochs;
      opt.run_math = false;  // modeled wall is the measurement
      opt.cold_precision = pair[i];
      auto model = MakeModel(plan_ds.schema(), /*full_size=*/false, 5);
      Trainer trainer(model.get(), sys, opt);
      auto report = trainer.TrainFaeWithPlan(plan_ds, plan_split, cfg, *plan);
      if (!report.ok()) {
        std::fprintf(stderr, "speedup training failed: %s\n",
                     report.status().ToString().c_str());
        return 2;
      }
      modeled[i] = report->modeled_seconds;
    }
    speedup = modeled[1] > 0.0 ? modeled[0] / modeled[1] : 0.0;
    std::printf(
        "cost-only wall fp32 %s (hot %.1f%%) vs int8+feedback %s "
        "(hot %.1f%%)\n",
        HumanSeconds(modeled[0]).c_str(), 100.0 * hot_frac_fp32,
        HumanSeconds(modeled[1]).c_str(), 100.0 * hot_frac_int8);
  }

  std::printf(
      "\nint8 cold-store compression: %.2fx (gate: >= %.2fx)\n"
      "fp16 cold-store compression: %.2fx (gate: >= %.2fx)\n"
      "int8 budget-feedback speedup: %.2fx (gate: >= %.2fx)\n",
      int8_ratio, kInt8Gate, fp16_ratio, kFp16Gate, speedup, kSpeedupGate);

  const bool gate_ok = int8_ratio >= kInt8Gate && fp16_ratio >= kFp16Gate &&
                       speedup >= kSpeedupGate && err8.bound_ok &&
                       hot_bit_identical;
  const std::string out = args.GetString("out", "BENCH_quant.json");
  WriteJson(out, cases, err8, err16, int8_ratio, fp16_ratio, speedup,
            hot_frac_fp32, hot_frac_int8, hot_bit_identical, gate_ok);
  std::printf("wrote %s\n", out.c_str());

  if (!err8.bound_ok) {
    std::fprintf(stderr, "FAIL: int8 error above the scale/2 bound\n");
    return 1;
  }
  if (!hot_bit_identical) {
    std::fprintf(stderr, "FAIL: hot path not bit-identical across modes\n");
    return 1;
  }
  if (int8_ratio < kInt8Gate) {
    std::fprintf(stderr, "FAIL: int8 compression %.2fx < %.2fx gate\n",
                 int8_ratio, kInt8Gate);
    return 1;
  }
  if (fp16_ratio < kFp16Gate) {
    std::fprintf(stderr, "FAIL: fp16 compression %.2fx < %.2fx gate\n",
                 fp16_ratio, kFp16Gate);
    return 1;
  }
  if (speedup < kSpeedupGate) {
    std::fprintf(stderr, "FAIL: budget-feedback speedup %.2fx < %.2fx gate\n",
                 speedup, kSpeedupGate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) { return fae::Run(argc, argv); }
