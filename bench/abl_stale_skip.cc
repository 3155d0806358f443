// Stale-embedding update-skipping ablation (the PR gate for --stale-skip,
// DESIGN.md §16): runs the real engine — math ON, the skip decisions read
// measured per-row update magnitudes — sweeping the freeze threshold over
// zipf exponents, with the baseline driver in --stale-skip=all and the FAE
// driver in --stale-skip=cold for context.
//
// Three things are checked, and all fail the binary (ctest's
// bench_stale_skip_smoke runs it with --smoke):
//   1. Identity: --stale-threshold=0 is bit-identical to --stale-skip=off —
//      same learning curve, same modeled wall. The guard only multiplies
//      the threshold, so 0 is a fixed point and "feature compiled in but
//      inert" costs nothing.
//   2. Time-to-accuracy gate: among the swept thresholds whose final test
//      loss stays within 0.5% of the exact run, the best must cut the
//      modeled wall by >= 1.15x (same batches, comparable accuracy, less
//      time — modeled time-to-accuracy).
//   3. Loss band: the gate winner's loss delta itself (checked as part of
//      2 — a speedup bought with divergence does not count).
//
// The zipf sweep shows where skipping bites: heavier skew concentrates
// updates on few hot rows, so the long tail's EMAs settle fast and most
// row visits become skips.
//
// Usage:
//   abl_stale_skip [--out=BENCH_stale_skip.json] [--inputs=6000]
//                  [--batch=128] [--epochs=2] [--min-visits=2] [--smoke]
//
// Deterministic end to end (fixed seeds, one-writer-per-row EMA updates),
// so results are identical run to run and smoke differs only in size.

#include <cmath>
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
  std::string mode;    // off | all | cold
  double zipf = 0.0;
  double threshold = 0.0;
  double modeled_seconds = 0.0;
  double phase_sum_seconds = 0.0;
  double saved_seconds = 0.0;
  uint64_t skipped_rows = 0;
  uint64_t updated_rows = 0;
  double skip_fraction = 0.0;
  uint64_t reactivated_rows = 0;
  uint64_t guard_tightens = 0;
  uint64_t guard_widens = 0;
  double final_threshold = 0.0;
  double final_test_loss = 0.0;
  double final_test_acc = 0.0;
  std::vector<CurvePoint> curve;
};

struct Suite {
  size_t inputs = 6000;
  size_t batch = 128;
  size_t epochs = 2;
  size_t min_visits = 2;
  std::vector<double> zipfs = {1.05, 1.8};
  std::vector<double> thresholds = {0.05, 0.2, 0.5};
  double gate_zipf = 1.8;
};

constexpr double kWallGate = 1.15;
constexpr double kLossBand = 0.005;  // 0.5% relative

TrainOptions MakeOptions(const Suite& s, StaleSkipMode mode,
                         double threshold) {
  TrainOptions opt;
  opt.per_gpu_batch = s.batch;
  opt.epochs = s.epochs;
  opt.eval_samples = 512;
  opt.eval_batch = 256;
  opt.evals_per_epoch = 5;
  opt.num_threads = 2;
  opt.stale_skip = mode;
  if (mode != StaleSkipMode::kOff) {
    opt.stale_threshold = threshold;
    opt.stale_min_visits = s.min_visits;
  }
  return opt;
}

bool SameCurve(const std::vector<CurvePoint>& a,
               const std::vector<CurvePoint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].iteration != b[i].iteration ||
        a[i].train_loss != b[i].train_loss ||
        a[i].train_acc != b[i].train_acc ||
        a[i].test_loss != b[i].test_loss ||
        a[i].test_acc != b[i].test_acc) {
      return false;
    }
  }
  return true;
}

void WriteJson(const std::string& path, const Suite& s,
               const std::vector<CaseResult>& results, bool identity_ok,
               double best_speedup, double best_loss_delta,
               double best_threshold, bool gate_ok) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": \"abl_stale_skip\",\n");
  std::fprintf(f, "  \"workload\": \"kaggle_dlrm_tiny\",\n");
  std::fprintf(f, "  \"inputs\": %zu,\n", s.inputs);
  std::fprintf(f, "  \"per_gpu_batch\": %zu,\n", s.batch);
  std::fprintf(f, "  \"epochs\": %zu,\n", s.epochs);
  std::fprintf(f, "  \"min_visits\": %zu,\n", s.min_visits);
  std::fprintf(f, "  \"gate_zipf\": %.3f,\n", s.gate_zipf);
  std::fprintf(f, "  \"criterion_zero_threshold_bit_identical\": %s,\n",
               identity_ok ? "true" : "false");
  std::fprintf(f, "  \"criterion_best_speedup\": %.3f,\n", best_speedup);
  std::fprintf(f, "  \"criterion_wall_gate\": %.2f,\n", kWallGate);
  std::fprintf(f, "  \"criterion_best_loss_delta\": %.5f,\n",
               best_loss_delta);
  std::fprintf(f, "  \"criterion_loss_band\": %.3f,\n", kLossBand);
  std::fprintf(f, "  \"criterion_best_threshold\": %.3f,\n", best_threshold);
  std::fprintf(f, "  \"criterion_ok\": %s,\n", gate_ok ? "true" : "false");
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(
        f,
        "    {\"driver\": \"%s\", \"mode\": \"%s\", \"zipf\": %.3f, "
        "\"threshold\": %.3f, \"modeled_seconds\": %.9f, "
        "\"phase_sum_seconds\": %.9f, \"saved_seconds\": %.9f, "
        "\"skipped_rows\": %llu, \"updated_rows\": %llu, "
        "\"skip_fraction\": %.4f, \"reactivated_rows\": %llu, "
        "\"guard_tightens\": %llu, \"guard_widens\": %llu, "
        "\"final_threshold\": %.6f, \"final_test_loss\": %.9f, "
        "\"final_test_acc\": %.6f}%s\n",
        r.driver.c_str(), r.mode.c_str(), r.zipf, r.threshold,
        r.modeled_seconds, r.phase_sum_seconds, r.saved_seconds,
        static_cast<unsigned long long>(r.skipped_rows),
        static_cast<unsigned long long>(r.updated_rows), r.skip_fraction,
        static_cast<unsigned long long>(r.reactivated_rows),
        static_cast<unsigned long long>(r.guard_tightens),
        static_cast<unsigned long long>(r.guard_widens), r.final_threshold,
        r.final_test_loss, r.final_test_acc,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

CaseResult Record(const std::string& driver, const std::string& mode,
                  double zipf, double threshold, const TrainReport& report) {
  CaseResult r;
  r.driver = driver;
  r.mode = mode;
  r.zipf = zipf;
  r.threshold = threshold;
  r.modeled_seconds = report.modeled_seconds;
  r.phase_sum_seconds = report.timeline.PhaseSumSeconds();
  r.saved_seconds = report.stale_skip_saved_seconds;
  r.skipped_rows = report.stale_skipped_rows;
  r.updated_rows = report.stale_updated_rows;
  const uint64_t visits = report.stale_skipped_rows + report.stale_updated_rows;
  r.skip_fraction =
      visits > 0 ? static_cast<double>(report.stale_skipped_rows) /
                       static_cast<double>(visits)
                 : 0.0;
  r.reactivated_rows = report.stale_reactivated_rows;
  r.guard_tightens = report.stale_guard_tightens;
  r.guard_widens = report.stale_guard_widens;
  r.final_threshold = report.stale_final_threshold;
  r.final_test_loss = report.final_test_loss;
  r.final_test_acc = report.final_test_acc;
  r.curve = report.curve;
  return r;
}

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  args.AcceptsOnly("abl_stale_skip",
                   {"batch", "epochs", "inputs", "min-visits", "out", "smoke"});
  Suite s;
  const bool smoke = args.GetBool("smoke", false);
  if (smoke) {
    s.inputs = 2400;
    s.zipfs = {1.8};
    s.thresholds = {0.2, 0.5};
  }
  s.inputs = static_cast<size_t>(
      args.GetNonNegativeInt("inputs", (long)s.inputs));
  s.batch = static_cast<size_t>(args.GetPositiveInt("batch", (long)s.batch));
  s.epochs =
      static_cast<size_t>(args.GetPositiveInt("epochs", (long)s.epochs));
  s.min_visits = static_cast<size_t>(
      args.GetPositiveInt("min-visits", (long)s.min_visits));

  bench::PrintHeader(
      "Ablation: stale-embedding update skipping (--stale-skip)");
  std::printf("inputs=%zu batch=%zu epochs=%zu min_visits=%zu (math ON)\n",
              s.inputs, s.batch, s.epochs, s.min_visits);

  const SystemSpec sys = MakePaperServer(1);
  std::vector<CaseResult> results;
  bool identity_ok = true;
  double best_speedup = 0.0;
  double best_loss_delta = 0.0;
  double best_threshold = 0.0;

  for (double zipf : s.zipfs) {
    DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
    SyntheticOptions gen_opt;
    gen_opt.seed = 42;
    gen_opt.zipf_exponent = zipf;
    Dataset dataset = SyntheticGenerator(schema, gen_opt).Generate(s.inputs);
    Dataset::Split split = dataset.MakeSplit(0.1);

    auto run_baseline = [&](StaleSkipMode mode, double threshold) {
      auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/5);
      Trainer trainer(model.get(), sys, MakeOptions(s, mode, threshold));
      auto report = trainer.TrainBaselineResumable(dataset, split);
      if (!report.ok()) {
        std::fprintf(stderr, "baseline training failed: %s\n",
                     report.status().ToString().c_str());
        std::exit(2);
      }
      return *report;
    };

    const TrainReport off = run_baseline(StaleSkipMode::kOff, 0.0);
    results.push_back(Record("baseline", "off", zipf, 0.0, off));

    // Identity gate: threshold 0 must reproduce the exact run bit for bit.
    const TrainReport zero = run_baseline(StaleSkipMode::kAll, 0.0);
    CaseResult zero_case = Record("baseline", "all", zipf, 0.0, zero);
    const bool zero_identical =
        SameCurve(off.curve, zero.curve) &&
        off.modeled_seconds == zero.modeled_seconds &&
        zero.stale_skipped_rows == 0;
    identity_ok &= zero_identical;
    results.push_back(zero_case);

    std::printf(
        "\nzipf %.2f  (exact run: %s, test loss %.4f; threshold 0 "
        "bit-identical: %s)\n",
        zipf, HumanSeconds(off.modeled_seconds).c_str(), off.final_test_loss,
        zero_identical ? "yes" : "NO");
    std::printf("%-9s %-5s %9s %12s %12s %7s %9s %10s\n", "driver", "mode",
                "thresh", "modeled", "saved", "skip%", "loss", "guard-/+");

    for (double threshold : s.thresholds) {
      const TrainReport on = run_baseline(StaleSkipMode::kAll, threshold);
      CaseResult c = Record("baseline", "all", zipf, threshold, on);
      results.push_back(c);
      std::printf("%-9s %-5s %9.2f %12s %12s %6.1f%% %9.4f %5llu/%llu\n",
                  "baseline", "all", threshold,
                  HumanSeconds(c.modeled_seconds).c_str(),
                  HumanSeconds(c.saved_seconds).c_str(),
                  100.0 * c.skip_fraction, c.final_test_loss,
                  static_cast<unsigned long long>(c.guard_tightens),
                  static_cast<unsigned long long>(c.guard_widens));
      if (zipf == s.gate_zipf) {
        const double loss_delta =
            off.final_test_loss > 0.0
                ? std::abs(c.final_test_loss - off.final_test_loss) /
                      off.final_test_loss
                : 0.0;
        const double speedup = c.modeled_seconds > 0.0
                                   ? off.modeled_seconds / c.modeled_seconds
                                   : 0.0;
        if (loss_delta <= kLossBand && speedup > best_speedup) {
          best_speedup = speedup;
          best_loss_delta = loss_delta;
          best_threshold = threshold;
        }
      }
    }

    // FAE context: cold-only skipping rides the hot/cold schedule (the hot
    // set is pinned live, so only cold batches are credited).
    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.large_table_bytes = bench::LargeTableCutoff(DatasetScale::kTiny);
    cfg.gpu_memory_budget = bench::HotBudget(DatasetScale::kTiny, 16);
    cfg.num_threads = 2;
    FaePipeline fae_pipeline(cfg);
    auto plan = fae_pipeline.Prepare(dataset, split.train);
    if (!plan.ok()) {
      std::fprintf(stderr, "FAE preprocessing failed: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    for (StaleSkipMode mode : {StaleSkipMode::kOff, StaleSkipMode::kCold}) {
      const double threshold =
          mode == StaleSkipMode::kOff ? 0.0 : s.thresholds.back();
      auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/5);
      Trainer trainer(model.get(), sys, MakeOptions(s, mode, threshold));
      auto report = trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
      if (!report.ok()) {
        std::fprintf(stderr, "FAE training failed: %s\n",
                     report.status().ToString().c_str());
        return 2;
      }
      CaseResult c = Record("fae", std::string(StaleSkipModeName(mode)),
                            zipf, threshold, *report);
      results.push_back(c);
      std::printf("%-9s %-5s %9.2f %12s %12s %6.1f%% %9.4f %5llu/%llu\n",
                  "fae", c.mode.c_str(), threshold,
                  HumanSeconds(c.modeled_seconds).c_str(),
                  HumanSeconds(c.saved_seconds).c_str(),
                  100.0 * c.skip_fraction, c.final_test_loss,
                  static_cast<unsigned long long>(c.guard_tightens),
                  static_cast<unsigned long long>(c.guard_widens));
    }
  }

  const bool gate_ok =
      identity_ok && best_speedup >= kWallGate && best_loss_delta <= kLossBand;

  std::printf(
      "\nthreshold-0 bit-identical to off:    %s\n"
      "best in-band time-to-accuracy gain:  %.2fx at threshold %.2f "
      "(gate: >= %.2fx)\n"
      "its final-loss delta:                %.3f%% (band: <= %.1f%%)\n",
      identity_ok ? "yes" : "NO", best_speedup, best_threshold, kWallGate,
      100.0 * best_loss_delta, 100.0 * kLossBand);

  const std::string out = args.GetString("out", "BENCH_stale_skip.json");
  WriteJson(out, s, results, identity_ok, best_speedup, best_loss_delta,
            best_threshold, gate_ok);
  std::printf("wrote %s\n", out.c_str());

  if (!identity_ok) {
    std::fprintf(stderr, "FAIL: threshold 0 diverged from --stale-skip=off\n");
    return 1;
  }
  if (best_speedup < kWallGate) {
    std::fprintf(stderr,
                 "FAIL: best in-band speedup %.2fx < %.2fx gate (loss band "
                 "%.1f%%)\n",
                 best_speedup, kWallGate, 100.0 * kLossBand);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) { return fae::Run(argc, argv); }
