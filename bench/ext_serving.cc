// Extension: drift-robust online serving with continuous recalibration
// (DESIGN.md §12) — the robustness gate for the serve/ subsystem.
//
// Four scenarios over the same synthetic Kaggle-like workload:
//   1. drift-free reference     no drift, no recalibration
//   2. drift, stale plan        popularity drift, recalibration disabled
//   3. drift + recalibration    the SLO-triggered sampler re-run + hot-swap
//   4. drift + recal + faults   recal-stall, swap-crash and lookup-loss
//                               injected against scenario 3
//
// Gates (all fail the binary; ctest's bench_serving_smoke runs --smoke):
//   1. Recovery: with recalibration, the exit-time hit-rate EMA (the
//      recovered steady state) comes back to within 5 points of the
//      drift-free reference — and the run-average hit rate beats the
//      stale-plan run (the drift actually hurt, and recal actually helped).
//   2. Tail: recalibration keeps p99 within 2x the drift-free p99 (misses
//      pay a CPU + PCIe round trip, so an uncorrected stale set blows the
//      tail; a recalibrated one must not).
//   3. Fault-hardening: with recal-stall/swap-crash/lookup-loss injected,
//      serving never drops a lookup (hot + stale + fallback + miss sums to
//      every lookup issued), never crashes, degrades to honest stale-hit
//      accounting, and counts its recoveries in FaultStats.
//
// Usage:
//   ext_serving [--out=BENCH_serving.json] [--inputs=8000] [--batch=128]
//               [--drift=0.4] [--slo=0.9] [--swap=BENCH_serving_swap.faef]
//               [--smoke]
//
// Fully deterministic: time is the cost model's, traffic is a seeded
// synthetic replay, and faults fire on fixed batch indices — smoke and
// full runs differ only in input count.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fae_pipeline.h"
#include "data/synthetic.h"
#include "models/factory.h"
#include "serve/serving_loop.h"
#include "util/string_util.h"

namespace fae {
namespace {

constexpr double kRecoveryGapGate = 0.05;  // points of hit rate vs drift-free
constexpr double kTailGate = 2.0;          // x the drift-free p99

struct Scenario {
  std::string name;
  ServeReport report;
};

ServeOptions MakeServeOptions(const bench::Args& args, size_t batch,
                              double slo) {
  ServeOptions opt;
  opt.batch_size = batch;
  opt.slo_hit_rate = slo;
  opt.ema_alpha = 0.2;
  opt.recal_window = 2048;
  opt.recal_cooldown = 8;
  opt.watchdog_deadline_seconds = 0.25;
  opt.max_recal_retries = 3;
  opt.retry_backoff_seconds = 0.01;
  opt.continuous_training = true;
  (void)args;
  return opt;
}

Dataset MakeTraffic(size_t inputs, double drift) {
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  SyntheticOptions gen_opt;
  gen_opt.seed = 11;
  gen_opt.popularity_drift = drift;
  return SyntheticGenerator(schema, gen_opt).Generate(inputs);
}

ServeReport RunScenario(const Dataset& dataset, const FaeConfig& cfg,
                        const ServeOptions& opts, const FaePlan& plan) {
  auto model = MakeModel(dataset.schema(), /*full_size=*/false, /*seed=*/7);
  ServingLoop loop(model.get(), MakePaperServer(4), cfg, opts);
  auto report = loop.Serve(dataset, plan);
  if (!report.ok()) {
    std::fprintf(stderr, "serving failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(report).value();
}

void WriteJson(const std::string& path, size_t inputs, double drift,
               double slo, const std::vector<Scenario>& scenarios,
               double recovery_gap, double tail_ratio, bool recovered,
               bool tail_ok, bool fault_ok) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": \"ext_serving\",\n");
  std::fprintf(f, "  \"workload\": \"kaggle_dlrm_tiny\",\n");
  std::fprintf(f, "  \"inputs\": %zu,\n", inputs);
  std::fprintf(f, "  \"drift\": %.3f,\n", drift);
  std::fprintf(f, "  \"slo_hit_rate\": %.3f,\n", slo);
  std::fprintf(f, "  \"criterion_recovery_gap\": %.4f,\n", recovery_gap);
  std::fprintf(f, "  \"criterion_recovery_gate\": %.2f,\n", kRecoveryGapGate);
  std::fprintf(f, "  \"criterion_recovery_ok\": %s,\n",
               recovered ? "true" : "false");
  std::fprintf(f, "  \"criterion_p99_ratio\": %.3f,\n", tail_ratio);
  std::fprintf(f, "  \"criterion_p99_gate\": %.1f,\n", kTailGate);
  std::fprintf(f, "  \"criterion_p99_ok\": %s,\n", tail_ok ? "true" : "false");
  std::fprintf(f, "  \"criterion_faults_ok\": %s,\n",
               fault_ok ? "true" : "false");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const ServeReport& r = scenarios[i].report;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"batches\": %zu, \"lookups\": %llu, "
        "\"hit_rate\": %.4f, \"stale_hits\": %llu, "
        "\"master_fallbacks\": %llu, \"misses\": %llu, "
        "\"coverage_ema\": %.4f, \"p50_ns\": %llu, \"p99_ns\": %llu, "
        "\"recal_attempts\": %zu, \"deadline_misses\": %zu, "
        "\"recal_failures\": %zu, \"swaps\": %zu, \"swap_rejects\": %zu, "
        "\"degraded_batches\": %zu, \"recoveries\": %llu, "
        "\"modeled_seconds\": %.9f}%s\n",
        scenarios[i].name.c_str(), r.batches,
        static_cast<unsigned long long>(r.lookups), r.hit_rate,
        static_cast<unsigned long long>(r.stale_hits),
        static_cast<unsigned long long>(r.master_fallbacks),
        static_cast<unsigned long long>(r.misses), r.coverage_ema,
        static_cast<unsigned long long>(r.p50_latency_ns),
        static_cast<unsigned long long>(r.p99_latency_ns), r.recal_attempts,
        r.deadline_misses, r.recal_failures, r.swaps, r.swap_rejects,
        r.degraded_batches,
        static_cast<unsigned long long>(r.faults.recoveries),
        r.modeled_seconds, i + 1 < scenarios.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  args.AcceptsOnly("ext_serving",
                   {"batch", "drift", "inputs", "out", "slo", "smoke", "swap"});
  const bool smoke = args.GetBool("smoke", false);
  // Deterministic cost-model time + seeded traffic: smoke and full runs
  // are the identical workload (as with abl_pipelined).
  (void)smoke;
  const size_t inputs = static_cast<size_t>(args.GetNonNegativeInt("inputs", 12000));
  const size_t batch = static_cast<size_t>(args.GetPositiveInt("batch", 128));
  // Drift 0.3 rotates ~a third of each table's popularity over the run —
  // past the acceptance floor of 0.2, slow enough per batch that a
  // sliding-window snapshot can track it (real logs drift over days, not
  // per request batch).
  const double drift = args.GetDouble("drift", 0.3);
  // The SLO doubles as the recovery target: the EMA oscillates between
  // this floor (trigger) and the post-swap peak, so holding service within
  // 5 points of drift-free requires demanding it.
  const double slo = args.GetDouble("slo", 0.92);
  const std::string swap_path =
      args.GetString("swap", "BENCH_serving_swap.faef");

  bench::PrintHeader(
      "Extension: online serving under popularity drift "
      "(recalibration + SLO guardrails + fault-hardened hot-swap)");
  std::printf("inputs=%zu batch=%zu drift=%.2f slo=%.2f\n\n", inputs, batch,
              drift, slo);

  FaeConfig cfg;
  cfg.sample_rate = 0.25;
  cfg.large_table_bytes = bench::LargeTableCutoff(DatasetScale::kTiny);
  // Tighter than HotBudget's calibration point: the hot set must be
  // selective enough that rotating popularity actually evicts coverage —
  // with an everything-fits budget, drift cannot hurt and the drift
  // detector has nothing to detect.
  cfg.gpu_memory_budget = 128ULL << 10;
  cfg.num_threads = 2;

  Dataset steady = MakeTraffic(inputs, 0.0);
  Dataset drifting = MakeTraffic(inputs, drift);

  // The offline plan each scenario starts from is computed over its own
  // dataset's *early* traffic only — the deployment reality: you calibrate
  // on yesterday's log, then the stream moves on.
  auto make_plan = [&](const Dataset& dataset) {
    std::vector<uint64_t> head(dataset.size() / 4);
    for (size_t i = 0; i < head.size(); ++i) head[i] = i;
    auto plan = FaePipeline(cfg).Prepare(dataset, head);
    if (!plan.ok()) {
      std::fprintf(stderr, "preprocessing failed: %s\n",
                   plan.status().ToString().c_str());
      std::exit(2);
    }
    return std::move(plan).value();
  };
  const FaePlan steady_plan = make_plan(steady);
  const FaePlan drift_plan = make_plan(drifting);

  std::vector<Scenario> scenarios;

  ServeOptions ref_opts = MakeServeOptions(args, batch, slo);
  scenarios.push_back(
      {"drift_free", RunScenario(steady, cfg, ref_opts, steady_plan)});

  ServeOptions stale_opts = MakeServeOptions(args, batch, slo);
  scenarios.push_back(
      {"drift_stale_plan",
       RunScenario(drifting, cfg, stale_opts, drift_plan)});

  ServeOptions recal_opts = MakeServeOptions(args, batch, slo);
  recal_opts.swap_path = swap_path;
  scenarios.push_back(
      {"drift_recal", RunScenario(drifting, cfg, recal_opts, drift_plan)});

  auto injector = FaultInjector::Parse(
      "recal-stall@2:9.0,swap-crash@3,lookup-loss@10x3");
  if (!injector.ok()) {
    std::fprintf(stderr, "bad fault plan: %s\n",
                 injector.status().ToString().c_str());
    return 2;
  }
  FaultInjector faults = std::move(injector).value();
  ServeOptions fault_opts = MakeServeOptions(args, batch, slo);
  fault_opts.swap_path = swap_path;
  fault_opts.fault_injector = &faults;
  scenarios.push_back(
      {"drift_recal_faults",
       RunScenario(drifting, cfg, fault_opts, drift_plan)});

  std::printf("%-19s %8s %8s %8s %10s %10s %6s %6s\n", "scenario", "hit%",
              "stale%", "miss%", "p50", "p99", "swaps", "degr");
  for (const Scenario& s : scenarios) {
    const ServeReport& r = s.report;
    const double lk = static_cast<double>(r.lookups);
    std::printf("%-19s %7.1f%% %7.1f%% %7.1f%% %9.1fus %9.1fus %6zu %6zu\n",
                s.name.c_str(), 100.0 * r.hit_rate,
                100.0 * r.stale_hits / lk, 100.0 * r.misses / lk,
                r.p50_latency_ns / 1e3, r.p99_latency_ns / 1e3, r.swaps,
                r.degraded_batches);
  }

  const ServeReport& ref = scenarios[0].report;
  const ServeReport& stale = scenarios[1].report;
  const ServeReport& recal = scenarios[2].report;
  const ServeReport& faulted = scenarios[3].report;

  // Recovery is judged on the exit-time hit-rate EMA — the recovered
  // steady state — because the run-average necessarily includes the
  // pre-detection decay the recalibration exists to stop. The run-average
  // must still strictly beat the stale plan's (drift hurt, recal helped).
  const double recovery_gap = ref.coverage_ema - recal.coverage_ema;
  const bool recovered = recovery_gap <= kRecoveryGapGate &&
                         recal.hit_rate > stale.hit_rate &&
                         recal.swaps > 0;
  const double tail_ratio = static_cast<double>(recal.p99_latency_ns) /
                            static_cast<double>(ref.p99_latency_ns);
  const bool tail_ok = tail_ratio <= kTailGate;

  const bool answered_all =
      faulted.hot_hits + faulted.stale_hits + faulted.master_fallbacks +
          faulted.misses ==
      faulted.lookups;
  const bool fault_ok = answered_all && !faulted.interrupted &&
                        faulted.faults.recoveries >= 2 &&
                        faulted.swap_rejects >= 1 &&
                        faulted.deadline_misses >= 1 &&
                        faulted.stale_hits > 0 &&
                        faulted.master_fallbacks > 0;

  std::printf(
      "\nrecovery gap vs drift-free: %.3f (gate: <= %.2f)\n"
      "p99 ratio vs drift-free:    %.2fx (gate: <= %.1fx)\n"
      "faulted run: answered all lookups %s, %llu recoveries, "
      "%zu swap rejects, %zu deadline misses\n",
      recovery_gap, kRecoveryGapGate, tail_ratio, kTailGate,
      answered_all ? "yes" : "NO",
      static_cast<unsigned long long>(faulted.faults.recoveries),
      faulted.swap_rejects, faulted.deadline_misses);

  const std::string out = args.GetString("out", "BENCH_serving.json");
  WriteJson(out, inputs, drift, slo, scenarios, recovery_gap, tail_ratio,
            recovered, tail_ok, fault_ok);
  std::printf("wrote %s\n", out.c_str());

  if (!recovered) {
    std::fprintf(stderr,
                 "FAIL: recalibration did not recover the hit rate "
                 "(gap %.3f, stale %.3f vs recal %.3f)\n",
                 recovery_gap, stale.hit_rate, recal.hit_rate);
    return 1;
  }
  if (!tail_ok) {
    std::fprintf(stderr, "FAIL: p99 ratio %.2fx exceeds %.1fx gate\n",
                 tail_ratio, kTailGate);
    return 1;
  }
  if (!fault_ok) {
    std::fprintf(stderr,
                 "FAIL: fault-hardening gate (answered=%d interrupted=%d "
                 "recoveries=%llu rejects=%zu misses=%zu)\n",
                 answered_all, faulted.interrupted,
                 static_cast<unsigned long long>(faulted.faults.recoveries),
                 faulted.swap_rejects, faulted.deadline_misses);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) { return fae::Run(argc, argv); }
