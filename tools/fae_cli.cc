// fae — command-line frontend for the FAE library.
//
//   fae generate    --out=data.faed [--workload=kaggle|taobao|terabyte]
//                   [--scale=tiny|small|medium] [--inputs=N] [--seed=S]
//                   [--zipf=1.15] [--drift=0.0]
//   fae inspect     --data=data.faed
//   fae preprocess  --data=data.faed --out=plan.faef [--budget-kb=384]
//                   [--sample-rate=0.05] [--cutoff-kb=4]
//   fae train       --data=data.faed [--plan=plan.faef]
//                   [--mode=baseline|fae|nvopt|model-parallel|cache]
//                   [--gpus=4] [--nodes=1] [--batch=1024] [--epochs=1]
//                   [--test-frac=0.1] [--cost-only]
//                   [--budget-kb=384] [--sample-rate=0.05] [--cutoff-kb=4]
//                   [--threads=1] [--dirty-sync] [--full-model]
//                   [--pipeline=off|prefetch|overlap] [--pipeline-depth=2]
//                   [--cache=off|oracle] [--cache-budget-rows=4096]
//                   [--cache-lookahead=8] [--cold-precision=fp32|fp16|int8]
//                   [--stale-skip=off|cold|all] [--stale-threshold=T]
//                   [--stale-min-visits=8]
//                   [--ckpt=run.faec] [--ckpt-every=100] [--resume]
//                   [--fault-plan=device@30,stall@50:0.2,corrupt@75,crash@120]
//   fae serve       --data=data.faed [--plan=plan.faef] [--swap=swap.faef]
//                   [--batch=256] [--batches=N] [--slo=0.75]
//                   [--ema-alpha=0.05] [--recal-window=8192]
//                   [--recal-cooldown=32] [--deadline-ms=250]
//                   [--recal-retries=3] [--backoff-ms=10] [--no-train]
//                   [--cache=off|oracle] [--cache-budget-rows=4096]
//                   [--cache-lookahead=8] [--cold-precision=fp32|fp16|int8]
//                   [--threads=1] [--gpus=4] [--serve-config=serve.cfg]
//                   [--seed=S] [--budget-kb=384] [--sample-rate=0.05]
//                   [--cutoff-kb=4] [--full-model]
//                   [--fault-plan=recal-stall@40:3,swap-crash@60,lookup-loss@80x2]
//
// Every subcommand refuses a flag it does not read (exit code 2, an error
// naming the flag) before it does any work, so a misspelt or retired flag
// never runs silently as the default. `train` also refuses, with exit code
// 2 and before loading the dataset, every flag combination that
// ValidateTrainOptions rejects (engine/trainer.h), e.g. a comparator mode
// (nvopt, model-parallel, cache) with --nodes > 1, --cache, --stale-skip or
// --cold-precision, or --dirty-sync outside --mode=fae. Every mode honors
// --pipeline, --ckpt/--resume and --fault-plan.
//
// The `generate -> preprocess -> train` flow mirrors the paper's once-per-
// dataset static pass followed by repeated training runs; `serve` replays
// the dataset as drifting online traffic against the preprocessed hot set
// (DESIGN.md §12).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "core/fae_format.h"
#include "embedding/cold_precision.h"
#include "data/dataset_io.h"
#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "serve/serving_loop.h"
#include "util/string_util.h"

namespace fae {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fae <generate|inspect|preprocess|train|serve> "
               "[--flags]\n"
               "see the header of tools/fae_cli.cc for the full flag list\n");
  return 2;
}

// Sentinel distinguishing an absent flag from one given an empty value
// ("--threads=" must be rejected, not silently defaulted).
constexpr const char kFlagAbsent[] = "\x01";

/// Strict floating-point flag parsing: the whole value must be a number.
/// Range checks stay with the consumer (ServeOptions::Validate), so the
/// file and flag construction paths reject the same garbage.
bool StrictDoubleFlag(const bench::Args& args, const char* key,
                      double fallback, double* out) {
  const std::string raw = args.GetString(key, kFlagAbsent);
  if (raw == kFlagAbsent) {
    *out = fallback;
    return true;
  }
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end != raw.c_str() + raw.size()) {
    std::fprintf(stderr, "error: --%s='%s' is not a number\n", key,
                 raw.c_str());
    return false;
  }
  *out = value;
  return true;
}

/// Parses the --cache flag triple shared by `train` and `serve`. Bad input
/// prints an error and returns false. Range and mode checks stay with the
/// consumer (ValidateTrainOptions, ServeOptions::Validate).
bool ParseCacheFlags(const bench::Args& args, CacheMode* mode,
                     size_t* budget_rows, size_t* lookahead) {
  const std::string cache = args.GetString("cache", "off");
  if (cache == "oracle") {
    *mode = CacheMode::kOracle;
  } else if (cache == "off") {
    *mode = CacheMode::kOff;
  } else {
    std::fprintf(stderr,
                 "error: unknown --cache mode '%s' (expected off|oracle)\n",
                 cache.c_str());
    return false;
  }
  *budget_rows = args.GetPositiveInt("cache-budget-rows", 4096);
  *lookahead = args.GetPositiveInt("cache-lookahead", 8);
  return true;
}

/// Parses --cold-precision for `train` and `serve`. An unknown value is an
/// error naming the expected set, never a silent fp32 fallback.
bool ParseColdPrecisionFlag(const bench::Args& args, ColdPrecision* out) {
  const std::string raw = args.GetString("cold-precision", "fp32");
  if (!ParseColdPrecision(raw, out)) {
    std::fprintf(stderr,
                 "error: unknown --cold-precision '%s' (expected "
                 "fp32|fp16|int8)\n",
                 raw.c_str());
    return false;
  }
  return true;
}

/// Parses the --stale-skip triple for `train`. An unknown mode is an
/// error; so is giving a tuning flag while skipping stays off — a
/// silently ignored threshold would look like a working experiment.
bool ParseStaleFlags(const bench::Args& args, StaleSkipMode* mode,
                     double* threshold, size_t* min_visits) {
  const std::string raw = args.GetString("stale-skip", "off");
  if (raw == "off") {
    *mode = StaleSkipMode::kOff;
  } else if (raw == "cold") {
    *mode = StaleSkipMode::kCold;
  } else if (raw == "all") {
    *mode = StaleSkipMode::kAll;
  } else {
    std::fprintf(stderr,
                 "error: unknown --stale-skip mode '%s' (expected "
                 "off|cold|all)\n",
                 raw.c_str());
    return false;
  }
  if (*mode == StaleSkipMode::kOff) {
    const bool threshold_given =
        args.GetString("stale-threshold", kFlagAbsent) != kFlagAbsent;
    const bool visits_given =
        args.GetString("stale-min-visits", kFlagAbsent) != kFlagAbsent;
    if (threshold_given || visits_given) {
      std::fprintf(stderr,
                   "error: --%s requires --stale-skip=cold or "
                   "--stale-skip=all (with skipping off it would be "
                   "silently ignored)\n",
                   threshold_given ? "stale-threshold" : "stale-min-visits");
      return false;
    }
  }
  double t = 0.0;
  if (!StrictDoubleFlag(args, "stale-threshold", 0.0, &t)) return false;
  *threshold = t;
  *min_visits = args.GetPositiveInt("stale-min-visits", 8);
  return true;
}

WorkloadKind ParseWorkload(const std::string& name) {
  if (name == "taobao") return WorkloadKind::kTaobaoTbsm;
  if (name == "terabyte") return WorkloadKind::kTerabyteDlrm;
  return WorkloadKind::kKaggleDlrm;
}

int Generate(const bench::Args& args) {
  args.AcceptsOnly("fae generate",
                   {"out", "workload", "scale", "inputs", "seed", "zipf",
                    "drift"});
  const std::string out = args.GetString("out", "");
  if (out.empty()) return Usage();
  const WorkloadKind kind = ParseWorkload(args.GetString("workload", "kaggle"));
  const DatasetScale scale = bench::ParseScale(args.GetString("scale", "tiny"));
  const size_t inputs = args.GetPositiveInt(
      "inputs", static_cast<long>(DefaultNumInputs(kind, scale)));

  SyntheticOptions options;
  options.seed = args.GetNonNegativeInt("seed", 42);
  options.zipf_exponent = args.GetDouble("zipf", options.zipf_exponent);
  if (!StrictDoubleFlag(args, "drift", options.popularity_drift,
                        &options.popularity_drift)) {
    return 2;
  }
  SyntheticGenerator generator(MakeSchema(kind, scale), options);
  Dataset dataset = generator.Generate(inputs);
  const Status status = DatasetIo::Save(out, dataset);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu inputs (%s, %s embeddings) to %s\n", dataset.size(),
              std::string(WorkloadName(kind)).c_str(),
              HumanBytes(dataset.schema().TotalEmbeddingBytes()).c_str(),
              out.c_str());
  return 0;
}

int Inspect(const bench::Args& args) {
  args.AcceptsOnly("fae inspect", {"data"});
  const std::string path = args.GetString("data", "");
  if (path.empty()) return Usage();
  auto dataset = DatasetIo::Load(path);
  if (!dataset.ok()) return Fail(dataset.status());
  const DatasetSchema& s = dataset->schema();
  std::printf("%s: %zu inputs\n", path.c_str(), dataset->size());
  std::printf("  workload:   %s\n", std::string(WorkloadName(s.kind)).c_str());
  std::printf("  dense:      %zu features\n", s.num_dense);
  std::printf("  tables:     %zu (dim %zu, %s total)\n", s.num_tables(),
              s.embedding_dim, HumanBytes(s.TotalEmbeddingBytes()).c_str());
  if (s.sequential) {
    std::printf("  sequences:  histories up to %zu items\n", s.max_history);
  }
  AccessProfile profile = dataset->ProfileAllAccesses();
  std::printf("  skew:       largest table top-1%% share %.1f%%, top-10%% "
              "share %.1f%%\n",
              100 * profile.TopShare(0, 0.01),
              100 * profile.TopShare(0, 0.10));
  return 0;
}

int Preprocess(const bench::Args& args) {
  args.AcceptsOnly("fae preprocess",
                   {"data", "out", "sample-rate", "budget-kb", "cutoff-kb"});
  const std::string data_path = args.GetString("data", "");
  const std::string out = args.GetString("out", "");
  if (data_path.empty() || out.empty()) return Usage();
  auto dataset = DatasetIo::Load(data_path);
  if (!dataset.ok()) return Fail(dataset.status());

  FaeConfig config;
  config.sample_rate = args.GetDouble("sample-rate", 0.05);
  config.gpu_memory_budget = args.GetPositiveInt("budget-kb", 384) * 1024ull;
  config.large_table_bytes = args.GetPositiveInt("cutoff-kb", 4) * 1024ull;

  std::vector<uint64_t> train_ids(dataset->size());
  for (size_t i = 0; i < train_ids.size(); ++i) train_ids[i] = i;
  FaePipeline pipeline(config);
  auto plan = pipeline.PrepareCached(*dataset, train_ids, out);
  if (!plan.ok()) return Fail(plan.status());
  std::printf("%s plan: threshold t=%.1e, hot slice %s, hot inputs %.1f%%\n",
              plan->from_cache ? "loaded" : "wrote", plan->threshold,
              HumanBytes(plan->hot_bytes).c_str(),
              100 * plan->inputs.HotFraction());
  return 0;
}

int Train(const bench::Args& args) {
  args.AcceptsOnly("fae train",
                   {"data", "plan", "mode", "gpus", "nodes", "batch", "epochs",
                    "test-frac", "cost-only", "budget-kb", "sample-rate",
                    "cutoff-kb", "threads", "dirty-sync", "full-model",
                    "pipeline", "pipeline-depth", "cache", "cache-budget-rows",
                    "cache-lookahead", "cold-precision", "stale-skip",
                    "stale-threshold", "stale-min-visits", "ckpt", "ckpt-every",
                    "resume", "fault-plan"});
  const std::string data_path = args.GetString("data", "");
  if (data_path.empty()) return Usage();
  const std::string mode_flag = args.GetString("mode", "fae");
  TrainMode mode = TrainMode::kFae;
  if (mode_flag == "baseline") {
    mode = TrainMode::kBaseline;
  } else if (mode_flag == "nvopt") {
    mode = TrainMode::kNvOpt;
  } else if (mode_flag == "model-parallel") {
    mode = TrainMode::kModelParallel;
  } else if (mode_flag == "cache") {
    mode = TrainMode::kGpuCache;
  } else if (mode_flag != "fae") {
    return Usage();
  }

  TrainOptions options;
  options.per_gpu_batch = args.GetPositiveInt("batch", 1024);
  options.epochs = args.GetPositiveInt("epochs", 1);
  options.run_math = !args.GetBool("cost-only", false);
  options.num_threads = args.GetPositiveInt("threads", 1);
  options.sync_strategy = args.GetBool("dirty-sync", false)
                              ? SyncStrategy::kDirty
                              : SyncStrategy::kFull;
  const std::string pipeline = args.GetString("pipeline", "off");
  if (pipeline == "prefetch") {
    options.pipeline = PipelineMode::kPrefetch;
  } else if (pipeline == "overlap") {
    options.pipeline = PipelineMode::kOverlap;
  } else if (pipeline != "off") {
    std::fprintf(stderr, "error: unknown --pipeline mode '%s' "
                 "(expected off|prefetch|overlap)\n", pipeline.c_str());
    return 2;
  }
  options.pipeline_depth = args.GetPositiveInt("pipeline-depth", 2);
  if (!ParseCacheFlags(args, &options.cache, &options.cache_budget_rows,
                       &options.cache_lookahead) ||
      !ParseColdPrecisionFlag(args, &options.cold_precision) ||
      !ParseStaleFlags(args, &options.stale_skip, &options.stale_threshold,
                       &options.stale_min_visits)) {
    return 2;
  }
  options.checkpoint.path = args.GetString("ckpt", "");
  options.checkpoint.every_steps = args.GetPositiveInt("ckpt-every", 100);
  options.checkpoint.resume = args.GetBool("resume", false);

  FaultInjector injector;
  const std::string fault_plan = args.GetString("fault-plan", "");
  if (!fault_plan.empty()) {
    auto parsed = FaultInjector::Parse(fault_plan);
    if (!parsed.ok()) return Fail(parsed.status());
    injector = std::move(parsed).value();
    options.fault_injector = &injector;
  }
  const int gpus = static_cast<int>(args.GetPositiveInt("gpus", 4));
  const int nodes = static_cast<int>(args.GetPositiveInt("nodes", 1));
  SystemSpec system = nodes > 1 ? MakeMultiNodeCluster(nodes, gpus)
                                : MakePaperServer(gpus);

  FaeConfig config;
  config.sample_rate = args.GetDouble("sample-rate", 0.05);
  config.gpu_memory_budget = args.GetPositiveInt("budget-kb", 384) * 1024ull;
  config.large_table_bytes = args.GetPositiveInt("cutoff-kb", 4) * 1024ull;
  config.cold_precision = options.cold_precision;
  system.hot_embedding_budget = config.gpu_memory_budget;

  // Every mode/flag conflict is refused here, before the dataset loads.
  const Status valid = ValidateTrainOptions(mode, options, system);
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 2;
  }

  auto dataset = DatasetIo::Load(data_path);
  if (!dataset.ok()) return Fail(dataset.status());
  Dataset::Split split = dataset->MakeSplit(args.GetDouble("test-frac", 0.1));
  auto model = MakeModel(dataset->schema(),
                         args.GetBool("full-model", false), 7);
  Trainer trainer(model.get(), system, options);

  // FAE and the GPU-cache comparator need a plan (its hot set).
  StatusOr<FaePlan> plan = FaePlan{};
  if (mode == TrainMode::kFae || mode == TrainMode::kGpuCache) {
    FaePipeline fae_pipeline(config);
    const std::string plan_path = args.GetString("plan", "");
    plan = plan_path.empty()
               ? fae_pipeline.Prepare(*dataset, split.train)
               : fae_pipeline.PrepareCached(*dataset, split.train, plan_path);
    if (!plan.ok()) return Fail(plan.status());
  }
  StatusOr<TrainReport> run =
      mode == TrainMode::kFae
          ? trainer.TrainFaeWithPlan(*dataset, split, config, *plan)
          : trainer.Train(mode, *dataset, split, &*plan);
  if (!run.ok()) return Fail(run.status());
  const TrainReport& report = *run;

  std::printf("mode %s, %d GPU(s), %zu batches\n",
              std::string(TrainModeName(report.mode)).c_str(), gpus,
              report.num_batches);
  std::printf("modeled time: %s   per-GPU power: %.1fW\n",
              HumanSeconds(report.modeled_seconds).c_str(),
              report.avg_gpu_watts);
  if (options.pipeline != PipelineMode::kOff) {
    std::printf(
        "pipeline %s (depth %zu): staged %s of input, overlap hid %s "
        "(%.1f%% of the serial wall)\n",
        std::string(PipelineModeName(options.pipeline)).c_str(),
        options.pipeline_depth, HumanSeconds(report.prep_seconds).c_str(),
        HumanSeconds(report.overlap_saved_seconds).c_str(),
        100 * report.overlap_fraction);
  }
  if (options.cache == CacheMode::kOracle) {
    std::printf(
        "cache %s (budget %zu rows, lookahead %zu): hit rate %.1f%%, "
        "saved %s, prefetch %s, writeback %s, transfer %s -> %s\n",
        std::string(CacheModeName(options.cache)).c_str(),
        options.cache_budget_rows, options.cache_lookahead,
        100 * report.cache_hit_rate,
        HumanSeconds(report.cache_saved_seconds).c_str(),
        HumanBytes(report.cache_prefetch_bytes).c_str(),
        HumanBytes(report.cache_writeback_bytes).c_str(),
        HumanBytes(report.cache_plain_transfer_bytes).c_str(),
        HumanBytes(report.cache_effective_transfer_bytes).c_str());
  }
  if (options.run_math) {
    std::printf("train acc %.2f%%  test acc %.2f%%  test loss %.4f\n",
                100 * report.final_train_acc, 100 * report.final_test_acc,
                report.final_test_loss);
  }
  if (report.mode == TrainMode::kFae) {
    std::printf(
        "fae: hot inputs %.1f%%, %zu transitions, synced %s, final R(%.0f)\n",
        100 * report.hot_fraction, report.transitions,
        HumanBytes(report.sync_bytes).c_str(), report.final_rate);
    if (options.cold_precision != ColdPrecision::kFp32) {
      std::printf(
          "cold store %s: %llu rows in %s, reclaimed %s, effective hot "
          "budget %s\n",
          std::string(ColdPrecisionName(options.cold_precision)).c_str(),
          static_cast<unsigned long long>(report.cold_rows),
          HumanBytes(report.cold_store_bytes).c_str(),
          HumanBytes(report.cold_reclaimed_bytes).c_str(),
          HumanBytes(report.effective_hot_budget).c_str());
    }
  }
  if (options.stale_skip != StaleSkipMode::kOff) {
    const uint64_t visits =
        report.stale_skipped_rows + report.stale_updated_rows;
    std::printf(
        "stale skip %s (threshold %g, min visits %zu): skipped %.1f%% of "
        "row-updates (%llu of %llu), saved %s, reactivated %llu, guard "
        "-%llu/+%llu, final threshold %g\n",
        std::string(StaleSkipModeName(options.stale_skip)).c_str(),
        options.stale_threshold, options.stale_min_visits,
        visits > 0 ? 100.0 * static_cast<double>(report.stale_skipped_rows) /
                         static_cast<double>(visits)
                   : 0.0,
        static_cast<unsigned long long>(report.stale_skipped_rows),
        static_cast<unsigned long long>(visits),
        HumanSeconds(report.stale_skip_saved_seconds).c_str(),
        static_cast<unsigned long long>(report.stale_reactivated_rows),
        static_cast<unsigned long long>(report.stale_guard_tightens),
        static_cast<unsigned long long>(report.stale_guard_widens),
        report.stale_final_threshold);
  }
  if (report.resumed) {
    std::printf("resumed from %s at iteration %llu\n",
                options.checkpoint.path.c_str(),
                static_cast<unsigned long long>(report.resumed_at));
  }
  if (report.degraded) {
    std::printf(
        "degraded: hot slice over budget; demoted %llu rows, %llu inputs "
        "fell back to the cold path\n",
        static_cast<unsigned long long>(report.demoted_rows),
        static_cast<unsigned long long>(report.fallback_inputs));
  }
  if (options.fault_injector != nullptr) {
    const FaultStats& fs = report.faults;
    std::printf(
        "faults: %llu device (%llu retries), %llu stalls, %llu corrupt "
        "syncs, %llu crashes\n",
        static_cast<unsigned long long>(fs.device_faults),
        static_cast<unsigned long long>(fs.retries),
        static_cast<unsigned long long>(fs.link_stalls),
        static_cast<unsigned long long>(fs.corrupt_syncs),
        static_cast<unsigned long long>(fs.crashes));
  }
  if (report.interrupted) {
    std::printf(
        "run interrupted by an injected crash at iteration %zu; rerun with "
        "--resume to continue from the last checkpoint\n",
        report.num_batches);
  }
  std::printf("\nphase breakdown:\n%s", report.timeline.Report().c_str());
  return 0;
}

int Serve(const bench::Args& args) {
  args.AcceptsOnly("fae serve",
                   {"data", "plan", "swap", "batch", "batches", "slo",
                    "ema-alpha", "recal-window", "recal-cooldown",
                    "deadline-ms", "recal-retries", "backoff-ms", "no-train",
                    "cache", "cache-budget-rows", "cache-lookahead",
                    "cold-precision", "threads", "gpus", "serve-config", "seed",
                    "budget-kb", "sample-rate", "cutoff-kb", "full-model",
                    "fault-plan"});
  const std::string data_path = args.GetString("data", "");
  if (data_path.empty()) return Usage();
  auto dataset = DatasetIo::Load(data_path);
  if (!dataset.ok()) return Fail(dataset.status());

  // A --serve-config file seeds the options; flags override field by field,
  // and both paths funnel through ServeOptions::Validate.
  ServeOptions opts;
  const std::string config_path = args.GetString("serve-config", "");
  if (!config_path.empty()) {
    std::ifstream in(config_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read --serve-config=%s\n",
                   config_path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto parsed = ServeOptions::Parse(buf.str());
    if (!parsed.ok()) return Fail(parsed.status());
    opts = std::move(parsed).value();
  }
  double d = 0.0;
  opts.batch_size = args.GetPositiveInt("batch", opts.batch_size);
  opts.num_batches = args.GetNonNegativeInt("batches", opts.num_batches);
  if (!StrictDoubleFlag(args, "slo", opts.slo_hit_rate, &d)) return 2;
  opts.slo_hit_rate = d;
  if (!StrictDoubleFlag(args, "ema-alpha", opts.ema_alpha, &d)) return 2;
  opts.ema_alpha = d;
  opts.recal_window = args.GetPositiveInt("recal-window", opts.recal_window);
  opts.recal_cooldown =
      args.GetPositiveInt("recal-cooldown", opts.recal_cooldown);
  if (!StrictDoubleFlag(args, "deadline-ms",
                        opts.watchdog_deadline_seconds * 1e3, &d)) {
    return 2;
  }
  opts.watchdog_deadline_seconds = d / 1e3;
  opts.max_recal_retries = static_cast<uint32_t>(
      args.GetPositiveInt("recal-retries", opts.max_recal_retries));
  if (!StrictDoubleFlag(args, "backoff-ms", opts.retry_backoff_seconds * 1e3,
                        &d)) {
    return 2;
  }
  opts.retry_backoff_seconds = d / 1e3;
  opts.num_threads = args.GetPositiveInt("threads", opts.num_threads);
  opts.seed = args.GetNonNegativeInt("seed", opts.seed);
  if (args.GetBool("no-train", false)) opts.continuous_training = false;
  opts.swap_path = args.GetString("swap", "");
  if (!ParseCacheFlags(args, &opts.cache, &opts.cache_budget_rows,
                       &opts.cache_lookahead)) {
    return 2;
  }
  if (!ParseColdPrecisionFlag(args, &opts.cold_precision)) return 2;
  if (opts.cold_precision != ColdPrecision::kFp32 &&
      opts.cache == CacheMode::kOracle) {
    std::fprintf(stderr,
                 "error: --cold-precision=%s cannot be combined with "
                 "--cache=oracle (the cache's budget accounting assumes "
                 "fp32 cold rows)\n",
                 std::string(ColdPrecisionName(opts.cold_precision)).c_str());
    return 2;
  }
  const Status valid = opts.Validate();
  if (!valid.ok()) return Fail(valid);

  FaultInjector injector;
  const std::string fault_plan = args.GetString("fault-plan", "");
  if (!fault_plan.empty()) {
    auto parsed = FaultInjector::Parse(fault_plan);
    if (!parsed.ok()) return Fail(parsed.status());
    injector = std::move(parsed).value();
    opts.fault_injector = &injector;
  }

  SystemSpec system =
      MakePaperServer(static_cast<int>(args.GetPositiveInt("gpus", 4)));
  FaeConfig config;
  config.sample_rate = args.GetDouble("sample-rate", 0.05);
  config.gpu_memory_budget = args.GetPositiveInt("budget-kb", 384) * 1024ull;
  config.large_table_bytes = args.GetPositiveInt("cutoff-kb", 4) * 1024ull;
  system.hot_embedding_budget = config.gpu_memory_budget;

  // The offline plan the serving loop starts from (and recalibrates away
  // from once the traffic drifts).
  std::vector<uint64_t> train_ids(dataset->size());
  std::iota(train_ids.begin(), train_ids.end(), 0);
  FaePipeline pipeline(config);
  StatusOr<FaePlan> plan = [&]() -> StatusOr<FaePlan> {
    const std::string plan_path = args.GetString("plan", "");
    if (!plan_path.empty()) {
      return pipeline.PrepareCached(*dataset, train_ids, plan_path);
    }
    return pipeline.Prepare(*dataset, train_ids);
  }();
  if (!plan.ok()) return Fail(plan.status());

  auto model = MakeModel(dataset->schema(),
                         args.GetBool("full-model", false), 7);
  ServingLoop loop(model.get(), system, config, opts);
  auto report = loop.Serve(*dataset, *plan);
  if (!report.ok()) return Fail(report.status());

  std::printf("served %zu batches, %llu requests, %llu lookups\n",
              report->batches,
              static_cast<unsigned long long>(report->requests),
              static_cast<unsigned long long>(report->lookups));
  std::printf(
      "hit rate %.1f%% (stale %.1f%%, master fallback %.1f%%, miss %.1f%%), "
      "coverage ema %.3f\n",
      100.0 * report->hit_rate,
      report->lookups
          ? 100.0 * report->stale_hits / static_cast<double>(report->lookups)
          : 0.0,
      report->lookups ? 100.0 * report->master_fallbacks /
                            static_cast<double>(report->lookups)
                      : 0.0,
      report->lookups
          ? 100.0 * report->misses / static_cast<double>(report->lookups)
          : 0.0,
      report->coverage_ema);
  if (opts.cache == CacheMode::kOracle) {
    std::printf(
        "cold cache %s (budget %zu rows, lookahead %zu): absorbed %.1f%% of "
        "cold lookups (%llu hits), %llu stale refreshes, %s prefetched, "
        "saved %s\n",
        std::string(CacheModeName(opts.cache)).c_str(),
        opts.cache_budget_rows, opts.cache_lookahead,
        100.0 * report->cache_hit_rate,
        static_cast<unsigned long long>(report->cache_hits),
        static_cast<unsigned long long>(report->cache_stale_refreshes),
        HumanBytes(report->cache_prefetch_bytes).c_str(),
        HumanSeconds(report->cache_saved_seconds).c_str());
  }
  if (opts.cold_precision != ColdPrecision::kFp32) {
    uint64_t cold_rows = 0;
    uint64_t cold_bytes = 0;
    for (const EmbeddingTable& t : model->tables()) {
      cold_rows += t.cold_rows();
      cold_bytes += t.ColdStoreBytes();
    }
    std::printf("cold store %s: %llu rows in %s (partition fixed across "
                "swaps)\n",
                std::string(ColdPrecisionName(opts.cold_precision)).c_str(),
                static_cast<unsigned long long>(cold_rows),
                HumanBytes(cold_bytes).c_str());
  }
  std::printf("latency p50 %.1fus  p99 %.1fus\n",
              report->p50_latency_ns / 1e3, report->p99_latency_ns / 1e3);
  std::printf(
      "recal: %zu attempts, %zu deadline misses, %zu failures, %zu swaps, "
      "%zu rejects\n",
      report->recal_attempts, report->deadline_misses, report->recal_failures,
      report->swaps, report->swap_rejects);
  if (report->degraded_batches > 0 || report->degraded_at_exit) {
    std::printf("degraded: %zu batches served stale%s\n",
                report->degraded_batches,
                report->degraded_at_exit ? " (still degraded at exit)" : "");
  }
  if (opts.continuous_training) {
    std::printf("continuous training: %zu steps, loss %.4f, acc %.2f%%\n",
                report->train_steps, report->train_loss,
                100.0 * report->train_acc);
  }
  if (opts.fault_injector != nullptr) {
    const FaultStats& fs = report->faults;
    std::printf(
        "faults: %llu recal stalls, %llu swap crashes, %llu lookup losses, "
        "%llu recoveries\n",
        static_cast<unsigned long long>(fs.recal_stalls),
        static_cast<unsigned long long>(fs.swap_crashes),
        static_cast<unsigned long long>(fs.lookup_losses),
        static_cast<unsigned long long>(fs.recoveries));
  }
  if (report->interrupted) {
    std::printf("serving interrupted by an injected crash at batch %zu\n",
                report->batches);
  }
  std::printf("modeled time: %s\n",
              HumanSeconds(report->modeled_seconds).c_str());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  bench::Args args(argc, argv);
  if (command == "generate") return Generate(args);
  if (command == "inspect") return Inspect(args);
  if (command == "preprocess") return Preprocess(args);
  if (command == "train") return Train(args);
  if (command == "serve") return Serve(args);
  return Usage();
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) { return fae::Run(argc, argv); }
