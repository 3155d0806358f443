#include "report.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "sim/timeline.h"
#include "util/string_util.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"host_samples_per_s", "1/s"},
      {"modeled_samples_per_s", "1/s"},
      {"loss", "nats"},
      {"peak_rss_mb", "MiB"},
      {"hit_rate", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = [] {
    std::vector<MetricDef> m = {
        {"data.load_s", "s"},
        {"data.gather_s", "s"},
        {"core.prepare_s", "s"},
        {"core.calibrate_s", "s"},
        {"core.classify_s", "s"},
        {"core.pack_s", "s"},
        {"core.hot_input_share", "ratio"},
        {"core.hot_bytes", "bytes"},
        {"core.threshold", "ratio"},
        {"models.fwd_bwd_s", "s"},
        {"models.fwd_bwd_self_s", "s"},
        {"models.eval_s", "s"},
        {"tensor.gemm_s", "s"},
        {"tensor.gemm_gflops", "GFLOP/s"},
        {"embedding.bag_forward_s", "s"},
        {"embedding.fused_step_s", "s"},
        {"embedding.rows_touched", "count"},
        {"engine.train_s", "s"},
        {"engine.cost_only_s", "s"},
        {"engine.transitions", "count"},
        {"engine.sync_bytes", "bytes"},
        {"engine.hot_batch_share", "ratio"},
        {"engine.cache_hit_rate", "ratio"},
        {"engine.cache_saved_s", "s"},
        {"engine.cache_prefetch_bytes", "bytes"},
        {"engine.cache_writeback_bytes", "bytes"},
        {"engine.overlap_saved_s", "s"},
    };
    for (int p = 0; p < static_cast<int>(fae::Phase::kNumPhases); ++p) {
      m.push_back({"sim.phase." +
                       std::string(fae::PhaseName(static_cast<fae::Phase>(p))) +
                       "_s",
                   "s"});
    }
    const std::vector<MetricDef> rest = {
        {"sim.pcie_bytes", "bytes"},
        {"sim.nvlink_bytes", "bytes"},
        {"serve.serve_s", "s"},
        {"serve.recal_attempts", "count"},
        {"serve.swaps", "count"},
        {"serve.swap_rejects", "count"},
        {"serve.stale_hits", "count"},
        {"serve.misses", "count"},
        {"serve.coverage_ema", "ratio"},
        {"serve.train_steps", "count"},
        {"serve.modeled_p99_us", "us"},
        {"util.thread_speedup", "ratio"},
        {"trace.overhead_frac", "ratio"},
        {"trace.coverage", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

const std::vector<LayerLink>& LayerMap() {
  static const std::vector<LayerLink> kMap = [] {
    const std::string kaggle = "train-kaggle-fae";
    const std::string tera = "train-terabyte-hybrid-mt";
    const std::string serve = "serve-taobao-drift";
    const std::string train = kaggle + "," + tera;
    std::vector<LayerLink> m = {
        {"data.load_s", "setup_s", "all"},
        {"data.gather_s", "host_samples_per_s", tera},
        {"core.prepare_s", "setup_s", kaggle},
        {"core.calibrate_s", "setup_s", kaggle},
        {"core.classify_s", "setup_s", kaggle},
        {"core.prepare_s", "host_samples_per_s", serve},
        {"core.calibrate_s", "host_samples_per_s", serve},
        {"core.classify_s", "host_samples_per_s", serve},
        {"core.pack_s", "host_samples_per_s", kaggle},
        {"core.hot_input_share", "modeled_samples_per_s", kaggle},
        {"core.hot_bytes", "modeled_samples_per_s", kaggle},
        {"core.threshold", "modeled_samples_per_s", kaggle},
        {"models.fwd_bwd_s", "host_samples_per_s", "all"},
        {"models.fwd_bwd_self_s", "host_samples_per_s", "all"},
        {"models.eval_s", "host_samples_per_s", kaggle},
        {"tensor.gemm_s", "models.fwd_bwd_s", "all"},
        {"tensor.gemm_gflops", "models.fwd_bwd_s", "all"},
        {"embedding.bag_forward_s", "host_samples_per_s", train},
        {"embedding.fused_step_s", "host_samples_per_s", train},
        {"embedding.rows_touched", "host_samples_per_s", train},
        {"engine.train_s", "host_samples_per_s", train},
        {"engine.cost_only_s", "host_samples_per_s", train},
        {"engine.transitions", "modeled_samples_per_s", kaggle},
        {"engine.sync_bytes", "modeled_samples_per_s", kaggle},
        {"engine.hot_batch_share", "modeled_samples_per_s", kaggle},
        {"engine.cache_hit_rate", "modeled_samples_per_s", tera},
        {"engine.cache_saved_s", "modeled_samples_per_s", tera},
        {"engine.cache_prefetch_bytes", "modeled_samples_per_s", tera},
        {"engine.cache_writeback_bytes", "modeled_samples_per_s", tera},
        {"engine.overlap_saved_s", "modeled_samples_per_s", tera},
        {"sim.pcie_bytes", "modeled_samples_per_s", "all"},
        {"sim.nvlink_bytes", "modeled_samples_per_s", "all"},
    };
    for (int p = 0; p < static_cast<int>(fae::Phase::kNumPhases); ++p) {
      m.push_back({"sim.phase." +
                       std::string(fae::PhaseName(static_cast<fae::Phase>(p))) +
                       "_s",
                   "modeled_samples_per_s", "all"});
    }
    for (const char* name :
         {"serve.serve_s", "serve.recal_attempts", "serve.swaps",
          "serve.swap_rejects", "serve.stale_hits", "serve.misses",
          "serve.coverage_ema", "serve.train_steps",
          "serve.modeled_p99_us"}) {
      for (const char* to :
           {"hit_rate", "modeled_samples_per_s", "host_samples_per_s"}) {
        m.push_back({name, to, serve});
      }
    }
    return m;
  }();
  return kMap;
}

std::string ToJson(const Result& result) {
  std::string out = fae::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += fae::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i > 0 ? ", " : "", m.name.c_str(), m.value,
                          m.unit.c_str());
  }
  out += "}}";
  return out;
}

namespace {

// Recursive-descent reader for the result schema only: objects, strings
// without escapes, numbers and booleans.
class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool String(std::string* out) {
    if (!Consume('"')) return false;
    const size_t end = s_.find('"', pos_);
    if (end == std::string::npos) return false;
    *out = s_.substr(pos_, end - pos_);
    if (out->find('\\') != std::string::npos) return false;
    pos_ = end + 1;
    return true;
  }
  bool Number(double* out) {
    SkipSpace();
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }
  bool Bool(bool* out) {
    SkipSpace();
    for (const auto& [word, value] :
         {std::pair<const char*, bool>{"true", true}, {"false", false}}) {
      const size_t n = std::strlen(word);
      if (s_.compare(pos_, n, word) == 0) {
        pos_ += n;
        *out = value;
        return true;
      }
    }
    return false;
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  const std::string& s_;
  size_t pos_ = 0;
};

bool ReadCount(Reader& r, uint64_t* out) {
  double v = 0.0;
  if (!r.Number(&v) || v < 0 || v != static_cast<double>(
                                        static_cast<uint64_t>(v))) {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ReadMetric(Reader& r, Metric* m) {
  if (!r.String(&m->name) || !r.Consume(':') || !r.Consume('{')) return false;
  std::string key;
  bool have_value = false;
  bool have_unit = false;
  do {
    if (!r.String(&key) || !r.Consume(':')) return false;
    if (key == "value" && !have_value) {
      if (!r.Number(&m->value)) return false;
      have_value = true;
    } else if (key == "unit" && !have_unit) {
      if (!r.String(&m->unit)) return false;
      have_unit = true;
    } else {
      return false;
    }
  } while (r.Consume(','));
  return have_value && have_unit && r.Consume('}');
}

}  // namespace

fae::StatusOr<Result> ParseResult(const std::string& json) {
  Reader r(json);
  Result result;
  const auto bad = [](const std::string& what) {
    return fae::Status::InvalidArgument("malformed result: " + what);
  };
  if (!r.Consume('{')) return bad("expected '{'");
  int seen = 0;
  std::string key;
  do {
    if (!r.String(&key) || !r.Consume(':')) return bad("expected a key");
    if (key == "correct") {
      if (!r.Bool(&result.correct)) return bad("correct");
    } else if (key == "attempted") {
      if (!ReadCount(r, &result.attempted)) return bad("attempted");
    } else if (key == "failed") {
      if (!ReadCount(r, &result.failed)) return bad("failed");
    } else if (key == "metrics") {
      if (!r.Consume('{')) return bad("metrics");
      if (!r.Consume('}')) {
        do {
          Metric m;
          if (!ReadMetric(r, &m)) return bad("metric");
          result.metrics.push_back(std::move(m));
        } while (r.Consume(','));
        if (!r.Consume('}')) return bad("metrics end");
      }
    } else {
      return bad("unknown key " + key);
    }
    ++seen;
  } while (r.Consume(','));
  if (!r.Consume('}') || !r.AtEnd()) return bad("trailing input");
  if (seen != 4) return bad("expected exactly four keys");
  return result;
}

Provenance CurrentProvenance(const std::string& commit) {
  Provenance p;
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.compiler = PERFBENCH_COMPILER;
  p.flags = PERFBENCH_FLAGS;
  p.nproc = std::thread::hardware_concurrency();
  p.commit = commit.empty() ? "unknown" : commit;
  return p;
}

std::string ToJson(const Provenance& p) {
  return fae::StrFormat(
      "{\"build_type\": \"%s\", \"compiler\": \"%s\", \"flags\": \"%s\", "
      "\"nproc\": %u, \"commit\": \"%s\"}",
      p.build_type.c_str(), p.compiler.c_str(), p.flags.c_str(), p.nproc,
      p.commit.c_str());
}

fae::Status CheckBuild(const Provenance& p) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return fae::Status::FailedPrecondition(
      "perfbench needs an optimized NDEBUG build");
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return fae::Status::FailedPrecondition(
      "perfbench refuses sanitizer builds");
#else
  if (p.build_type != "Release") {
    return fae::Status::FailedPrecondition(
        "perfbench needs a Release build, got " + p.build_type);
  }
  for (const char* bad : {"sanitize", "coverage", "-pg", "-O0"}) {
    if (p.flags.find(bad) != std::string::npos) {
      return fae::Status::FailedPrecondition(
          "perfbench refuses instrumented flags: " + p.flags);
    }
  }
  return fae::Status::OK();
#endif
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
