#ifndef FAE_BENCH_BENCH_UTIL_H_
#define FAE_BENCH_BENCH_UTIL_H_

// Shared helpers for the reproduction harness binaries in bench/. Each
// binary regenerates one table or figure of the paper (see DESIGN.md §4)
// and prints the same rows/series the paper reports.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "data/schema.h"
#include "data/synthetic.h"

namespace fae::bench {

/// Minimal --key=value argument parser (no external deps).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      // Search from index 2: '=' cannot appear inside the "--" prefix, and
      // telling the compiler so avoids a GCC 12 -Wrestrict false positive
      // on the substr below.
      const size_t eq = arg.find('=', 2);
      // insert_or_assign with string values sidesteps a GCC 12
      // -Wrestrict false positive in string::operator=(const char*)
      // (GCC PR105329).
      if (eq == std::string::npos) {
        values_.insert_or_assign(arg.substr(2), std::string("1"));
      } else {
        values_.insert_or_assign(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  long GetInt(const std::string& key, long fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atol(it->second.c_str());
  }

  /// Strict signed-integer flag: the whole value must parse, and it must
  /// be >= `min_value`. GetInt is atol-based, so `--gpus=x` or `--gpus=-2`
  /// silently became a zero or negative resource count and the bench
  /// "ran" a nonsense cluster; resource-sizing flags reject that with an
  /// error naming the flag instead.
  long GetCheckedInt(const std::string& key, long fallback,
                     long min_value) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& raw = it->second;
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(raw.c_str(), &end, 10);
    if (raw.empty() || errno != 0 || end != raw.c_str() + raw.size()) {
      std::fprintf(stderr, "error: --%s='%s' is not an integer\n",
                   key.c_str(), raw.c_str());
      std::exit(2);
    }
    if (value < min_value) {
      std::fprintf(stderr, "error: --%s must be >= %ld (got %ld)\n",
                   key.c_str(), min_value, value);
      std::exit(2);
    }
    return value;
  }

  /// GetCheckedInt for counts that must be >= 1 (gpus, nodes, batch,
  /// epochs, depth...).
  long GetPositiveInt(const std::string& key, long fallback) const {
    return GetCheckedInt(key, fallback, 1);
  }

  /// GetCheckedInt for knobs where 0 means "use the default" (inputs,
  /// seeds).
  long GetNonNegativeInt(const std::string& key, long fallback) const {
    return GetCheckedInt(key, fallback, 0);
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  bool GetBool(const std::string& key, bool fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return it->second != "0" && it->second != "false";
  }

  /// Refuses any flag `program` does not read: a misspelt or retired flag
  /// would otherwise be silently ignored, and the run would pass for the
  /// experiment it was not. Prints one error per unknown flag, in name
  /// order, then exits with code 2.
  void AcceptsOnly(const char* program,
                   std::initializer_list<std::string_view> accepted) const {
    bool ok = true;
    for (const auto& [key, value] : values_) {
      if (std::find(accepted.begin(), accepted.end(), key) != accepted.end()) {
        continue;
      }
      std::fprintf(stderr, "error: unknown flag --%s for `%s`\n", key.c_str(),
                   program);
      ok = false;
    }
    if (!ok) std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
};

inline DatasetScale ParseScale(const std::string& name) {
  if (name == "tiny") return DatasetScale::kTiny;
  if (name == "small") return DatasetScale::kSmall;
  if (name == "medium") return DatasetScale::kMedium;
  if (name == "paper") return DatasetScale::kPaper;
  std::fprintf(stderr, "unknown scale '%s' (tiny|small|medium|paper)\n",
               name.c_str());
  std::exit(2);
}

/// The three paper workloads, in Table I order.
inline std::vector<WorkloadKind> AllWorkloads() {
  return {WorkloadKind::kKaggleDlrm, WorkloadKind::kTaobaoTbsm,
          WorkloadKind::kTerabyteDlrm};
}

/// Builds a synthetic dataset for `kind` at `scale` with `num_inputs`
/// inputs (0 = a per-scale default kept small enough for quick runs).
inline Dataset MakeWorkloadDataset(WorkloadKind kind, DatasetScale scale,
                                   size_t num_inputs, uint64_t seed = 42) {
  DatasetSchema schema = MakeSchema(kind, scale);
  if (num_inputs == 0) {
    num_inputs = std::min<size_t>(DefaultNumInputs(kind, scale), 30000);
  }
  SyntheticGenerator gen(schema, {.seed = seed});
  return gen.Generate(num_inputs);
}

/// A large-table cutoff that keeps the hot/cold machinery meaningful at
/// every scale: the paper's 1 MB for medium and up, proportionally smaller
/// for the shrunken test scales.
inline uint64_t LargeTableCutoff(DatasetScale scale) {
  switch (scale) {
    case DatasetScale::kTiny:
      return 1ULL << 12;
    case DatasetScale::kSmall:
      return 1ULL << 16;
    case DatasetScale::kMedium:
    case DatasetScale::kPaper:
      return 1ULL << 20;  // paper value
  }
  return 1ULL << 20;
}

/// A GPU hot-embedding budget proportional to the scale (the paper's
/// L = 256 MB maps to the paper scale) and to the embedding dim, so the
/// dim-64 Terabyte workload sits at the same knob point as the dim-16
/// ones. Chosen so the calibrated threshold lands where the paper's does:
/// hot inputs in the high tens of percent, hot accesses >90%.
inline uint64_t HotBudget(DatasetScale scale, size_t embedding_dim) {
  uint64_t base = 256ULL << 20;
  switch (scale) {
    case DatasetScale::kTiny:
      base = 384ULL << 10;
      break;
    case DatasetScale::kSmall:
      base = 2ULL << 20;
      break;
    case DatasetScale::kMedium:
      base = 16ULL << 20;
      break;
    case DatasetScale::kPaper:
      base = 256ULL << 20;
      break;
  }
  return base * embedding_dim / 16;
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace fae::bench

#endif  // FAE_BENCH_BENCH_UTIL_H_
