#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// The benchmark's vocabulary: which metrics it emits (with units), which
// end-to-end metric each per-layer metric is expected to move, and the
// one-line JSON result it prints.

#include <cstdint>
#include <string>
#include <vector>

#include "util/statusor.h"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Metrics a run prints with --trace 0, in print order.
const std::vector<MetricDef>& EndToEndMetrics();
/// Metrics a run prints with --trace 1, in print order.
const std::vector<MetricDef>& PerLayerMetrics();

/// One edge of the layer -> end-to-end map: `from` (a per-layer metric) is
/// expected to move `to` (an end-to-end metric, or a coarser per-layer
/// metric) on `workloads` ("all" or a comma-separated list).
struct LayerLink {
  std::string from;
  std::string to;
  std::string workloads;
};
const std::vector<LayerLink>& LayerMap();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line. `attempted` counts the library operations the run
/// checked (loads, plans, training and serving passes); `failed` counts
/// those that returned an error status or failed a correctness check.
struct Result {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// One-line JSON: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}. Values print
/// with 17 significant digits, so ParseResult(ToJson(r)) restores them
/// exactly.
std::string ToJson(const Result& result);
fae::StatusOr<Result> ParseResult(const std::string& json);

/// Build, compiler and host facts recorded with every result.
struct Provenance {
  std::string build_type;
  std::string compiler;
  std::string flags;
  unsigned nproc = 0;
  std::string commit;
};
Provenance CurrentProvenance(const std::string& commit);
std::string ToJson(const Provenance& p);
/// Error unless this binary is an optimized, uninstrumented Release build.
fae::Status CheckBuild(const Provenance& p);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Median of `v` (mean of the middle two for even sizes); 0 when empty.
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
