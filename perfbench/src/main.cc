// perfbench — the benchmark's measuring program.
//
//   perfbench generate --workload=W --seed=N --out=inputs.faed
//   perfbench run      --workload=W --data=inputs.faed --scratch=DIR
//                      --seconds=S --trace=0|1 [--trace-out=trace.json]
//                      [--commit=C]
//   perfbench metrics
//
// `generate` writes a workload's inputs for a seed; `run` loads them and
// measures (see workloads.h); `metrics` prints the metric names, units and
// the layer -> end-to-end map as JSON. perfbench/run.py drives all three.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench generate|run|metrics [--flags]; see the "
               "header of perfbench/src/main.cc\n");
  return 2;
}

/// --key=value flags; anything else is an error.
bool ParseFlags(int argc, char** argv, std::map<std::string, std::string>* out) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", arg.c_str());
      return false;
    }
    (*out)[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return true;
}

bool ParseNumber(const std::string& raw, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(raw.c_str(), &end);
  return !raw.empty() && errno == 0 && end == raw.c_str() + raw.size();
}

std::string JsonList(const std::vector<MetricDef>& defs) {
  std::string out = "[";
  for (size_t i = 0; i < defs.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::string("{\"name\": \"") + defs[i].name +
           "\", \"unit\": \"" + defs[i].unit + "\"}";
  }
  return out + "]";
}

int Metrics() {
  std::string map = "[";
  for (size_t i = 0; i < LayerMap().size(); ++i) {
    const LayerLink& l = LayerMap()[i];
    map += (i > 0 ? ", " : "") + std::string("{\"from\": \"") + l.from +
           "\", \"to\": \"" + l.to + "\", \"workloads\": \"" + l.workloads +
           "\"}";
  }
  map += "]";
  std::string workloads = "[";
  for (size_t i = 0; i < Workloads().size(); ++i) {
    workloads += (i > 0 ? ", \"" : "\"") + Workloads()[i].name + "\"";
  }
  workloads += "]";
  std::printf(
      "{\"end_to_end\": %s, \"per_layer\": %s, \"layer_map\": %s, "
      "\"workloads\": %s}\n",
      JsonList(EndToEndMetrics()).c_str(), JsonList(PerLayerMetrics()).c_str(),
      map.c_str(), workloads.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "metrics") return Metrics();
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();
  const auto flag = [&](const char* key) {
    auto it = flags.find(key);
    return it == flags.end() ? std::string() : it->second;
  };
  const WorkloadSpec* spec = FindWorkload(flag("workload"));
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 flag("workload").c_str());
    return 2;
  }

  if (command == "generate") {
    double seed = 0.0;
    if (!ParseNumber(flag("seed"), &seed) || seed < 0 ||
        seed != static_cast<double>(static_cast<uint64_t>(seed)) ||
        flag("out").empty()) {
      std::fprintf(stderr, "perfbench: generate needs --seed=N --out=PATH\n");
      return 2;
    }
    const fae::Status status =
        GenerateInputs(*spec, static_cast<uint64_t>(seed), flag("out"));
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command != "run") return Usage();

  const Provenance provenance = CurrentProvenance(flag("commit"));
  const fae::Status build = CheckBuild(provenance);
  if (!build.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", build.ToString().c_str());
    return 1;
  }
  RunOptions options;
  options.data_path = flag("data");
  options.scratch_dir = flag("scratch");
  options.trace_out = flag("trace-out");
  const std::string trace = flag("trace");
  if (!ParseNumber(flag("seconds"), &options.seconds) ||
      options.seconds <= 0 || (trace != "0" && trace != "1") ||
      options.data_path.empty() || options.scratch_dir.empty()) {
    std::fprintf(stderr,
                 "perfbench: run needs --data, --scratch, --seconds > 0 and "
                 "--trace=0|1\n");
    return 2;
  }
  options.trace = trace == "1";
  std::printf("provenance: %s\n", ToJson(provenance).c_str());
  std::fflush(stdout);
  const Result result = RunWorkload(*spec, options);
  for (const Metric& m : result.metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", ToJson(result).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
