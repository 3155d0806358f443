// perfbench_selftest — checks the benchmark's own code.
//
//   perfbench_selftest --scratch=DIR
//
// Exits non-zero when any check fails. DIR receives two small
// generated input files and is left for the caller to remove.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void GeneratorIsDeterministic(const std::string& dir) {
  for (WorkloadSpec spec : Workloads()) {
    spec.inputs = 500;
    const std::string a = dir + "/a.faed";
    const std::string b = dir + "/b.faed";
    Expect(GenerateInputs(spec, 11, a).ok() && GenerateInputs(spec, 11, b).ok(),
           "generator writes its inputs");
    const std::string bytes = ReadAll(a);
    Expect(!bytes.empty() && bytes == ReadAll(b),
           "same seed gives byte-identical inputs");
    Expect(GenerateInputs(spec, 12, b).ok() && bytes != ReadAll(b),
           "another seed gives other inputs");
  }
}

void SelfTimeArithmetic() {
  // parent [0, 10] with children [1, 3], [2, 5] (overlapping: union
  // [1, 5]), [6, 7], and [9, 12] clipped to [9, 10]; a grandchild inside
  // [6, 7] must not count against the parent.
  std::vector<Span> spans = {
      {"parent", -1, 0.0, 10.0}, {"a", 0, 1.0, 3.0}, {"b", 0, 2.0, 5.0},
      {"c", 0, 6.0, 7.0},        {"g", 3, 6.2, 6.8}, {"d", 0, 9.0, 12.0},
  };
  const std::vector<double> self = SelfSeconds(spans);
  Expect(self[0] == 10.0 - 4.0 - 1.0 - 1.0, "parent self time");
  Expect(self[3] == 1.0 - (6.8 - 6.2), "child self time excludes grandchild");
  Expect(self[1] == 2.0 && self[4] == 6.8 - 6.2, "leaf self time");
  Expect(TopLevelCoverage(spans, 20.0) == 0.5, "top-level coverage");
  Expect(SpanSeconds(spans, "c").size() == 1, "spans by name");

  Tracer tracer(true);
  const int outer = tracer.Begin("outer");
  const int inner = tracer.Begin("inner");
  tracer.End(inner);
  tracer.End(outer);
  Expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == outer &&
             tracer.spans()[0].parent == -1,
         "tracer nests spans");
  Tracer off(false);
  { Tracer::Scope s(off, "ignored"); }
  Expect(off.spans().empty(), "a disabled tracer records nothing");
}

void MedianOfPasses() {
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5 &&
             Median({}) == 0,
         "median");
}

void SchemaRoundTrips() {
  Result r;
  r.correct = true;
  r.attempted = 1234;
  r.failed = 0;
  r.metrics = {{"setup_s", 0.81234567890123456, "s"},
               {"host_samples_per_s", 24017.25, "1/s"},
               {"loss", 1e-300, "nats"},
               {"sim.phase.input_prep_s", 0.0, "s"}};
  const std::string json = ToJson(r);
  const auto back = ParseResult(json);
  Expect(back.ok(), "result parses");
  if (back.ok()) {
    Expect(back->correct == r.correct && back->attempted == r.attempted &&
               back->failed == r.failed &&
               back->metrics.size() == r.metrics.size(),
           "result fields round-trip");
    for (size_t i = 0; i < r.metrics.size() && i < back->metrics.size();
         ++i) {
      Expect(back->metrics[i].name == r.metrics[i].name &&
                 back->metrics[i].unit == r.metrics[i].unit &&
                 std::memcmp(&back->metrics[i].value, &r.metrics[i].value,
                             sizeof(double)) == 0,
             "metric round-trips bit-exactly");
    }
    Expect(ToJson(*back) == json, "serialization is stable");
  }
  for (const char* bad :
       {"", "{}", "{\"correct\": true}",
        "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
        "{\"correct\": true, \"attempted\": -1, \"failed\": 0, "
        "\"metrics\": {}}",
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
        "{\"x\": {\"value\": 1}}}",
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
        "{}, \"extra\": 1}",
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
        "{}} trailing"}) {
    Expect(!ParseResult(bad).ok(), "malformed result is rejected");
  }
}

void LayerMapNamesEmittedMetrics() {
  std::set<std::string> emitted;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& m : *list) {
      Expect(emitted.insert(m.name).second, "metric names are unique");
    }
  }
  std::set<std::string> workloads = {"all"};
  for (const WorkloadSpec& w : Workloads()) workloads.insert(w.name);
  std::set<std::string> covered;
  for (const LayerLink& l : LayerMap()) {
    Expect(emitted.count(l.from) == 1, "map source is an emitted metric");
    Expect(emitted.count(l.to) == 1, "map target is an emitted metric");
    std::stringstream list(l.workloads);
    std::string w;
    while (std::getline(list, w, ',')) {
      Expect(workloads.count(w) == 1, "map names a real workload");
    }
    covered.insert(l.from);
  }
  for (const MetricDef& m : PerLayerMetrics()) {
    // trace.* describe the tracer; util.thread_speedup measures scaling
    // that no timed pass uses (every workload times one kernel thread).
    if (m.name.rfind("trace.", 0) == 0 || m.name == "util.thread_speedup") {
      continue;
    }
    Expect(covered.count(m.name) == 1, "every layer metric is mapped");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string prefix = "--scratch=";
  if (argc != 2 || std::strncmp(argv[1], prefix.c_str(), prefix.size()) != 0) {
    std::fprintf(stderr, "usage: perfbench_selftest --scratch=DIR\n");
    return 2;
  }
  perfbench::GeneratorIsDeterministic(argv[1] + prefix.size());
  perfbench::SelfTimeArithmetic();
  perfbench::MedianOfPasses();
  perfbench::SchemaRoundTrips();
  perfbench::LayerMapNamesEmittedMetrics();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-test: ok\n");
  return 0;
}
