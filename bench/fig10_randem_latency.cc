// Reproduces Fig 10: latency per threshold-iteration when estimating hot
// sizes with the Rand-Em Box vs scanning every embedding entry.
//
// Paper shape: 14.5x-61x lower latency per iteration; the scan ratio is
// bounded by (entries scanned)/(n*m).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/embedding_logger.h"
#include "core/rand_em_box.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("fig10_randem_latency", {"inputs", "reps", "scale"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "medium"));
  const size_t inputs = args.GetNonNegativeInt("inputs", 20000);
  const int reps = static_cast<int>(args.GetPositiveInt("reps", 5));

  bench::PrintHeader(
      "Fig 10: per-iteration latency, full scan vs Rand-Em Box");
  std::printf("%-22s %12s %12s %10s %12s\n", "workload", "full-scan",
              "rand-em", "speedup", "scan-ratio");

  const RandEmBox box(35, 1024, 0.999, 10);
  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    std::vector<uint64_t> all_ids(dataset.size());
    for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
    AccessProfile profile =
        EmbeddingLogger::Profile(dataset, all_ids).profile;
    const uint64_t h_zt = 4;

    uint64_t total_entries = 0;
    uint64_t scanned_entries = 0;
    double full_s = 0.0;
    double box_s = 0.0;
    for (int r = 0; r < reps; ++r) {
      Stopwatch full_watch;
      uint64_t sink = 0;
      for (size_t z = 0; z < dataset.schema().num_tables(); ++z) {
        if (dataset.schema().TableBytes(z) <
            bench::LargeTableCutoff(scale)) {
          continue;
        }
        sink += RandEmBox::ExactCount(profile.counts(z), h_zt);
      }
      full_s += full_watch.ElapsedSeconds();
      Stopwatch box_watch;
      for (size_t z = 0; z < dataset.schema().num_tables(); ++z) {
        if (dataset.schema().TableBytes(z) <
            bench::LargeTableCutoff(scale)) {
          continue;
        }
        RandEmBox::Estimate est = box.EstimateTable(profile.counts(z), h_zt);
        if (r == 0) {
          scanned_entries += est.scanned_entries;
          total_entries += profile.counts(z).size();
        }
        sink += static_cast<uint64_t>(est.mean_hot_entries);
      }
      box_s += box_watch.ElapsedSeconds();
      if (sink == 0xdeadbeef) std::printf("!");  // keep `sink` live
    }
    full_s /= reps;
    box_s /= reps;
    std::printf("%-22s %12s %12s %9.1fx %11.1fx\n",
                std::string(WorkloadName(kind)).c_str(),
                HumanSeconds(full_s).c_str(), HumanSeconds(box_s).c_str(),
                box_s > 0 ? full_s / box_s : 0.0,
                scanned_entries > 0
                    ? static_cast<double>(total_entries) /
                          static_cast<double>(scanned_entries)
                    : 0.0);
  }
  std::printf(
      "\nPaper reference: 14.5x-61x lower latency per threshold iteration;\n"
      "the total per-iteration latency stays in seconds, not minutes.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
