// Reproduces Fig 6: (a) hot-embedding size and (b) percentage of hot
// sparse inputs as the access threshold varies.
//
// Paper shape: as the threshold decreases, the hot-table size grows much
// faster than the hot-input percentage (diminishing returns).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/embedding_classifier.h"
#include "core/embedding_logger.h"
#include "core/input_processor.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("fig06_threshold_sweep", {"inputs", "scale", "workload"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "small"));
  const size_t inputs = args.GetNonNegativeInt("inputs", 0);
  const std::string workload = args.GetString("workload", "kaggle");
  const WorkloadKind kind = workload == "taobao"
                                ? WorkloadKind::kTaobaoTbsm
                                : (workload == "terabyte"
                                       ? WorkloadKind::kTerabyteDlrm
                                       : WorkloadKind::kKaggleDlrm);

  Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
  std::vector<uint64_t> all_ids(dataset.size());
  for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
  EmbeddingLogger::Result logged = EmbeddingLogger::Profile(dataset, all_ids);
  InputProcessor processor(2);

  bench::PrintHeader("Fig 6: hot size and hot-input share vs threshold");
  std::printf("workload: %s, %zu inputs\n\n",
              std::string(WorkloadName(kind)).c_str(), dataset.size());
  std::printf("%-12s %10s %14s %12s %12s\n", "threshold", "h_zt",
              "hot-size", "hot-inputs%", "hot-access%");

  for (double t : {3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5}) {
    const uint64_t h_zt = std::max<uint64_t>(
        1,
        static_cast<uint64_t>(t * static_cast<double>(dataset.size())));
    HotSet hot = EmbeddingClassifier::Classify(
        logged.profile, dataset.schema(), h_zt,
        bench::LargeTableCutoff(scale));
    ProcessedInputs split = processor.Classify(dataset, hot, all_ids);
    std::printf("%-12.0e %10llu %14s %11.1f%% %11.1f%%\n", t,
                static_cast<unsigned long long>(h_zt),
                HumanBytes(hot.HotBytes(dataset.schema().embedding_dim))
                    .c_str(),
                100.0 * split.HotFraction(),
                100.0 * hot.HotAccessShare(logged.profile));
  }
  std::printf(
      "\nPaper reference: the hot-embedding size grows more steeply than\n"
      "the hot-input share as the threshold drops (Fig 6a vs 6b).\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
