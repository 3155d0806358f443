// Reproduces Fig 2: total embedding-table size vs the size of the hot
// portion, plus the share of accesses the hot entries capture, for the
// three Table I workloads.
//
// Paper shape to reproduce: tables are orders of magnitude larger than the
// hot slice (61 GB vs ~78 MB for Terabyte at paper scale); hot entries
// capture 75-92% of accesses.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/embedding_classifier.h"
#include "core/embedding_logger.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("fig02_hot_sizes", {"inputs", "scale", "threshold"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "small"));
  const size_t inputs = args.GetNonNegativeInt("inputs", 0);
  const double threshold = args.GetDouble("threshold", 1e-4);

  bench::PrintHeader(
      "Fig 2: embedding table sizes vs hot portions (per workload)");
  std::printf("%-22s %12s %12s %10s %12s %8s\n", "workload", "total",
              "hot", "hot-rows%", "hot-access%", "gini");

  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    std::vector<uint64_t> all_ids(dataset.size());
    for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
    EmbeddingLogger::Result logged =
        EmbeddingLogger::Profile(dataset, all_ids);
    const uint64_t h_zt = std::max<uint64_t>(
        1, static_cast<uint64_t>(threshold *
                                 static_cast<double>(dataset.size())));
    HotSet hot = EmbeddingClassifier::Classify(
        logged.profile, dataset.schema(), h_zt,
        bench::LargeTableCutoff(scale));

    uint64_t total_rows = 0;
    uint64_t hot_rows = 0;
    for (size_t t = 0; t < dataset.schema().num_tables(); ++t) {
      total_rows += dataset.schema().table_rows[t];
      hot_rows += hot.HotCount(t);
    }
    std::printf("%-22s %12s %12s %9.2f%% %11.1f%% %8.3f\n",
                std::string(WorkloadName(kind)).c_str(),
                HumanBytes(dataset.schema().TotalEmbeddingBytes()).c_str(),
                HumanBytes(hot.HotBytes(dataset.schema().embedding_dim))
                    .c_str(),
                100.0 * static_cast<double>(hot_rows) /
                    static_cast<double>(total_rows),
                100.0 * hot.HotAccessShare(logged.profile),
                logged.profile.Gini(0));
  }
  std::printf(
      "\nPaper reference: hot portions are under 256 MB while tables reach\n"
      "tens of GBs; hot entries capture 75-92%% of all accesses.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
