// Reproduces Fig 9: estimated hot-embedding sizes from the Rand-Em Box's
// random chunk sampling vs the measured (full-scan) sizes.
//
// Paper shape: with a 99.9% confidence interval the estimate is within
// ~10% (upper bound) of the measured size.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/embedding_logger.h"
#include "core/rand_em_box.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("fig09_randem_accuracy", {"inputs", "scale"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "small"));
  const size_t inputs = args.GetNonNegativeInt("inputs", 0);

  bench::PrintHeader("Fig 9: Rand-Em Box size estimates vs measured");
  std::printf("%-22s %-10s %12s %12s %12s %8s\n", "workload", "threshold",
              "measured", "estimate", "upper-CI", "err%");

  const RandEmBox box(35, 1024, 0.999, 99);
  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    std::vector<uint64_t> all_ids(dataset.size());
    for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
    AccessProfile profile =
        EmbeddingLogger::Profile(dataset, all_ids).profile;
    const size_t dim_bytes = dataset.schema().embedding_dim * sizeof(float);

    for (double t : {1e-3, 1e-4}) {
      const uint64_t h_zt = std::max<uint64_t>(
          1,
          static_cast<uint64_t>(t * static_cast<double>(dataset.size())));
      double measured = 0.0;
      double estimated = 0.0;
      double upper = 0.0;
      for (size_t z = 0; z < dataset.schema().num_tables(); ++z) {
        if (dataset.schema().TableBytes(z) <
            bench::LargeTableCutoff(scale)) {
          continue;
        }
        measured += static_cast<double>(
                        RandEmBox::ExactCount(profile.counts(z), h_zt)) *
                    dim_bytes;
        RandEmBox::Estimate est = box.EstimateTable(profile.counts(z), h_zt);
        estimated += est.mean_hot_entries * dim_bytes;
        upper += est.upper_hot_entries * dim_bytes;
      }
      const double err =
          measured > 0 ? 100.0 * (upper - measured) / measured : 0.0;
      std::printf("%-22s %-10.0e %12s %12s %12s %7.1f%%\n",
                  std::string(WorkloadName(kind)).c_str(), t,
                  HumanBytes(static_cast<uint64_t>(measured)).c_str(),
                  HumanBytes(static_cast<uint64_t>(estimated)).c_str(),
                  HumanBytes(static_cast<uint64_t>(upper)).c_str(), err);
    }
  }
  std::printf(
      "\nPaper reference: estimates are within 10%% (upper bound) of the\n"
      "measured hot sizes at 99.9%% confidence.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
