// Reproduces Fig 7: the access profile of a large embedding table from the
// full input set vs a 5% random sample.
//
// Paper shape: the sampled profile has the same signature as the full one
// (FAE relies on this to calibrate from a 5% sample).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/embedding_logger.h"
#include "stats/histogram.h"
#include "stats/sampling.h"
#include "util/random.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("fig07_sampling_profile", {"inputs", "rate", "scale"});
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "small"));
  const size_t inputs = args.GetNonNegativeInt("inputs", 0);
  const double rate = args.GetDouble("rate", 0.05);

  bench::PrintHeader("Fig 7: access profile, full dataset vs sampled");
  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    std::vector<uint64_t> all_ids(dataset.size());
    for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
    Xoshiro256 rng(7);
    std::vector<uint64_t> sampled_ids =
        BernoulliSampleIndices(dataset.size(), rate, rng);

    AccessProfile full = EmbeddingLogger::Profile(dataset, all_ids).profile;
    AccessProfile sampled =
        EmbeddingLogger::Profile(dataset, sampled_ids).profile;

    // Largest table's profile, as in the paper's figure. Sampled counts
    // are rescaled by 1/rate so the two histograms are comparable.
    Histogram hf = full.CountHistogram(0);
    Histogram hs;
    for (uint64_t c : sampled.counts(0)) {
      hs.Add(static_cast<uint64_t>(static_cast<double>(c) / rate + 0.5));
    }
    const double distance = Histogram::ShapeDistance(hf, hs);

    std::printf("\n%s: %zu inputs, %zu sampled (%.1f%%)\n",
                std::string(WorkloadName(kind)).c_str(), dataset.size(),
                sampled_ids.size(), 100.0 * rate);
    std::printf("  top-share comparison (largest table):\n");
    for (double frac : {0.01, 0.05, 0.10, 0.25}) {
      std::printf("    top %5.1f%%: full %6.2f%%  sampled %6.2f%%\n",
                  100 * frac, 100 * full.TopShare(0, frac),
                  100 * sampled.TopShare(0, frac));
    }
    std::printf("  histogram shape distance (0=identical, 2=disjoint): %.3f\n",
                distance);
  }
  std::printf(
      "\nPaper reference: randomly sampling even 5%% of the dataset gives a\n"
      "similar access signature as the entire dataset.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
