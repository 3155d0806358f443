// Reproduces Fig 4: the probability that a mini-batch drawn at random is
// entirely hot, as a function of the mini-batch size and the hot-input
// fraction — the motivation for packing *pure* hot/cold batches.
//
// Paper shape: even at 99% hot inputs, P(all-hot batch) collapses as the
// batch grows (0.99^1024 ~ 3e-5). Both the closed form p^B and a Monte
// Carlo estimate over a synthetic hot/cold labeling are printed.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "util/random.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  args.AcceptsOnly("fig04_minibatch_probability", {"seed", "trials"});
  const int trials = static_cast<int>(args.GetPositiveInt("trials", 20000));
  Xoshiro256 rng(args.GetNonNegativeInt("seed", 9));

  bench::PrintHeader(
      "Fig 4: probability of an all-hot mini-batch vs mini-batch size");
  std::printf("%-12s", "batch");
  const double fractions[] = {0.90, 0.95, 0.99, 0.999};
  for (double p : fractions) std::printf("  p=%.3f (exact / MC)", p);
  std::printf("\n");

  for (size_t batch : {16u, 64u, 256u, 1024u, 4096u}) {
    std::printf("%-12zu", batch);
    for (double p : fractions) {
      const double exact = std::pow(p, static_cast<double>(batch));
      int all_hot = 0;
      for (int t = 0; t < trials; ++t) {
        bool ok = true;
        for (size_t i = 0; i < batch; ++i) {
          if (!rng.NextBernoulli(p)) {
            ok = false;
            break;
          }
        }
        if (ok) ++all_hot;
      }
      std::printf("  %9.2e / %7.2e", exact,
                  static_cast<double>(all_hot) / trials);
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper reference: the probability drops drastically with batch\n"
      "size, so FAE pre-packs batches that are entirely hot or cold.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
