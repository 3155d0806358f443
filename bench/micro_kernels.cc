// Old-vs-new microbenchmark suite for the training hot-path kernels.
//
// The "seed" implementations are verbatim copies of the scalar, map-based
// embedding kernels this repo started with (unordered_map SparseGrad,
// un-annotated inner loops, no thread pool) below, and the plain GEMM and
// interaction loops in tests/seed_kernels.h; both compile in this
// translation unit at the same -O level as the library. The "new"
// measurements run the current kernel layer (register-blocked GEMMs,
// src/tensor/kernels.h, flat SparseGrad, ThreadPool::ParallelFor) at 1 and
// 4 threads. Every pairing is also checked for bit-exact agreement — the
// determinism contract says the rewrite changes speed, never results. The
// JSON records the build type, compiler, flags and core count: compare
// numbers only from a Release build.
//
// Usage:
//   micro_kernels [--out=bench/BENCH_kernels.json] [--reps=5] [--smoke]
//   micro_kernels --gbench          # legacy google-benchmark registrations
//
// --smoke shrinks every size so the whole suite runs in well under a
// second; ctest's bench_smoke target uses it (see EXPERIMENTS.md).
//
// Results are written as JSON. The headline number the kernel PR is gated
// on — fused embedding backward+optimizer at dim 64, batch 2048, 4 threads
// vs the seed scalar path — is surfaced as the top-level field
// "criterion_backward_dim64_t4_speedup".

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/rand_em_box.h"
#include "embedding/embedding_bag.h"
#include "embedding/embedding_table.h"
#include "embedding/sparse_sgd.h"
#include "stats/zipf.h"
#include "tensor/mlp.h"
#include "tensor/ops.h"
#include "tests/seed_kernels.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fae {
namespace {

// ---------------------------------------------------------------------------
// Seed implementations (the pre-kernel-layer scalar path), kept here as the
// measurement baseline. Do not "improve" these: their value is being what
// the repo shipped before the rewrite.
// ---------------------------------------------------------------------------

struct LegacySparseGrad {
  size_t dim = 0;
  std::unordered_map<uint64_t, std::vector<float>> rows;
};

Tensor LegacyEmbeddingForward(const EmbeddingTable& table,
                              const std::vector<uint32_t>& indices,
                              const std::vector<uint32_t>& offsets) {
  const size_t b = offsets.size() - 1;
  const size_t dim = table.dim();
  Tensor out(b, dim);
  for (size_t i = 0; i < b; ++i) {
    float* orow = out.row(i);
    for (uint32_t p = offsets[i]; p < offsets[i + 1]; ++p) {
      const float* erow = table.row(indices[p]);
      for (size_t k = 0; k < dim; ++k) orow[k] += erow[k];
    }
  }
  return out;
}

LegacySparseGrad LegacyEmbeddingBackward(const Tensor& grad_out,
                                         const std::vector<uint32_t>& indices,
                                         const std::vector<uint32_t>& offsets,
                                         size_t dim) {
  LegacySparseGrad grad;
  grad.dim = dim;
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    const float* grow = grad_out.row(i);
    for (uint32_t p = offsets[i]; p < offsets[i + 1]; ++p) {
      auto [it, inserted] =
          grad.rows.try_emplace(indices[p], std::vector<float>(dim, 0.0f));
      std::vector<float>& acc = it->second;
      for (size_t k = 0; k < dim; ++k) acc[k] += grow[k];
    }
  }
  return grad;
}

void LegacySparseSgdStep(EmbeddingTable& table, const LegacySparseGrad& grad,
                         float lr) {
  for (const auto& [row_id, g] : grad.rows) {
    float* row = table.row(row_id);
    for (size_t k = 0; k < grad.dim; ++k) row[k] -= lr * g[k];
  }
}

// ---------------------------------------------------------------------------
// Timing harness: calibrate an iteration count against a time target, then
// take the fastest of `reps` averaged runs (min-of-reps rejects scheduler
// noise without the variance of single-shot timing).
// ---------------------------------------------------------------------------

struct TimingConfig {
  int reps = 5;
  double target_seconds = 0.02;  // per calibrated timing run
};

double SecondsPerIter(const std::function<void()>& fn,
                      const TimingConfig& cfg) {
  fn();  // warm caches and the allocator
  size_t iters = 1;
  for (;;) {
    Stopwatch sw;
    for (size_t i = 0; i < iters; ++i) fn();
    const double elapsed = sw.ElapsedSeconds();
    if (elapsed >= cfg.target_seconds || iters >= (1u << 22)) break;
    const double scale = cfg.target_seconds / std::max(elapsed, 1e-9);
    iters = std::max(iters + 1, static_cast<size_t>(iters * scale * 1.2));
  }
  double best = 1e100;
  for (int r = 0; r < cfg.reps; ++r) {
    Stopwatch sw;
    for (size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, sw.ElapsedSeconds() / static_cast<double>(iters));
  }
  return best;
}

struct BenchResult {
  std::string kernel;  // gemm | embedding_forward | embedding_backward_opt
  std::string impl;    // seed | new
  size_t dim = 0;
  size_t batch = 0;
  size_t threads = 1;
  double seconds_per_iter = 0.0;
  double speedup_vs_seed = 1.0;
  bool bitexact_vs_seed = true;
};

bool TensorsEqual(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.numel(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

struct SuiteConfig {
  std::vector<size_t> dims;
  std::vector<size_t> threads;  // first entry must be 1
  size_t batch = 2048;
  size_t lookups_per_sample = 4;
  uint64_t table_rows = 100000;
  TimingConfig timing;
};

/// Synthetic CSR lookup list: `batch` samples, a fixed pooling factor,
/// uniform row ids (plenty of distinct rows, some collisions).
void MakeLookups(const SuiteConfig& cfg, Xoshiro256& rng,
                 std::vector<uint32_t>& indices,
                 std::vector<uint32_t>& offsets) {
  indices.clear();
  offsets.assign(1, 0);
  for (size_t i = 0; i < cfg.batch; ++i) {
    for (size_t j = 0; j < cfg.lookups_per_sample; ++j) {
      indices.push_back(static_cast<uint32_t>(rng.NextBounded(cfg.table_rows)));
    }
    offsets.push_back(static_cast<uint32_t>(indices.size()));
  }
}

/// Appends seed + per-thread-count new measurements for one kernel.
/// `run(pool)` must execute the new kernel (pool == nullptr → serial) and
/// `run_seed()` the legacy one; `check(pool)` returns bit-exactness of the
/// new result against the seed result.
void RunPair(const SuiteConfig& cfg, const std::string& kernel, size_t dim,
             const std::function<void()>& run_seed,
             const std::function<void(ThreadPool*)>& run_new,
             const std::function<bool(ThreadPool*)>& check,
             std::vector<BenchResult>& out) {
  BenchResult seed;
  seed.kernel = kernel;
  seed.impl = "seed";
  seed.dim = dim;
  seed.batch = cfg.batch;
  seed.threads = 1;
  seed.seconds_per_iter = SecondsPerIter(run_seed, cfg.timing);
  out.push_back(seed);
  for (size_t threads : cfg.threads) {
    ThreadPool local(threads > 1 ? threads : 1);
    ThreadPool* pool = threads > 1 ? &local : nullptr;
    BenchResult r;
    r.kernel = kernel;
    r.impl = "new";
    r.dim = dim;
    r.batch = cfg.batch;
    r.threads = threads;
    r.bitexact_vs_seed = check(pool);
    r.seconds_per_iter =
        SecondsPerIter([&] { run_new(pool); }, cfg.timing);
    r.speedup_vs_seed = seed.seconds_per_iter / r.seconds_per_iter;
    out.push_back(r);
  }
}

std::vector<BenchResult> RunSuite(const SuiteConfig& cfg) {
  std::vector<BenchResult> results;
  for (size_t dim : cfg.dims) {
    Xoshiro256 rng(1234 + dim);
    EmbeddingTable table(cfg.table_rows, dim, rng);
    std::vector<uint32_t> indices;
    std::vector<uint32_t> offsets;
    MakeLookups(cfg, rng, indices, offsets);
    Tensor grad_out = Tensor::Randn(cfg.batch, dim, 0.1f, rng);
    const float lr = 0.05f;

    // GEMM shaped like an MLP layer at this batch: [B, dim] x [dim, dim].
    Tensor a = Tensor::Randn(cfg.batch, dim, 1.0f, rng);
    Tensor b = Tensor::Randn(dim, dim, 1.0f, rng);
    Tensor c;
    Tensor want;
    RunPair(
        cfg, "gemm", dim,
        [&] {
          seed::MatMulInto(c, a, b);
          benchmark::DoNotOptimize(c.data());
        },
        [&](ThreadPool* pool) {
          MatMulInto(c, a, b, pool);
          benchmark::DoNotOptimize(c.data());
        },
        [&](ThreadPool* pool) {
          seed::MatMulInto(want, a, b);
          MatMulInto(c, a, b, pool);
          return TensorsEqual(want, c);
        },
        results);

    // Sum-pooled embedding gather.
    RunPair(
        cfg, "embedding_forward", dim,
        [&] {
          Tensor o = LegacyEmbeddingForward(table, indices, offsets);
          benchmark::DoNotOptimize(o.data());
        },
        [&](ThreadPool* pool) {
          Tensor o = EmbeddingBag::Forward(table, indices, offsets, pool);
          benchmark::DoNotOptimize(o.data());
        },
        [&](ThreadPool* pool) {
          return TensorsEqual(
              LegacyEmbeddingForward(table, indices, offsets),
              EmbeddingBag::Forward(table, indices, offsets, pool));
        },
        results);

    // Backward scatter + optimizer. Seed: map-based scatter then the
    // map-walking SGD step. New: the fused flat-gradient pass. Both mutate
    // a private table so the timed loops stay self-contained.
    EmbeddingTable seed_table(cfg.table_rows, dim);
    EmbeddingTable new_table(cfg.table_rows, dim);
    SparseSgd sgd(lr);
    RunPair(
        cfg, "embedding_backward_opt", dim,
        [&] {
          LegacySparseGrad g =
              LegacyEmbeddingBackward(grad_out, indices, offsets, dim);
          LegacySparseSgdStep(seed_table, g, lr);
          benchmark::DoNotOptimize(seed_table.raw().data());
        },
        [&](ThreadPool* pool) {
          sgd.FusedBackwardStep(new_table, grad_out, indices, offsets, pool);
          benchmark::DoNotOptimize(new_table.raw().data());
        },
        [&](ThreadPool* pool) {
          // One step from identical fresh states must land on identical
          // tables.
          Xoshiro256 r1(99), r2(99);
          EmbeddingTable t1(cfg.table_rows, dim, r1);
          EmbeddingTable t2(cfg.table_rows, dim, r2);
          LegacySparseGrad g =
              LegacyEmbeddingBackward(grad_out, indices, offsets, dim);
          LegacySparseSgdStep(t1, g, lr);
          sgd.FusedBackwardStep(t2, grad_out, indices, offsets, pool);
          return t1.raw() == t2.raw();
        },
        results);
  }

  // The dense layers that lead the host profile, at the Kaggle top MLP's
  // first layer (367 -> 64) and its interaction (27 features, dim 16): the
  // forward NN GEMM, the weight-gradient TN GEMM, the input-gradient NT
  // GEMM and the interaction backward.
  Xoshiro256 rng(4321);
  const size_t in = 367;
  const size_t out = 64;
  Tensor x = Tensor::Randn(cfg.batch, in, 1.0f, rng);
  for (size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = std::max(0.0f, x.data()[i]);  // post-ReLU activations
  }
  Tensor w = Tensor::Randn(in, out, 0.1f, rng);
  Tensor g = Tensor::Randn(cfg.batch, out, 0.1f, rng);
  Tensor c;
  Tensor want;
  RunPair(
      cfg, "gemm_nn_top_mlp", in, [&] { seed::MatMulInto(c, x, w); },
      [&](ThreadPool* pool) { MatMulInto(c, x, w, pool); },
      [&](ThreadPool* pool) {
        seed::MatMulInto(want, x, w);
        MatMulInto(c, x, w, pool);
        return TensorsEqual(want, c);
      },
      results);
  RunPair(
      cfg, "gemm_tn_top_mlp", in, [&] { seed::MatMulTransAInto(c, x, g); },
      [&](ThreadPool* pool) { MatMulTransAInto(c, x, g, pool); },
      [&](ThreadPool* pool) {
        seed::MatMulTransAInto(want, x, g);
        MatMulTransAInto(c, x, g, pool);
        return TensorsEqual(want, c);
      },
      results);
  RunPair(
      cfg, "gemm_nt_top_mlp", in, [&] { seed::MatMulTransBInto(c, g, w); },
      [&](ThreadPool* pool) { MatMulTransBInto(c, g, w, pool); },
      [&](ThreadPool* pool) {
        seed::MatMulTransBInto(want, g, w);
        MatMulTransBInto(c, g, w, pool);
        return TensorsEqual(want, c);
      },
      results);

  const size_t features = 27;
  const size_t dim = 16;
  std::vector<Tensor> feats;
  std::vector<const Tensor*> ptrs;
  for (size_t i = 0; i < features; ++i) {
    feats.push_back(Tensor::Randn(cfg.batch, dim, 1.0f, rng));
  }
  for (const Tensor& t : feats) ptrs.push_back(&t);
  Tensor gi = Tensor::Randn(cfg.batch, features * (features - 1) / 2, 0.1f,
                            rng);
  std::vector<Tensor> grads(features);
  std::vector<Tensor> want_grads(features);
  Tensor scratch;
  RunPair(
      cfg, "interaction_backward", dim,
      [&] { seed::PairwiseDotInteractionBackwardInto(grads, gi, ptrs); },
      [&](ThreadPool* pool) {
        PairwiseDotInteractionBackwardInto(grads, gi, ptrs, scratch, pool);
      },
      [&](ThreadPool* pool) {
        seed::PairwiseDotInteractionBackwardInto(want_grads, gi, ptrs);
        PairwiseDotInteractionBackwardInto(grads, gi, ptrs, scratch, pool);
        for (size_t i = 0; i < features; ++i) {
          if (!TensorsEqual(want_grads[i], grads[i])) return false;
        }
        return true;
      },
      results);
  return results;
}

/// Build type, compiler, flags and core count of this binary.
std::string ProvenanceJson() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"flags\": \"%s\", \"nproc\": %u}",
                FAE_BUILD_TYPE, FAE_COMPILER, FAE_BUILD_FLAGS,
                std::thread::hardware_concurrency());
  return buf;
}

void WriteJson(const std::string& path, const SuiteConfig& cfg,
               const std::vector<BenchResult>& results, double criterion) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": \"micro_kernels\",\n");
  std::fprintf(f, "  \"provenance\": %s,\n", ProvenanceJson().c_str());
  std::fprintf(f, "  \"batch\": %zu,\n", cfg.batch);
  std::fprintf(f, "  \"lookups_per_sample\": %zu,\n", cfg.lookups_per_sample);
  std::fprintf(f, "  \"table_rows\": %llu,\n",
               static_cast<unsigned long long>(cfg.table_rows));
  std::fprintf(f, "  \"criterion_backward_dim64_t4_speedup\": %.3f,\n",
               criterion);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"impl\": \"%s\", \"dim\": %zu, "
                 "\"batch\": %zu, \"threads\": %zu, "
                 "\"seconds_per_iter\": %.9f, \"speedup_vs_seed\": %.3f, "
                 "\"bitexact_vs_seed\": %s}%s\n",
                 r.kernel.c_str(), r.impl.c_str(), r.dim, r.batch, r.threads,
                 r.seconds_per_iter, r.speedup_vs_seed,
                 r.bitexact_vs_seed ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Legacy google-benchmark registrations (run with --gbench); these measure
// the *current* kernels only, without the old-vs-new pairing.
// ---------------------------------------------------------------------------

void BM_EmbeddingBagForward(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Xoshiro256 rng(1);
  EmbeddingTable table(100000, 16, rng);
  std::vector<uint32_t> indices(batch);
  std::vector<uint32_t> offsets(batch + 1);
  for (size_t i = 0; i < batch; ++i) {
    indices[i] = static_cast<uint32_t>(rng.NextBounded(table.rows()));
    offsets[i + 1] = static_cast<uint32_t>(i + 1);
  }
  for (auto _ : state) {
    Tensor out = EmbeddingBag::Forward(table, indices, offsets);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EmbeddingBagForward)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SparseSgdStep(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Xoshiro256 rng(2);
  EmbeddingTable table(100000, 16, rng);
  std::vector<uint64_t> ids(rows);
  for (auto& id : ids) id = rng.NextBounded(table.rows());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  SparseGrad grad;
  grad.dim = 16;
  grad.row_ids = std::move(ids);
  grad.values.assign(grad.row_ids.size() * 16, 0.1f);
  SparseSgd sgd(0.05f);
  for (auto _ : state) {
    sgd.Step(table, grad);
    benchmark::DoNotOptimize(table.raw().data());
  }
  state.SetItemsProcessed(state.iterations() * grad.num_rows());
}
BENCHMARK(BM_SparseSgdStep)->Arg(256)->Arg(4096);

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Xoshiro256 rng(11);
  Tensor a = Tensor::Randn(n, n, 1.0f, rng);
  Tensor b = Tensor::Randn(n, n, 1.0f, rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(128)->Arg(512);

void BM_MlpForward(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Xoshiro256 rng(3);
  Mlp mlp({13, 512, 256, 64, 16}, rng);
  Tensor x = Tensor::Randn(batch, 13, 1.0f, rng);
  for (auto _ : state) {
    Tensor y = mlp.ForwardInference(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpForward)->Arg(64)->Arg(256);

void BM_PairwiseInteraction(benchmark::State& state) {
  const size_t features = static_cast<size_t>(state.range(0));
  Xoshiro256 rng(4);
  std::vector<Tensor> feats;
  std::vector<const Tensor*> ptrs;
  for (size_t i = 0; i < features; ++i) {
    feats.push_back(Tensor::Randn(256, 16, 1.0f, rng));
  }
  for (auto& f : feats) ptrs.push_back(&f);
  for (auto _ : state) {
    Tensor out = PairwiseDotInteraction(ptrs);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PairwiseInteraction)->Arg(8)->Arg(27);

void BM_ZipfSample(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  Xoshiro256 rng(5);
  ZipfSampler zipf(n, 1.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(100000)->Arg(73100000);

void BM_RandEmBoxEstimate(benchmark::State& state) {
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  Xoshiro256 rng(6);
  std::vector<uint64_t> counts(rows);
  for (auto& c : counts) c = rng.NextBounded(100);
  RandEmBox box(35, 1024, 0.999, 7);
  for (auto _ : state) {
    auto est = box.EstimateTable(counts, 50);
    benchmark::DoNotOptimize(est.mean_hot_entries);
  }
}
BENCHMARK(BM_RandEmBoxEstimate)->Arg(1000000)->Arg(10000000);

void BM_RandEmBoxExactScan(benchmark::State& state) {
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  Xoshiro256 rng(8);
  std::vector<uint64_t> counts(rows);
  for (auto& c : counts) c = rng.NextBounded(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandEmBox::ExactCount(counts, 50));
  }
}
BENCHMARK(BM_RandEmBoxExactScan)->Arg(1000000)->Arg(10000000);

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  if (args.GetBool("gbench", false)) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }

  // Google Benchmark reads its own flags, so the check follows --gbench.
  args.AcceptsOnly("micro_kernels", {"out", "reps", "smoke"});
  fae::SuiteConfig cfg;
  const bool smoke = args.GetBool("smoke", false);
  if (smoke) {
    cfg.dims = {16};
    cfg.threads = {1, 2};
    cfg.batch = 256;
    cfg.table_rows = 2000;
    cfg.timing.reps = 1;
    cfg.timing.target_seconds = 0.001;
  } else {
    cfg.dims = {16, 64, 128};
    cfg.threads = {1, 4};
    cfg.batch = 2048;
    cfg.table_rows = 100000;
    cfg.timing.reps = static_cast<int>(args.GetPositiveInt("reps", 5));
    cfg.timing.target_seconds = 0.02;
  }

  fae::bench::PrintHeader(
      "micro_kernels: seed scalar path vs vectorized/threaded kernels");
  std::printf("provenance: %s\n", fae::ProvenanceJson().c_str());
  const std::vector<fae::BenchResult> results = fae::RunSuite(cfg);

  bool all_bitexact = true;
  double criterion = 0.0;
  std::printf("%-24s %-5s %5s %8s %12s %9s %9s\n", "kernel", "impl", "dim",
              "threads", "sec/iter", "speedup", "bitexact");
  for (const fae::BenchResult& r : results) {
    std::printf("%-24s %-5s %5zu %8zu %12.3e %8.2fx %9s\n", r.kernel.c_str(),
                r.impl.c_str(), r.dim, r.threads, r.seconds_per_iter,
                r.speedup_vs_seed, r.bitexact_vs_seed ? "yes" : "NO");
    all_bitexact = all_bitexact && r.bitexact_vs_seed;
    if (r.kernel == "embedding_backward_opt" && r.impl == "new" &&
        r.dim == 64 && r.threads == 4) {
      criterion = r.speedup_vs_seed;
    }
  }
  if (criterion > 0.0) {
    std::printf(
        "\nheadline: fused embedding backward+optimizer dim=64 batch=%zu "
        "threads=4 -> %.2fx vs seed\n",
        cfg.batch, criterion);
  }

  const std::string out = args.GetString("out", "bench/BENCH_kernels.json");
  fae::WriteJson(out, cfg, results, criterion);
  std::printf("wrote %s\n", out.c_str());

  if (!all_bitexact) {
    std::fprintf(stderr,
                 "FAIL: a new kernel disagrees with the seed result\n");
    return 1;
  }
  return 0;
}
