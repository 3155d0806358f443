#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels.h"
#include "util/logging.h"

namespace fae {
namespace {

/// Work below this many multiply-adds is not worth a trip through the
/// pool's queue (lock + wakeup costs more than the loop).
constexpr size_t kMinFlopsToParallelize = 1u << 16;

/// Runs `fn` over [0, n) — through the pool when the total work justifies
/// the dispatch, inline otherwise. All kernels below partition work by
/// *output row*, so chunks never write the same memory and results are
/// bit-identical at any thread count. Templated so the serial path never
/// materializes a std::function (which would heap-allocate per call).
template <typename Fn>
void RowParallel(ThreadPool* pool, size_t n, size_t flops, Fn&& fn) {
  if (pool != nullptr && flops >= kMinFlopsToParallelize) {
    pool->ParallelFor(n, fn);
  } else {
    fn(0, n);
  }
}

// -- Register-blocked GEMM micro-kernels ------------------------------------
//
// Bit-identity with the reference loops (DESIGN.md §9). Every output element
// keeps the association the reference kernels gave it:
//   * NN/TN: one accumulator per element, starting at +0, summing a*b in
//     ascending k. A K panel's partial sums are stored to C and reloaded,
//     which rounds nothing (they are floats already).
//   * NT: kernels::Dot's association: lane l sums k = l (mod 4) ascending,
//     then ((s0 + s1) + (s2 + s3)) + tail.
// The reference loops skipped terms with a == 0; these kernels multiply
// through. For finite B that changes no bit: a product with a zero factor is
// +-0, and an accumulator that starts at +0 can never become -0 under
// round-to-nearest (x + y rounds to -0 only when both are -0), so
// acc + (+-0) == acc. A non-finite B entry facing a zero A entry would give
// NaN here where the skip gave a finite sum.
//
// GCC/Clang vector extensions keep the lane math explicit: elementwise
// multiply then add, one rounding each (FAE_NATIVE_ARCH builds also pass
// -ffp-contract=off so no FMA contraction sneaks in).

using V4 = float __attribute__((vector_size(16)));

inline V4 Load4(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store4(float* p, V4 v) { std::memcpy(p, &v, sizeof(v)); }

constexpr size_t kMr = 4;    // NN/TN tile rows
constexpr size_t kKc = 256;  // NN/TN K panel
constexpr size_t kDotMr = 3;  // NT tile rows (by 4 columns)

/// Columns [j, j + 4*NV) of C[kMr x .] (+)= A'[kMr x kc] * B[kc x 4*NV].
/// Row r of A' is ap[r] with column stride `cs`, row r of C is cp[r]; rows
/// at or past `mr` are clamped duplicates whose sums are computed and
/// dropped. `first` starts the sums from +0 instead of C.
template <size_t NV>
inline void GemmTile(size_t kc, const float* const (&ap)[kMr], size_t cs,
                     const float* b, size_t ldb, float* const (&cp)[kMr],
                     size_t j, size_t mr, bool first) {
  V4 acc[kMr][NV];
  for (size_t r = 0; r < kMr; ++r) {
    for (size_t v = 0; v < NV; ++v) {
      acc[r][v] = first ? V4{} : Load4(cp[r] + j + 4 * v);
    }
  }
  for (size_t kk = 0; kk < kc; ++kk) {
    V4 bv[NV];
    for (size_t v = 0; v < NV; ++v) bv[v] = Load4(b + kk * ldb + 4 * v);
    for (size_t r = 0; r < kMr; ++r) {
      const float s = ap[r][kk * cs];
      const V4 av = {s, s, s, s};
      for (size_t v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (size_t r = 0; r < mr; ++r) {
    for (size_t v = 0; v < NV; ++v) Store4(cp[r] + j + 4 * v, acc[r][v]);
  }
}

/// Single-column edge of GemmTile (the last n mod 4 columns).
inline void GemmColumn(size_t kc, const float* const (&ap)[kMr], size_t cs,
                       const float* b, size_t ldb, float* const (&cp)[kMr],
                       size_t j, size_t mr, bool first) {
  float acc[kMr];
  for (size_t r = 0; r < kMr; ++r) acc[r] = first ? 0.0f : cp[r][j];
  for (size_t kk = 0; kk < kc; ++kk) {
    const float bk = b[kk * ldb];
    for (size_t r = 0; r < kMr; ++r) acc[r] += ap[r][kk * cs] * bk;
  }
  for (size_t r = 0; r < mr; ++r) cp[r][j] = acc[r];
}

/// Rows [i0, i1) of C[m x n] = A'[m x k] * B[k x n], A'(i, kk) =
/// a[i*rs + kk*cs] — NN passes (lda, 1), TN passes (1, lda). The shared core
/// of MatMulInto, MatMulTransAInto and the interaction backward.
void GemmRows(size_t i0, size_t i1, size_t n, size_t k, const float* a,
              size_t rs, size_t cs, const float* b, size_t ldb, float* c,
              size_t ldc) {
  if (k == 0) {
    for (size_t i = i0; i < i1; ++i) std::fill_n(c + i * ldc, n, 0.0f);
    return;
  }
  for (size_t k0 = 0; k0 < k; k0 += kKc) {
    const size_t kc = std::min(kKc, k - k0);
    const bool first = k0 == 0;
    const float* bk = b + k0 * ldb;
    for (size_t i = i0; i < i1; i += kMr) {
      const size_t mr = std::min(kMr, i1 - i);
      const float* ap[kMr];
      float* cp[kMr];
      for (size_t r = 0; r < kMr; ++r) {
        const size_t row = i + std::min(r, mr - 1);
        ap[r] = a + row * rs + k0 * cs;
        cp[r] = c + row * ldc;
      }
      size_t j = 0;
      for (; j + 8 <= n; j += 8) {
        GemmTile<2>(kc, ap, cs, bk + j, ldb, cp, j, mr, first);
      }
      if (j + 4 <= n) {
        GemmTile<1>(kc, ap, cs, bk + j, ldb, cp, j, mr, first);
        j += 4;
      }
      for (; j < n; ++j) GemmColumn(kc, ap, cs, bk + j, ldb, cp, j, mr, first);
    }
  }
}

/// (lane0 + lane1) + (lane2 + lane3) of four accumulators at once: a 4x4
/// transpose puts lane l of every accumulator into one vector, so column q
/// of the result is ((s0 + s1) + (s2 + s3)) of acc[q], Dot's association.
inline V4 LaneSums(const V4 (&acc)[4]) {
  const V4 t0 = __builtin_shufflevector(acc[0], acc[1], 0, 4, 1, 5);
  const V4 t1 = __builtin_shufflevector(acc[0], acc[1], 2, 6, 3, 7);
  const V4 t2 = __builtin_shufflevector(acc[2], acc[3], 0, 4, 1, 5);
  const V4 t3 = __builtin_shufflevector(acc[2], acc[3], 2, 6, 3, 7);
  const V4 l0 = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
  const V4 l1 = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
  const V4 l2 = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
  const V4 l3 = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
  return (l0 + l1) + (l2 + l3);
}

/// out[r] = {kernels::Dot(k, a[r], b[q]) for q < 4}, for kDotMr rows.
inline void DotTile(size_t k, const float* const (&a)[kDotMr],
                    const float* const (&b)[4], V4 (&out)[kDotMr]) {
  V4 acc[kDotMr][4] = {};
  size_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    V4 bv[4];
    for (size_t q = 0; q < 4; ++q) bv[q] = Load4(b[q] + kk);
    for (size_t r = 0; r < kDotMr; ++r) {
      const V4 av = Load4(a[r] + kk);
      for (size_t q = 0; q < 4; ++q) acc[r][q] += av * bv[q];
    }
  }
  V4 tail[kDotMr] = {};
  for (; kk < k; ++kk) {
    const V4 bv = {b[0][kk], b[1][kk], b[2][kk], b[3][kk]};
    for (size_t r = 0; r < kDotMr; ++r) {
      const float s = a[r][kk];
      tail[r] += V4{s, s, s, s} * bv;
    }
  }
  for (size_t r = 0; r < kDotMr; ++r) out[r] = LaneSums(acc[r]) + tail[r];
}

}  // namespace

void MatMulInto(Tensor& c, MatView a, const Tensor& b, ThreadPool* pool) {
  FAE_CHECK_EQ(a.cols, b.rows());
  c.Resize(a.rows, b.cols());
  const size_t k = a.cols;
  const size_t n = b.cols();
  RowParallel(pool, a.rows, a.rows * k * n, [&](size_t i0, size_t i1) {
    GemmRows(i0, i1, n, k, a.data, k, 1, b.data(), n, c.data(), n);
  });
}

Tensor MatMul(const Tensor& a, const Tensor& b, ThreadPool* pool) {
  Tensor c;
  MatMulInto(c, a, b, pool);
  return c;
}

void MatMulTransAInto(Tensor& c, MatView a, const Tensor& b,
                      ThreadPool* pool) {
  FAE_CHECK_EQ(a.rows, b.rows());
  c.Resize(a.cols, b.cols());
  const size_t k = a.rows;
  const size_t m = a.cols;
  const size_t n = b.cols();
  // Output rows are columns of A: the same core with A's strides swapped.
  RowParallel(pool, m, m * k * n, [&](size_t i0, size_t i1) {
    GemmRows(i0, i1, n, k, a.data, 1, m, b.data(), n, c.data(), n);
  });
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b, ThreadPool* pool) {
  Tensor c;
  MatMulTransAInto(c, a, b, pool);
  return c;
}

void MatMulTransBInto(Tensor& c, const Tensor& a, const Tensor& b,
                      ThreadPool* pool) {
  FAE_CHECK_EQ(a.cols(), b.cols());
  c.Resize(a.rows(), b.rows());
  const size_t k = a.cols();
  const size_t n = b.rows();
  RowParallel(pool, a.rows(), a.rows() * k * n, [&](size_t i0, size_t i1) {
    // Edge tiles clamp to the last valid row/column (within this thread's
    // rows) and drop the duplicate results.
    for (size_t i = i0; i < i1; i += kDotMr) {
      const size_t mr = std::min(kDotMr, i1 - i);
      const float* ap[kDotMr];
      for (size_t r = 0; r < kDotMr; ++r) {
        ap[r] = a.row(i + std::min(r, mr - 1));
      }
      for (size_t j = 0; j < n; j += 4) {
        const size_t nr = std::min<size_t>(4, n - j);
        const float* bp[4];
        for (size_t q = 0; q < 4; ++q) bp[q] = b.row(j + std::min(q, nr - 1));
        V4 out[kDotMr];
        DotTile(k, ap, bp, out);
        for (size_t r = 0; r < mr; ++r) {
          float* crow = c.row(i + r) + j;
          if (nr == 4) {
            Store4(crow, out[r]);
          } else {
            for (size_t q = 0; q < nr; ++q) crow[q] = out[r][q];
          }
        }
      }
    }
  });
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b, ThreadPool* pool) {
  Tensor c;
  MatMulTransBInto(c, a, b, pool);
  return c;
}

void AddBiasRowwise(Tensor& x, const Tensor& bias) {
  FAE_CHECK_EQ(bias.rows(), 1u);
  FAE_CHECK_EQ(bias.cols(), x.cols());
  const float* brow = bias.row(0);
  for (size_t r = 0; r < x.rows(); ++r) {
    kernels::Add(x.cols(), brow, x.row(r));
  }
}

void ColumnSumsInto(Tensor& out, const Tensor& x) {
  out.Resize(1, x.cols());
  out.SetZero();
  float* orow = out.row(0);
  for (size_t r = 0; r < x.rows(); ++r) {
    kernels::Add(x.cols(), x.row(r), orow);
  }
}

Tensor ColumnSums(const Tensor& x) {
  Tensor out;
  ColumnSumsInto(out, x);
  return out;
}

void ReluForwardInto(Tensor& y, const Tensor& x) {
  y.Resize(x.rows(), x.cols());
  const float* src = x.data();
  float* dst = y.data();
  for (size_t i = 0; i < x.numel(); ++i) {
    dst[i] = std::max(0.0f, src[i]);
  }
}

Tensor ReluForward(const Tensor& x) {
  Tensor y;
  ReluForwardInto(y, x);
  return y;
}

void ReluBackwardInPlace(Tensor& grad, const Tensor& x) {
  FAE_CHECK(grad.SameShape(x));
  for (size_t i = 0; i < grad.numel(); ++i) {
    if (x.data()[i] <= 0.0f) grad.data()[i] = 0.0f;
  }
}

Tensor ReluBackward(const Tensor& grad_out, const Tensor& x) {
  Tensor g = grad_out;
  ReluBackwardInPlace(g, x);
  return g;
}

Tensor SigmoidForward(const Tensor& x) {
  Tensor y = x;
  for (size_t i = 0; i < y.numel(); ++i) {
    y.data()[i] = 1.0f / (1.0f + std::exp(-y.data()[i]));
  }
  return y;
}

void ConcatColsInto(Tensor& out, const std::vector<const Tensor*>& blocks) {
  FAE_CHECK(!blocks.empty());
  const size_t rows = blocks[0]->rows();
  size_t total_cols = 0;
  for (const Tensor* b : blocks) {
    FAE_CHECK_EQ(b->rows(), rows);
    total_cols += b->cols();
  }
  out.Resize(rows, total_cols);
  for (size_t r = 0; r < rows; ++r) {
    float* orow = out.row(r);
    size_t offset = 0;
    for (const Tensor* b : blocks) {
      const float* brow = b->row(r);
      std::copy(brow, brow + b->cols(), orow + offset);
      offset += b->cols();
    }
  }
}

Tensor ConcatCols(const std::vector<const Tensor*>& blocks) {
  Tensor out;
  ConcatColsInto(out, blocks);
  return out;
}

void SplitColsInto(const std::vector<Tensor*>& outs, const Tensor& grad,
                   const std::vector<size_t>& widths) {
  FAE_CHECK_EQ(outs.size(), widths.size());
  size_t total = 0;
  for (size_t w : widths) total += w;
  FAE_CHECK_EQ(total, grad.cols());
  size_t offset = 0;
  for (size_t bi = 0; bi < widths.size(); ++bi) {
    const size_t w = widths[bi];
    Tensor& block = *outs[bi];
    block.Resize(grad.rows(), w);
    for (size_t r = 0; r < grad.rows(); ++r) {
      const float* grow = grad.row(r) + offset;
      std::copy(grow, grow + w, block.row(r));
    }
    offset += w;
  }
}

std::vector<Tensor> SplitCols(const Tensor& grad,
                              const std::vector<size_t>& widths) {
  std::vector<Tensor> out(widths.size());
  std::vector<Tensor*> ptrs;
  ptrs.reserve(widths.size());
  for (Tensor& t : out) ptrs.push_back(&t);
  SplitColsInto(ptrs, grad, widths);
  return out;
}

Tensor SoftmaxRows(const Tensor& x) {
  Tensor y = x;
  for (size_t r = 0; r < y.rows(); ++r) {
    float* row = y.row(r);
    float mx = row[0];
    for (size_t c = 1; c < y.cols(); ++c) mx = std::max(mx, row[c]);
    float sum = 0.0f;
    for (size_t c = 0; c < y.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    for (size_t c = 0; c < y.cols(); ++c) row[c] /= sum;
  }
  return y;
}

void PairwiseDotInteractionInto(Tensor& out,
                                const std::vector<const Tensor*>& features,
                                ThreadPool* pool) {
  FAE_CHECK_GE(features.size(), 2u);
  const size_t f = features.size();
  const size_t rows = features[0]->rows();
  const size_t d = features[0]->cols();
  for (const Tensor* t : features) {
    FAE_CHECK_EQ(t->rows(), rows);
    FAE_CHECK_EQ(t->cols(), d);
  }
  out.Resize(rows, f * (f - 1) / 2);
  RowParallel(pool, rows, rows * f * f * d / 2, [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      float* orow = out.row(r);
      size_t col = 0;
      for (size_t i = 0; i < f; ++i) {
        const float* fi = features[i]->row(r);
        for (size_t j = i + 1; j < f; ++j) {
          orow[col++] = kernels::Dot(d, fi, features[j]->row(r));
        }
      }
    }
  });
}

Tensor PairwiseDotInteraction(const std::vector<const Tensor*>& features,
                              ThreadPool* pool) {
  Tensor out;
  PairwiseDotInteractionInto(out, features, pool);
  return out;
}

void PairwiseDotInteractionBackwardInto(
    std::vector<Tensor>& grads, const Tensor& grad_out,
    const std::vector<const Tensor*>& features, Tensor& scratch,
    ThreadPool* pool) {
  const size_t f = features.size();
  const size_t rows = features[0]->rows();
  const size_t d = features[0]->cols();
  FAE_CHECK_EQ(grad_out.rows(), rows);
  FAE_CHECK_EQ(grad_out.cols(), f * (f - 1) / 2);
  FAE_CHECK_EQ(grads.size(), f);
  for (Tensor& g : grads) g.Resize(rows, d);
  // Per sample, grads[m] is row m of Gsym * Z: Gsym[f x f] holds g_mn
  // mirrored with a zero diagonal, Z[f x d] stacks the feature rows. The
  // GEMM core sums n ascending, the order the pairwise reference loop added
  // into grads[m]; the zero diagonal and zero g_mn add +-0, which leaves
  // the sums unchanged (see the GEMM comment above). Each slot of `scratch`
  // (one per pool thread) holds Gsym, Z and the product, and owns a
  // contiguous range of samples, so the partition is write-disjoint.
  const size_t slots = pool != nullptr ? pool->num_threads() : 1;
  const size_t slot_size = f * f + 2 * f * d;
  scratch.Resize(slots, slot_size);
  RowParallel(pool, slots, rows * f * f * d, [&](size_t s0, size_t s1) {
    for (size_t s = s0; s < s1; ++s) {
      float* gsym = scratch.row(s);
      float* z = gsym + f * f;
      float* prod = z + f * d;
      for (size_t r = rows * s / slots; r < rows * (s + 1) / slots; ++r) {
        const float* grow = grad_out.row(r);
        size_t col = 0;
        for (size_t i = 0; i < f; ++i) {
          gsym[i * f + i] = 0.0f;
          for (size_t j = i + 1; j < f; ++j) {
            gsym[i * f + j] = gsym[j * f + i] = grow[col++];
          }
          std::copy_n(features[i]->row(r), d, z + i * d);
        }
        GemmRows(0, f, d, f, gsym, f, 1, z, d, prod, d);
        for (size_t i = 0; i < f; ++i) {
          std::copy_n(prod + i * d, d, grads[i].row(r));
        }
      }
    }
  });
}

std::vector<Tensor> PairwiseDotInteractionBackward(
    const Tensor& grad_out, const std::vector<const Tensor*>& features,
    ThreadPool* pool) {
  std::vector<Tensor> grads(features.size());
  Tensor scratch;
  PairwiseDotInteractionBackwardInto(grads, grad_out, features, scratch, pool);
  return grads;
}

}  // namespace fae
