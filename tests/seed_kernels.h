// Reference loops for the dense kernels in src/tensor/ops.cc: the plain
// GEMM, transposed-GEMM and pairwise-interaction loops the kernel layer
// started from, serial and unblocked. The register-blocked kernels must
// match them bit for bit (tests/tensor/ops_test.cc), and
// bench/micro_kernels.cc times them as the seed baseline in the same
// translation unit as the new kernels. Do not "improve" these: their value
// is the summation order they fix.

#ifndef FAE_TESTS_SEED_KERNELS_H_
#define FAE_TESTS_SEED_KERNELS_H_

#include <vector>

#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/logging.h"

namespace fae {
namespace seed {

// Each writes a caller-owned output (resized and zeroed, never
// reallocated once warm), as the library's *Into kernels do, so timing them
// against those kernels compares loops, not allocations.

/// C = A * B: i-k-j loop, zero terms of A skipped.
inline void MatMulInto(Tensor& c, MatView a, const Tensor& b) {
  FAE_CHECK_EQ(a.cols, b.rows());
  c.Resize(a.rows, b.cols());
  c.SetZero();
  for (size_t i = 0; i < a.rows; ++i) {
    const float* arow = a.row(i);
    for (size_t kk = 0; kk < a.cols; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      kernels::Axpy(b.cols(), av, b.row(kk), c.row(i));
    }
  }
}

/// C = A^T * B: k-outer loop over A's rows, zero terms skipped.
inline void MatMulTransAInto(Tensor& c, MatView a, const Tensor& b) {
  FAE_CHECK_EQ(a.rows, b.rows());
  c.Resize(a.cols, b.cols());
  c.SetZero();
  for (size_t kk = 0; kk < a.rows; ++kk) {
    const float* arow = a.row(kk);
    for (size_t i = 0; i < a.cols; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      kernels::Axpy(b.cols(), av, b.row(kk), c.row(i));
    }
  }
}

/// C = A * B^T: one kernels::Dot per output element.
inline void MatMulTransBInto(Tensor& c, const Tensor& a, const Tensor& b) {
  FAE_CHECK_EQ(a.cols(), b.cols());
  c.Resize(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      c(i, j) = kernels::Dot(a.cols(), a.row(i), b.row(j));
    }
  }
}

/// Pairwise-dot interaction forward: one kernels::Dot per pair i < j.
inline void PairwiseDotInteractionInto(
    Tensor& out, const std::vector<const Tensor*>& features) {
  const size_t f = features.size();
  const size_t rows = features[0]->rows();
  const size_t d = features[0]->cols();
  out.Resize(rows, f * (f - 1) / 2);
  for (size_t r = 0; r < rows; ++r) {
    size_t col = 0;
    for (size_t i = 0; i < f; ++i) {
      for (size_t j = i + 1; j < f; ++j) {
        out(r, col++) = kernels::Dot(d, features[i]->row(r),
                                     features[j]->row(r));
      }
    }
  }
}

/// Pairwise-dot interaction backward: two Axpys per pair, zero terms
/// skipped. `grads` must hold features.size() tensors.
inline void PairwiseDotInteractionBackwardInto(
    std::vector<Tensor>& grads, const Tensor& grad_out,
    const std::vector<const Tensor*>& features) {
  const size_t f = features.size();
  const size_t rows = features[0]->rows();
  const size_t d = features[0]->cols();
  for (Tensor& g : grads) {
    g.Resize(rows, d);
    g.SetZero();
  }
  for (size_t r = 0; r < rows; ++r) {
    const float* grow = grad_out.row(r);
    size_t col = 0;
    for (size_t i = 0; i < f; ++i) {
      for (size_t j = i + 1; j < f; ++j) {
        const float g = grow[col++];
        if (g == 0.0f) continue;
        kernels::Axpy(d, g, features[j]->row(r), grads[i].row(r));
        kernels::Axpy(d, g, features[i]->row(r), grads[j].row(r));
      }
    }
  }
}

}  // namespace seed
}  // namespace fae

#endif  // FAE_TESTS_SEED_KERNELS_H_
