#ifndef FAE_TENSOR_OPS_H_
#define FAE_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace fae {

// Every kernel exists in two forms: the historical allocating form
// returning a fresh Tensor, and an `*Into` form writing a caller-owned
// workspace (Tensor::Resize reuses the allocation once grown). The
// allocating forms are thin wrappers over the Into forms — one
// implementation, so both are bit-identical. A-operands are MatViews so
// activations can be consumed straight out of flat dataset buffers.

/// C = A[m,k] * B[k,n]. All three GEMMs run register-blocked micro-kernels
/// that are bit-identical to the plain loops (for finite operands): NN and
/// TN sum each element in ascending k with one accumulator, NT uses
/// kernels::Dot's association (DESIGN.md §9). When `pool` is non-null the
/// work is split over output rows; each row is written by exactly one
/// thread and per-element summation order is fixed, so the result is
/// bit-identical at any thread count.
Tensor MatMul(const Tensor& a, const Tensor& b, ThreadPool* pool = nullptr);
void MatMulInto(Tensor& c, MatView a, const Tensor& b,
                ThreadPool* pool = nullptr);

/// C = A^T[k,m] * B[k,n] — i.e. MatMul(transpose(a), b) without
/// materializing the transpose. Used for weight gradients.
Tensor MatMulTransA(const Tensor& a, const Tensor& b,
                    ThreadPool* pool = nullptr);
void MatMulTransAInto(Tensor& c, MatView a, const Tensor& b,
                      ThreadPool* pool = nullptr);

/// C = A[m,k] * B^T[n,k] — used for input gradients. C(i, j) equals
/// kernels::Dot(k, a.row(i), b.row(j)) bit for bit.
Tensor MatMulTransB(const Tensor& a, const Tensor& b,
                    ThreadPool* pool = nullptr);
void MatMulTransBInto(Tensor& c, const Tensor& a, const Tensor& b,
                      ThreadPool* pool = nullptr);

/// y(r, c) = x(r, c) + bias(0, c); bias is [1, cols].
void AddBiasRowwise(Tensor& x, const Tensor& bias);

/// Column-wise sum of grad rows into a [1, cols] tensor (bias gradient).
Tensor ColumnSums(const Tensor& x);
void ColumnSumsInto(Tensor& out, const Tensor& x);

/// Elementwise max(x, 0).
Tensor ReluForward(const Tensor& x);
void ReluForwardInto(Tensor& y, const Tensor& x);

/// dL/dx given dL/dy and the forward *input* x: grad where x > 0 else 0.
Tensor ReluBackward(const Tensor& grad_out, const Tensor& x);
/// In-place variant: zeroes grad entries where x <= 0.
void ReluBackwardInPlace(Tensor& grad, const Tensor& x);

/// Elementwise logistic sigmoid.
Tensor SigmoidForward(const Tensor& x);

/// Horizontal concatenation of equally-tall blocks.
Tensor ConcatCols(const std::vector<const Tensor*>& blocks);
void ConcatColsInto(Tensor& out, const std::vector<const Tensor*>& blocks);

/// Splits `grad` (the gradient of a ConcatCols output) back into per-block
/// gradients with the given widths.
std::vector<Tensor> SplitCols(const Tensor& grad,
                              const std::vector<size_t>& widths);
/// Into variant: `outs` supplies one workspace per width.
void SplitColsInto(const std::vector<Tensor*>& outs, const Tensor& grad,
                   const std::vector<size_t>& widths);

/// Row-wise softmax.
Tensor SoftmaxRows(const Tensor& x);

/// DLRM-style pairwise-dot feature interaction.
///
/// Inputs: F feature blocks, each [B, d]. Output: [B, F*(F-1)/2] whose
/// columns are the dot products <f_i, f_j> for i < j, per sample.
Tensor PairwiseDotInteraction(const std::vector<const Tensor*>& features,
                              ThreadPool* pool = nullptr);
void PairwiseDotInteractionInto(Tensor& out,
                                const std::vector<const Tensor*>& features,
                                ThreadPool* pool = nullptr);

/// Backward of PairwiseDotInteraction: given dL/dout [B, F*(F-1)/2] and the
/// forward feature blocks, returns dL/df for each block.
std::vector<Tensor> PairwiseDotInteractionBackward(
    const Tensor& grad_out, const std::vector<const Tensor*>& features,
    ThreadPool* pool = nullptr);
/// Into variant: `grads` must already hold features.size() workspaces;
/// `scratch` is a caller-owned workspace for the per-sample GEMM operands
/// (one slot per pool thread), so a warm call allocates nothing.
void PairwiseDotInteractionBackwardInto(
    std::vector<Tensor>& grads, const Tensor& grad_out,
    const std::vector<const Tensor*>& features, Tensor& scratch,
    ThreadPool* pool = nullptr);

}  // namespace fae

#endif  // FAE_TENSOR_OPS_H_
