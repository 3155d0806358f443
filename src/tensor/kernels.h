#ifndef FAE_TENSOR_KERNELS_H_
#define FAE_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/half.h"

// The shared inner loops of every hot-path kernel: GEMM panels, embedding
// bag gather/scatter, and the sparse optimizers. Each primitive takes
// restrict-qualified pointers and is written in an unrolled form the
// compiler can auto-vectorize at -O2 without changing the floating-point
// result: per-output-element summation order is fixed (ascending index,
// one accumulator) wherever callers rely on bit-exact reproducibility,
// and only Dot — whose callers tolerate a fixed but different association
// — uses multiple accumulators.
//
// Build with -DFAE_NATIVE_ARCH=ON to compile these (and everything else)
// with -march=native for full-width SIMD. That build also passes
// -ffp-contract=off: without it GCC fuses a*b+c into an FMA on hosts that
// have one, which rounds once instead of twice and changes the results.

#if defined(__GNUC__) || defined(__clang__)
#define FAE_RESTRICT __restrict__
#else
#define FAE_RESTRICT
#endif

namespace fae {
namespace kernels {

/// y[i] += a * x[i]. The GEMM update and sparse-SGD apply (a = -lr).
/// Summation order per element is unchanged from the scalar loop, so
/// callers stay bit-exact.
inline void Axpy(size_t n, float a, const float* FAE_RESTRICT x,
                 float* FAE_RESTRICT y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    y[i + 0] += a * x[i + 0];
    y[i + 1] += a * x[i + 1];
    y[i + 2] += a * x[i + 2];
    y[i + 3] += a * x[i + 3];
    y[i + 4] += a * x[i + 4];
    y[i + 5] += a * x[i + 5];
    y[i + 6] += a * x[i + 6];
    y[i + 7] += a * x[i + 7];
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

/// y[i] += x[i]. Embedding-bag pooling and sparse-gradient accumulation.
inline void Add(size_t n, const float* FAE_RESTRICT x,
                float* FAE_RESTRICT y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    y[i + 0] += x[i + 0];
    y[i + 1] += x[i + 1];
    y[i + 2] += x[i + 2];
    y[i + 3] += x[i + 3];
    y[i + 4] += x[i + 4];
    y[i + 5] += x[i + 5];
    y[i + 6] += x[i + 6];
    y[i + 7] += x[i + 7];
  }
  for (; i < n; ++i) y[i] += x[i];
}

/// <x, y> with four independent accumulators (deterministic, but a
/// different association than a single-accumulator loop — callers that
/// need the legacy association must not use this). MatMulTransB's
/// micro-kernel (ops.cc) reproduces this association bit for bit; change
/// the two together.
inline float Dot(size_t n, const float* FAE_RESTRICT x,
                 const float* FAE_RESTRICT y) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i + 0] * y[i + 0];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += x[i] * y[i];
  return ((s0 + s1) + (s2 + s3)) + tail;
}

/// sum(x[i]^2) accumulated in double, strictly ascending — the exact
/// association the row-wise Adagrad accumulator has always used, kept so
/// optimizer state stays bit-identical to the scalar implementation.
inline double SumSquaresOrdered(size_t n, const float* FAE_RESTRICT x) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<double>(x[i]) * x[i];
  }
  return s;
}

// -- Cold-row quantization (ROADMAP item 4) ---------------------------------
//
// Cold embedding rows are stored row-wise quantized — int8 with a per-row
// affine (scale, zero_point), or plain binary16 — and dequantized on the
// fly by the gather. The int8 loops below are branch-free fused
// multiply-adds over uint8 codes, the same unroll-by-8 shape as Add/Axpy,
// so the compiler vectorizes them at -O2; fp16 widening is an inline
// bit-level conversion (util/half.h). Per-element evaluation order is
// fixed, so results are deterministic at any thread count.

/// y[i] += zero + scale * q[i] — the pooling gather over an int8 cold row.
inline void DequantAddI8(size_t n, const uint8_t* FAE_RESTRICT q, float scale,
                         float zero, float* FAE_RESTRICT y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    y[i + 0] += zero + scale * static_cast<float>(q[i + 0]);
    y[i + 1] += zero + scale * static_cast<float>(q[i + 1]);
    y[i + 2] += zero + scale * static_cast<float>(q[i + 2]);
    y[i + 3] += zero + scale * static_cast<float>(q[i + 3]);
    y[i + 4] += zero + scale * static_cast<float>(q[i + 4]);
    y[i + 5] += zero + scale * static_cast<float>(q[i + 5]);
    y[i + 6] += zero + scale * static_cast<float>(q[i + 6]);
    y[i + 7] += zero + scale * static_cast<float>(q[i + 7]);
  }
  for (; i < n; ++i) y[i] += zero + scale * static_cast<float>(q[i]);
}

/// y[i] = zero + scale * q[i] — materializes an int8 cold row as fp32
/// (staging a row for an optimizer update, checkpoint widening, eval).
inline void DequantRowI8(size_t n, const uint8_t* FAE_RESTRICT q, float scale,
                         float zero, float* FAE_RESTRICT y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    y[i + 0] = zero + scale * static_cast<float>(q[i + 0]);
    y[i + 1] = zero + scale * static_cast<float>(q[i + 1]);
    y[i + 2] = zero + scale * static_cast<float>(q[i + 2]);
    y[i + 3] = zero + scale * static_cast<float>(q[i + 3]);
    y[i + 4] = zero + scale * static_cast<float>(q[i + 4]);
    y[i + 5] = zero + scale * static_cast<float>(q[i + 5]);
    y[i + 6] = zero + scale * static_cast<float>(q[i + 6]);
    y[i + 7] = zero + scale * static_cast<float>(q[i + 7]);
  }
  for (; i < n; ++i) y[i] = zero + scale * static_cast<float>(q[i]);
}

/// Row-wise affine int8 quantization: zero_point = min(x), scale =
/// (max - min) / 255, codes rounded to nearest. A constant row gets
/// scale = 0 and all-zero codes, so it dequantizes exactly; otherwise the
/// min maps to code 0 and the max to code 255, and the per-element
/// reconstruction error is bounded by scale / 2 (plus rounding slop).
/// Requires n >= 1.
inline void QuantizeRowI8(size_t n, const float* FAE_RESTRICT x,
                          uint8_t* FAE_RESTRICT q, float* FAE_RESTRICT scale,
                          float* FAE_RESTRICT zero) {
  float lo = x[0];
  float hi = x[0];
  for (size_t i = 1; i < n; ++i) {
    lo = x[i] < lo ? x[i] : lo;
    hi = x[i] > hi ? x[i] : hi;
  }
  *zero = lo;
  if (hi <= lo) {
    *scale = 0.0f;
    for (size_t i = 0; i < n; ++i) q[i] = 0;
    return;
  }
  *scale = (hi - lo) / 255.0f;
  const float inv = 255.0f / (hi - lo);
  for (size_t i = 0; i < n; ++i) {
    // (x - lo) * inv is in [0, 255] up to rounding; clamp for the slop.
    int code = static_cast<int>((x[i] - lo) * inv + 0.5f);
    code = code < 0 ? 0 : (code > 255 ? 255 : code);
    q[i] = static_cast<uint8_t>(code);
  }
}

/// y[i] += widen(q[i]) — the pooling gather over a binary16 cold row.
inline void DequantAddF16(size_t n, const uint16_t* FAE_RESTRICT q,
                          float* FAE_RESTRICT y) {
  for (size_t i = 0; i < n; ++i) y[i] += HalfToFloat(q[i]);
}

/// y[i] = widen(q[i]) — materializes a binary16 cold row as fp32.
inline void DequantRowF16(size_t n, const uint16_t* FAE_RESTRICT q,
                          float* FAE_RESTRICT y) {
  for (size_t i = 0; i < n; ++i) y[i] = HalfToFloat(q[i]);
}

/// Rounds a row through binary16 storage (round-to-nearest-even).
inline void QuantizeRowF16(size_t n, const float* FAE_RESTRICT x,
                           uint16_t* FAE_RESTRICT q) {
  for (size_t i = 0; i < n; ++i) q[i] = FloatToHalf(x[i]);
}

}  // namespace kernels
}  // namespace fae

#endif  // FAE_TENSOR_KERNELS_H_
