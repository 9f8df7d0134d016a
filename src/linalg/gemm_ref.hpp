// Reference host GEMM implementations: C = alpha * A * B + beta * C.
//
// These are the correctness oracle for the simulated device kernels and the
// building block of the DNN substrate's shape checks. Two variants: a
// transparent naive triple loop and a cache-blocked version.
#pragma once

#include "linalg/matrix.hpp"

namespace ctb {

/// GEMM problem dimensions; A is MxK, B is KxN, C is MxN (all row-major).
struct GemmDims {
  int m = 0;
  int n = 0;
  int k = 0;

  long long flops() const { return 2LL * m * n * k; }
  bool valid() const { return m > 0 && n > 0 && k > 0; }
  bool operator==(const GemmDims&) const = default;
};

/// Transpose mode of an operand: with kT the logical M x K (or K x N)
/// operand is stored transposed, BLAS-style.
enum class Op { kN, kT };

const char* to_string(Op op);

/// Numeric precision of a GEMM execution. kFp16 uses tensor-core semantics:
/// FP16 operands (values rounded through binary16), FP32 accumulation,
/// FP16-rounded output.
enum class Precision { kFp32, kFp16 };

const char* to_string(Precision p);

/// Naive triple loop; the oracle of last resort.
void gemm_naive(const MatrixView<const float>& a,
                const MatrixView<const float>& b, MatrixView<float> c,
                float alpha, float beta);

/// Cache-blocked single-thread GEMM.
void gemm_blocked(const MatrixView<const float>& a,
                  const MatrixView<const float>& b, MatrixView<float> c,
                  float alpha, float beta);

/// Reference GEMM with tensor-core FP16 semantics: A and B values rounded
/// to binary16, accumulation in FP32, each C result rounded to binary16.
void gemm_naive_fp16(const Matrixf& a, const Matrixf& b, Matrixf& c,
                     float alpha, float beta);

/// Reference GEMM with transpose modes: C = alpha * op(A) * op(B) + beta*C
/// where op(A) is M x K. With Op::kT the stored matrix holds the transpose
/// (A storage is K x M / B storage is N x K).
void gemm_naive_ops(Op op_a, Op op_b, const Matrixf& a, const Matrixf& b,
                    Matrixf& c, float alpha, float beta);

/// Logical GEMM dims implied by stored operand shapes and ops; validates
/// the inner dimensions agree.
GemmDims gemm_dims_for(Op op_a, Op op_b, const Matrixf& a, const Matrixf& b);

/// Convenience overloads on owning matrices with shape validation.
void gemm_naive(const Matrixf& a, const Matrixf& b, Matrixf& c, float alpha,
                float beta);
void gemm_blocked(const Matrixf& a, const Matrixf& b, Matrixf& c, float alpha,
                  float beta);

}  // namespace ctb
