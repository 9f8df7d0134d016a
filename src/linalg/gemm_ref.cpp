#include "linalg/gemm_ref.hpp"

#include "linalg/half.hpp"

#include <algorithm>

namespace ctb {

namespace {

// Block sizes tuned for typical L1/L2 on x86; correctness does not depend on
// them.
constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockN = 64;
constexpr std::size_t kBlockK = 64;

void check_shapes(const MatrixView<const float>& a,
                  const MatrixView<const float>& b,
                  const MatrixView<float>& c) {
  CTB_CHECK_MSG(a.cols() == b.rows(),
                "GEMM inner dims mismatch: A is " << a.rows() << "x"
                                                  << a.cols() << ", B is "
                                                  << b.rows() << "x"
                                                  << b.cols());
  CTB_CHECK_MSG(c.rows() == a.rows() && c.cols() == b.cols(),
                "GEMM output shape mismatch");
}

void scale_c(MatrixView<float> c, float beta) {
  for (std::size_t i = 0; i < c.rows(); ++i)
    for (std::size_t j = 0; j < c.cols(); ++j)
      c(i, j) = beta == 0.0f ? 0.0f : c(i, j) * beta;
}

// Accumulates alpha * A_blk * B_blk into C for one (i, j, k) block triple.
void block_kernel(const MatrixView<const float>& a,
                  const MatrixView<const float>& b, MatrixView<float> c,
                  float alpha, std::size_t i0, std::size_t j0, std::size_t k0,
                  std::size_t mi, std::size_t nj, std::size_t kk) {
  for (std::size_t i = i0; i < i0 + mi; ++i) {
    for (std::size_t k = k0; k < k0 + kk; ++k) {
      const float av = alpha * a(i, k);
      for (std::size_t j = j0; j < j0 + nj; ++j) c(i, j) += av * b(k, j);
    }
  }
}

}  // namespace

void gemm_naive(const MatrixView<const float>& a,
                const MatrixView<const float>& b, MatrixView<float> c,
                float alpha, float beta) {
  check_shapes(a, b, c);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      const float prior = beta == 0.0f ? 0.0f : beta * c(i, j);
      c(i, j) = alpha * acc + prior;
    }
  }
}

void gemm_blocked(const MatrixView<const float>& a,
                  const MatrixView<const float>& b, MatrixView<float> c,
                  float alpha, float beta) {
  check_shapes(a, b, c);
  scale_c(c, beta);
  const std::size_t m = c.rows(), n = c.cols(), k = a.cols();
  for (std::size_t i0 = 0; i0 < m; i0 += kBlockM) {
    const std::size_t mi = std::min(kBlockM, m - i0);
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::size_t kk = std::min(kBlockK, k - k0);
      for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
        const std::size_t nj = std::min(kBlockN, n - j0);
        block_kernel(a, b, c, alpha, i0, j0, k0, mi, nj, kk);
      }
    }
  }
}

const char* to_string(Op op) { return op == Op::kN ? "N" : "T"; }

const char* to_string(Precision p) {
  return p == Precision::kFp32 ? "fp32" : "fp16";
}

void gemm_naive_fp16(const Matrixf& a, const Matrixf& b, Matrixf& c,
                     float alpha, float beta) {
  CTB_CHECK_MSG(a.cols() == b.rows() && c.rows() == a.rows() &&
                    c.cols() == b.cols(),
                "GEMM shape mismatch");
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      float acc = 0.0f;  // FP32 accumulator (tensor-core style)
      for (std::size_t k = 0; k < a.cols(); ++k)
        acc += round_to_half(a(i, k)) * round_to_half(b(k, j));
      const float prior =
          beta == 0.0f ? 0.0f : beta * round_to_half(c(i, j));
      c(i, j) = round_to_half(alpha * acc + prior);
    }
  }
}

GemmDims gemm_dims_for(Op op_a, Op op_b, const Matrixf& a, const Matrixf& b) {
  GemmDims d;
  d.m = static_cast<int>(op_a == Op::kN ? a.rows() : a.cols());
  d.k = static_cast<int>(op_a == Op::kN ? a.cols() : a.rows());
  const int kb = static_cast<int>(op_b == Op::kN ? b.rows() : b.cols());
  d.n = static_cast<int>(op_b == Op::kN ? b.cols() : b.rows());
  CTB_CHECK_MSG(d.k == kb, "GEMM inner dims mismatch under ops "
                               << to_string(op_a) << to_string(op_b));
  return d;
}

void gemm_naive_ops(Op op_a, Op op_b, const Matrixf& a, const Matrixf& b,
                    Matrixf& c, float alpha, float beta) {
  const GemmDims d = gemm_dims_for(op_a, op_b, a, b);
  CTB_CHECK_MSG(static_cast<int>(c.rows()) == d.m &&
                    static_cast<int>(c.cols()) == d.n,
                "GEMM output shape mismatch");
  auto at_a = [&](int i, int k) {
    return op_a == Op::kN ? a(static_cast<std::size_t>(i),
                              static_cast<std::size_t>(k))
                          : a(static_cast<std::size_t>(k),
                              static_cast<std::size_t>(i));
  };
  auto at_b = [&](int k, int j) {
    return op_b == Op::kN ? b(static_cast<std::size_t>(k),
                              static_cast<std::size_t>(j))
                          : b(static_cast<std::size_t>(j),
                              static_cast<std::size_t>(k));
  };
  for (int i = 0; i < d.m; ++i) {
    for (int j = 0; j < d.n; ++j) {
      float acc = 0.0f;
      for (int k = 0; k < d.k; ++k) acc += at_a(i, k) * at_b(k, j);
      float& cell = c(static_cast<std::size_t>(i),
                      static_cast<std::size_t>(j));
      const float prior = beta == 0.0f ? 0.0f : beta * cell;
      cell = alpha * acc + prior;
    }
  }
}

namespace {
template <typename Fn>
void dispatch(Fn fn, const Matrixf& a, const Matrixf& b, Matrixf& c,
              float alpha, float beta) {
  fn(a.view(), b.view(), c.view(), alpha, beta);
}
}  // namespace

void gemm_naive(const Matrixf& a, const Matrixf& b, Matrixf& c, float alpha,
                float beta) {
  dispatch([](auto&&... xs) { gemm_naive(xs...); }, a, b, c, alpha, beta);
}
void gemm_blocked(const Matrixf& a, const Matrixf& b, Matrixf& c, float alpha,
                  float beta) {
  dispatch([](auto&&... xs) { gemm_blocked(xs...); }, a, b, c, alpha, beta);
}

}  // namespace ctb
