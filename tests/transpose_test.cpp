#include <gtest/gtest.h>

#include "core/api.hpp"
#include "kernels/functional.hpp"
#include "linalg/gemm_ref.hpp"
#include "run_uniform.hpp"

namespace ctb {
namespace {

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

/// Explicit transpose for building references.
Matrixf transpose(const Matrixf& m) {
  Matrixf t(m.cols(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) t(j, i) = m(i, j);
  return t;
}

TEST(GemmDimsFor, DerivesLogicalShapes) {
  Matrixf a(4, 7), b(7, 5);         // NN
  Matrixf at(7, 4), bt(5, 7);       // stored transposed
  EXPECT_EQ(gemm_dims_for(Op::kN, Op::kN, a, b), (GemmDims{4, 5, 7}));
  EXPECT_EQ(gemm_dims_for(Op::kT, Op::kN, at, b), (GemmDims{4, 5, 7}));
  EXPECT_EQ(gemm_dims_for(Op::kN, Op::kT, a, bt), (GemmDims{4, 5, 7}));
  EXPECT_EQ(gemm_dims_for(Op::kT, Op::kT, at, bt), (GemmDims{4, 5, 7}));
}

TEST(GemmDimsFor, InnerMismatchThrows) {
  Matrixf a(4, 7), b(6, 5);
  EXPECT_THROW(gemm_dims_for(Op::kN, Op::kN, a, b), CheckError);
}

TEST(GemmNaiveOps, MatchesUntransposedReference) {
  Rng rng(1);
  const Matrixf a = rand_mat(9, 13, rng);
  const Matrixf b = rand_mat(13, 11, rng);
  Matrixf c_ref(9, 11), c_nt(9, 11), c_tn(9, 11), c_tt(9, 11);
  gemm_naive(a, b, c_ref, 1.5f, 0.0f);

  const Matrixf at = transpose(a);
  const Matrixf bt = transpose(b);
  gemm_naive_ops(Op::kN, Op::kT, a, bt, c_nt, 1.5f, 0.0f);
  gemm_naive_ops(Op::kT, Op::kN, at, b, c_tn, 1.5f, 0.0f);
  gemm_naive_ops(Op::kT, Op::kT, at, bt, c_tt, 1.5f, 0.0f);
  EXPECT_TRUE(allclose(c_nt, c_ref));
  EXPECT_TRUE(allclose(c_tn, c_ref));
  EXPECT_TRUE(allclose(c_tt, c_ref));
}

struct OpCase {
  Op op_a, op_b;
};

class FunctionalTranspose : public ::testing::TestWithParam<OpCase> {};

TEST_P(FunctionalTranspose, KernelMatchesReferenceAllStrategies) {
  const auto [op_a, op_b] = GetParam();
  Rng rng(static_cast<std::uint64_t>(17 + 2 * static_cast<int>(op_a) +
                                     static_cast<int>(op_b)));
  const GemmDims d{50, 70, 40};
  // Logical operands, then store per op.
  const Matrixf a_logical = rand_mat(d.m, d.k, rng);
  const Matrixf b_logical = rand_mat(d.k, d.n, rng);
  const Matrixf a_store =
      op_a == Op::kN ? a_logical : transpose(a_logical);
  const Matrixf b_store =
      op_b == Op::kN ? b_logical : transpose(b_logical);

  Matrixf ref(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  gemm_naive(a_logical, b_logical, ref, 1.0f, 0.0f);

  for (int id = 0; id < 12; ++id) {
    const TilingStrategy& s = batched_strategy_by_id(id);
    Matrixf c(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
    const GemmOperands g = operands(a_store, b_store, c, op_a, op_b);
    run_uniform(s, g, 1.0f, 0.0f);
    EXPECT_TRUE(allclose(c, ref))
        << s.name() << " ops " << to_string(op_a) << to_string(op_b);
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, FunctionalTranspose,
                         ::testing::Values(OpCase{Op::kN, Op::kN},
                                           OpCase{Op::kN, Op::kT},
                                           OpCase{Op::kT, Op::kN},
                                           OpCase{Op::kT, Op::kT}));

TEST(BatchedGemmEntries, MixedOpsPerEntry) {
  // One batch where each GEMM uses a different op pair — the QK^T pattern
  // of attention is op_b == kT with K stored row-major.
  Rng rng(23);
  const GemmDims d1{32, 48, 16}, d2{40, 24, 56};
  const Matrixf a1 = rand_mat(d1.m, d1.k, rng);
  const Matrixf b1t = rand_mat(d1.n, d1.k, rng);  // stores B^T
  const Matrixf a2t = rand_mat(d2.k, d2.m, rng);  // stores A^T
  const Matrixf b2 = rand_mat(d2.k, d2.n, rng);
  Matrixf c1(static_cast<std::size_t>(d1.m), static_cast<std::size_t>(d1.n));
  Matrixf c2(static_cast<std::size_t>(d2.m), static_cast<std::size_t>(d2.n));

  const std::vector<GemmEntry> entries = {
      {&a1, &b1t, &c1, Op::kN, Op::kT},
      {&a2t, &b2, &c2, Op::kT, Op::kN},
  };
  batched_gemm(entries, 2.0f, 0.0f);

  Matrixf ref1(c1.rows(), c1.cols()), ref2(c2.rows(), c2.cols());
  gemm_naive_ops(Op::kN, Op::kT, a1, b1t, ref1, 2.0f, 0.0f);
  gemm_naive_ops(Op::kT, Op::kN, a2t, b2, ref2, 2.0f, 0.0f);
  EXPECT_TRUE(allclose(c1, ref1));
  EXPECT_TRUE(allclose(c2, ref2));
}

TEST(BatchedGemmEntries, ShapeMismatchThrows) {
  Matrixf a(4, 8), b(9, 4), c(4, 4);
  const std::vector<GemmEntry> entries = {{&a, &b, &c, Op::kN, Op::kN}};
  EXPECT_THROW(batched_gemm(entries, 1.0f, 0.0f), CheckError);
}

TEST(Operands, TransposeAwareValidation) {
  Matrixf a(8, 4), b(16, 8), c(4, 16);
  // Logical: op_a = kT makes A 4x8; B 16x8 under kT is 8x16 logical.
  const GemmOperands g = operands(a, b, c, Op::kT, Op::kT);
  EXPECT_EQ(g.dims.m, 4);
  EXPECT_EQ(g.dims.n, 16);
  EXPECT_EQ(g.dims.k, 8);
}

TEST(BatchedGemmEntries, Fp16WithTransposeOps) {
  // FP16 tensor-core semantics compose with transpose modes.
  Rng rng(71);
  const GemmDims d{24, 40, 32};
  const Matrixf a = rand_mat(d.m, d.k, rng);
  const Matrixf bt = rand_mat(d.n, d.k, rng);  // stores B^T
  Matrixf c(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  const std::vector<GemmEntry> entries = {{&a, &bt, &c, Op::kN, Op::kT}};
  PlannerConfig config;
  config.precision = Precision::kFp16;
  batched_gemm(entries, 1.0f, 0.0f, config);

  // Reference: transpose explicitly, then fp16 reference.
  Matrixf b(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = bt(j, i);
  Matrixf ref(c.rows(), c.cols());
  gemm_naive_fp16(a, b, ref, 1.0f, 0.0f);
  EXPECT_LT(max_abs_diff(c, ref), 0.05f);
}

TEST(OpNames, Stringify) {
  EXPECT_STREQ(to_string(Op::kN), "N");
  EXPECT_STREQ(to_string(Op::kT), "T");
}

}  // namespace
}  // namespace ctb
