#include <gtest/gtest.h>

#include "dnn/grouped.hpp"
#include "dnn/im2col.hpp"
#include "dnn/implicit_gemm.hpp"
#include "kernels/packing.hpp"

namespace ctb {
namespace {

ConvShape mk_conv(int in_c, int out_c, int kernel, int stride, int pad,
                  int hw) {
  ConvShape s;
  s.name = "test";
  s.in_c = in_c;
  s.out_c = out_c;
  s.kernel = kernel;
  s.stride = stride;
  s.pad = pad;
  s.in_h = hw;
  s.in_w = hw;
  return s;
}

TEST(ImplicitGemm, LoweringMatchesIm2col) {
  // The implicit B(k, j) — the input under the operand's lowering, read
  // through the per-element decode — must be exactly the value im2col
  // materializes.
  for (const ConvShape& s :
       {mk_conv(3, 4, 3, 1, 1, 6), mk_conv(2, 4, 5, 2, 3, 9),
        mk_conv(2, 4, 7, 1, 2, 8), mk_conv(4, 4, 1, 2, 0, 7)}) {
    Rng rng(3);
    Tensor4 input(2, s.in_c, s.in_h, s.in_w);
    fill_random(input, rng);
    const Matrixf filters = random_filters(s, rng);
    const Matrixf cols = im2col(s, input);
    const GemmDims d = s.gemm_dims(2);
    Matrixf out(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
    const GemmOperands g = implicit_conv_operands(s, input, filters, out);
    ASSERT_TRUE(g.lowering == s.lowering());
    ASSERT_EQ(g.b, input.flat().data());
    for (int k = 0; k < d.k; ++k)
      for (int j = 0; j < d.n; ++j)
        ASSERT_EQ(conv_b_value(g.lowering, g.b, d.k, k, j),
                  cols(static_cast<std::size_t>(k),
                       static_cast<std::size_t>(j)))
            << "kernel " << s.kernel << " k=" << k << " j=" << j;
  }
}

struct ConvCase {
  int in_c, out_c, kernel, stride, pad, hw, batch;
};

class ImplicitVsExplicit : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ImplicitVsExplicit, SameResultAsIm2colPath) {
  const ConvCase p = GetParam();
  const ConvShape s =
      mk_conv(p.in_c, p.out_c, p.kernel, p.stride, p.pad, p.hw);
  Rng rng(static_cast<std::uint64_t>(p.in_c * 31 + p.kernel));
  Tensor4 input(p.batch, p.in_c, p.hw, p.hw);
  fill_random(input, rng);
  const Matrixf filters = random_filters(s, rng);
  const Tensor4 explicit_path = conv_forward_gemm(s, input, filters);
  const GroupedConv conv{&s, &input, &filters, {}, false};
  const Tensor4 implicit_path = grouped_conv_forward({&conv, 1})[0];
  ASSERT_TRUE(explicit_path.same_shape(implicit_path));
  EXPECT_LT(max_abs_diff(explicit_path, implicit_path), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ImplicitVsExplicit,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 4, 1},
                      ConvCase{3, 8, 3, 1, 1, 8, 1},
                      ConvCase{4, 6, 5, 1, 2, 9, 2},
                      ConvCase{2, 4, 3, 2, 1, 12, 1},
                      ConvCase{8, 16, 1, 1, 0, 7, 3}));

TEST(ImplicitGemm, BatchedBranchesMatchDirectConv) {
  // Batch the four stage-1 branches of a mini inception module implicitly
  // through the grouped dispatch, without epilogues.
  const ConvShape c1 = mk_conv(8, 6, 1, 1, 0, 10);
  const ConvShape c2 = mk_conv(8, 4, 3, 1, 1, 10);
  const ConvShape c3 = mk_conv(8, 3, 5, 1, 2, 10);
  const ConvShape c4 = mk_conv(8, 5, 1, 1, 0, 10);
  Rng rng(77);
  Tensor4 input(1, 8, 10, 10);
  fill_random(input, rng);
  const Matrixf f1 = random_filters(c1, rng);
  const Matrixf f2 = random_filters(c2, rng);
  const Matrixf f3 = random_filters(c3, rng);
  const Matrixf f4 = random_filters(c4, rng);

  std::vector<GroupedConv> group(4);
  const ConvShape* shapes[] = {&c1, &c2, &c3, &c4};
  const Matrixf* filters[] = {&f1, &f2, &f3, &f4};
  for (std::size_t i = 0; i < group.size(); ++i) {
    group[i].shape = shapes[i];
    group[i].input = &input;
    group[i].filters = filters[i];
  }
  const std::vector<Tensor4> outs = grouped_conv_forward(group);
  ASSERT_EQ(outs.size(), 4u);

  const Tensor4 r1 = conv_forward_direct(c1, input, f1);
  const Tensor4 r2 = conv_forward_direct(c2, input, f2);
  const Tensor4 r3 = conv_forward_direct(c3, input, f3);
  const Tensor4 r4 = conv_forward_direct(c4, input, f4);
  EXPECT_LT(max_abs_diff(outs[0], r1), 1e-3f);
  EXPECT_LT(max_abs_diff(outs[1], r2), 1e-3f);
  EXPECT_LT(max_abs_diff(outs[2], r3), 1e-3f);
  EXPECT_LT(max_abs_diff(outs[3], r4), 1e-3f);
}

TEST(ImplicitGemm, OperandValidation) {
  const ConvShape s = mk_conv(3, 4, 3, 1, 1, 6);
  Tensor4 wrong(1, 2, 6, 6);  // wrong channel count
  Rng rng(1);
  Tensor4 ok(1, 3, 6, 6);
  const Matrixf filters = random_filters(s, rng);
  const GemmDims d = s.gemm_dims(1);
  Matrixf out(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  EXPECT_THROW(implicit_conv_operands(s, wrong, filters, out), CheckError);
  Matrixf bad_out(1, 1);
  EXPECT_THROW(implicit_conv_operands(s, ok, filters, bad_out), CheckError);
}

TEST(ImplicitGemm, MaterializationCostModel) {
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const ConvShape small = mk_conv(16, 16, 3, 1, 1, 14);
  const ConvShape big = mk_conv(256, 256, 3, 1, 1, 56);
  EXPECT_GT(im2col_materialization_us(arch, big, 1),
            im2col_materialization_us(arch, small, 1));
  EXPECT_GE(im2col_materialization_us(arch, small, 1),
            arch.kernel_launch_us);
}

}  // namespace
}  // namespace ctb
