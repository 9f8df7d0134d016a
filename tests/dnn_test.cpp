#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <string>

#include "dnn/conv.hpp"
#include "dnn/im2col.hpp"
#include "dnn/implicit_gemm.hpp"
#include "dnn/tensor.hpp"
#include "util/parallel.hpp"

namespace ctb {
namespace {

// ----------------------------------------------------------------- tensor --

TEST(Tensor, ShapeAndIndexing) {
  Tensor4 t(2, 3, 4, 5);
  EXPECT_EQ(t.size(), 2u * 3 * 4 * 5);
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t.at(1, 2, 3, 4), 9.0f);
  EXPECT_EQ(t.flat()[t.size() - 1], 9.0f);  // last element NCHW
}

TEST(Tensor, SameShape) {
  Tensor4 a(1, 2, 3, 4), b(1, 2, 3, 4), c(1, 2, 4, 3);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(Tensor, MaxAbsDiff) {
  Tensor4 a(1, 1, 2, 2), b(1, 1, 2, 2);
  b.at(0, 0, 1, 1) = 3.0f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 3.0f);
}

TEST(Tensor, InvalidShapeThrows) {
  EXPECT_THROW(Tensor4(0, 1, 1, 1), CheckError);
}

// -------------------------------------------------------------- ConvShape --

TEST(ConvShape, OutputDims) {
  ConvShape s;
  s.in_c = 3;
  s.out_c = 8;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  s.in_h = 28;
  s.in_w = 28;
  EXPECT_EQ(s.out_h(), 28);  // same padding
  EXPECT_EQ(s.out_w(), 28);
}

TEST(ConvShape, StridedOutputDims) {
  ConvShape s;
  s.kernel = 7;
  s.stride = 2;
  s.pad = 3;
  s.in_h = 224;
  s.in_w = 224;
  EXPECT_EQ(s.out_h(), 112);
}

TEST(ConvShape, GemmLoweringDims) {
  // Paper Section 1: M = filters, K = filter size * channels, N = feature
  // map * batch. The inception3a/5x5reduce example: 16x784x192.
  ConvShape s;
  s.in_c = 192;
  s.out_c = 16;
  s.kernel = 1;
  s.stride = 1;
  s.pad = 0;
  s.in_h = 28;
  s.in_w = 28;
  const GemmDims d = s.gemm_dims(1);
  EXPECT_EQ(d.m, 16);
  EXPECT_EQ(d.n, 784);
  EXPECT_EQ(d.k, 192);
}

TEST(ConvShape, BatchScalesN) {
  ConvShape s;
  s.in_c = 4;
  s.out_c = 8;
  s.kernel = 3;
  s.pad = 1;
  s.in_h = 8;
  s.in_w = 8;
  EXPECT_EQ(s.gemm_dims(4).n, 4 * 64);
  EXPECT_EQ(s.gemm_dims(4).k, 4 * 9);
}

// ----------------------------------------------------------------- im2col --

TEST(Im2col, Identity1x1Conv) {
  // A 1x1 conv's im2col is just the channel-major flattening.
  ConvShape s;
  s.in_c = 2;
  s.out_c = 1;
  s.kernel = 1;
  s.in_h = 2;
  s.in_w = 2;
  Tensor4 input(1, 2, 2, 2);
  for (std::size_t i = 0; i < input.size(); ++i)
    input.flat()[i] = static_cast<float>(i);
  const Matrixf cols = im2col(s, input);
  EXPECT_EQ(cols.rows(), 2u);
  EXPECT_EQ(cols.cols(), 4u);
  EXPECT_EQ(cols(0, 0), 0.0f);
  EXPECT_EQ(cols(1, 0), 4.0f);  // channel 1, position 0
}

TEST(Im2col, ZeroPaddingOutsideImage) {
  ConvShape s;
  s.in_c = 1;
  s.out_c = 1;
  s.kernel = 3;
  s.pad = 1;
  s.in_h = 2;
  s.in_w = 2;
  Tensor4 input(1, 1, 2, 2);
  input.flat()[0] = 1;
  input.flat()[1] = 2;
  input.flat()[2] = 3;
  input.flat()[3] = 4;
  const Matrixf cols = im2col(s, input);
  // Output position (0,0), tap (kh=0, kw=0) reads (-1,-1): zero.
  EXPECT_EQ(cols(0, 0), 0.0f);
  // Tap (1,1) at output (0,0) reads input (0,0) = 1.
  EXPECT_EQ(cols(4, 0), 1.0f);
}

TEST(Im2col, ShapeMismatchThrows) {
  ConvShape s;
  s.in_c = 3;
  s.kernel = 1;
  s.in_h = 4;
  s.in_w = 4;
  Tensor4 wrong(1, 2, 4, 4);
  EXPECT_THROW(im2col(s, wrong), CheckError);
}

TEST(Col2Im, RoundTripsGemmOutput) {
  ConvShape s;
  s.in_c = 1;
  s.out_c = 2;
  s.kernel = 1;
  s.in_h = 2;
  s.in_w = 3;
  Matrixf out(2, 2 * 2 * 3);  // batch 2
  fill_pattern(out);
  const Tensor4 t = col2im_output(s, 2, out);
  EXPECT_EQ(t.n(), 2);
  EXPECT_EQ(t.c(), 2);
  EXPECT_EQ(t.at(1, 1, 0, 1), out(1, static_cast<std::size_t>(1 * 6 + 1)));
}

// The per-element lowering loops im2col and col2im_output replaced: one
// guarded read per matrix element. Kept as the oracle the span copies must
// reproduce bit for bit.
Matrixf im2col_oracle(const ConvShape& s, const Tensor4& input) {
  const int oh = s.out_h();
  const int ow = s.out_w();
  Matrixf m(static_cast<std::size_t>(s.in_c * s.kernel * s.kernel),
            static_cast<std::size_t>(oh * ow * input.n()));
  for (std::size_t row = 0; row < m.rows(); ++row) {
    const int kw = static_cast<int>(row) % s.kernel;
    const int kh = (static_cast<int>(row) / s.kernel) % s.kernel;
    const int c = static_cast<int>(row) / (s.kernel * s.kernel);
    for (int n = 0; n < input.n(); ++n)
      for (int y = 0; y < oh; ++y)
        for (int x = 0; x < ow; ++x) {
          const int iy = y * s.stride - s.pad + kh;
          const int ix = x * s.stride - s.pad + kw;
          const bool in_range =
              iy >= 0 && iy < s.in_h && ix >= 0 && ix < s.in_w;
          m(row, static_cast<std::size_t>((n * oh + y) * ow + x)) =
              in_range ? input.at(n, c, iy, ix) : 0.0f;
        }
  }
  return m;
}

Tensor4 col2im_oracle(const ConvShape& s, int batch, const Matrixf& out) {
  const int oh = s.out_h();
  const int ow = s.out_w();
  Tensor4 t(batch, s.out_c, oh, ow);
  for (int n = 0; n < batch; ++n)
    for (int c = 0; c < s.out_c; ++c)
      for (int y = 0; y < oh; ++y)
        for (int x = 0; x < ow; ++x)
          t.at(n, c, y, x) = out(static_cast<std::size_t>(c),
                                 static_cast<std::size_t>((n * oh + y) * ow +
                                                          x));
  return t;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Random values with every fifth one replaced by -0.0f, which a lowering
/// must copy as -0.0f while writing +0.0f for padding.
void fill_with_negative_zeros(std::span<float> flat, Rng& rng) {
  for (std::size_t i = 0; i < flat.size(); ++i)
    flat[i] = i % 5 == 0 ? -0.0f : rng.uniform_float(-1.0f, 1.0f);
}

TEST(Lowering, SpanCopiesMatchPerElementOracleBitwise) {
  // Non-square inputs; the 2x3 one is smaller than the larger kernels, so
  // whole filter taps (rows and columns) miss the image entirely.
  const std::array<std::array<int, 2>, 2> extents = {{{9, 6}, {2, 3}}};
  int lowered = 0;
  for (int threads : {1, 4}) {
    ScopedParallelThreads par(threads);
    for (const auto& [h, w] : extents)
      for (int kernel : {1, 3, 5, 7})
        for (int stride : {1, 2, 3})
          for (int pad : {0, 1, 2, 3})
            for (int batch : {1, 2}) {
              ConvShape s;
              s.in_c = 3;
              s.out_c = 4;
              s.kernel = kernel;
              s.stride = stride;
              s.pad = pad;
              s.in_h = h;
              s.in_w = w;
              const std::string what =
                  std::to_string(h) + "x" + std::to_string(w) + " k" +
                  std::to_string(kernel) + " s" + std::to_string(stride) +
                  " p" + std::to_string(pad) + " n" + std::to_string(batch) +
                  " threads " + std::to_string(threads);
              Rng rng(static_cast<std::uint64_t>(lowered + 1));
              Tensor4 input(batch, s.in_c, h, w);
              fill_with_negative_zeros(input.flat(), rng);
              if (kernel > h + 2 * pad || kernel > w + 2 * pad) {
                EXPECT_THROW(im2col(s, input), CheckError) << what;
                continue;
              }
              const Matrixf cols = im2col(s, input);
              const Matrixf expect = im2col_oracle(s, input);
              ASSERT_EQ(cols.rows(), expect.rows()) << what;
              ASSERT_EQ(cols.cols(), expect.cols()) << what;
              EXPECT_TRUE(same_bits(cols.flat(), expect.flat())) << what;

              Matrixf out(static_cast<std::size_t>(s.out_c),
                          static_cast<std::size_t>(s.gemm_dims(batch).n));
              fill_with_negative_zeros(out.flat(), rng);
              const Tensor4 t = col2im_output(s, batch, out);
              const Tensor4 t_expect = col2im_oracle(s, batch, out);
              ASSERT_TRUE(t.same_shape(t_expect)) << what;
              EXPECT_TRUE(same_bits(t.flat(), t_expect.flat())) << what;
              ++lowered;
            }
  }
  // 25 of the 32 (extent, kernel, pad) triples fit, x 3 strides x 2
  // batches, at two thread counts.
  EXPECT_EQ(lowered, 2 * 25 * 3 * 2);
}

// A shape no convolution can run: every lowering and conv entry point
// rejects it before allocating, naming the shape.
struct DegenerateCase {
  int kernel, stride, pad, in_h, in_w;
};

class DegenerateConvShape : public ::testing::TestWithParam<DegenerateCase> {
 protected:
  ConvShape shape() const {
    const DegenerateCase& p = GetParam();
    ConvShape s;
    s.name = "probe/conv";
    s.in_c = 2;
    s.out_c = 3;
    s.kernel = p.kernel;
    s.stride = p.stride;
    s.pad = p.pad;
    s.in_h = p.in_h;
    s.in_w = p.in_w;
    return s;
  }
};

/// Runs `f` and expects a CheckError whose message names the shape.
template <typename F>
void expect_shape_rejected(F&& f) {
  try {
    f();
    ADD_FAILURE() << "degenerate shape accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("probe/conv"), std::string::npos)
        << e.what();
  }
}

TEST_P(DegenerateConvShape, Im2colThrows) {
  const ConvShape s = shape();
  const Tensor4 input(1, s.in_c, s.in_h, s.in_w);
  expect_shape_rejected([&] { (void)im2col(s, input); });
}

TEST_P(DegenerateConvShape, Col2imThrows) {
  const ConvShape s = shape();
  const Matrixf out(static_cast<std::size_t>(s.out_c), 9);
  expect_shape_rejected([&] { (void)col2im_output(s, 1, out); });
}

TEST_P(DegenerateConvShape, ImplicitOperandsThrow) {
  const ConvShape s = shape();
  const Tensor4 input(1, s.in_c, s.in_h, s.in_w);
  const Matrixf filters(static_cast<std::size_t>(s.out_c),
                        static_cast<std::size_t>(s.in_c * 25));
  Matrixf out(static_cast<std::size_t>(s.out_c), 9);
  expect_shape_rejected(
      [&] { (void)implicit_conv_operands(s, input, filters, out); });
  expect_shape_rejected(
      [&] { (void)conv_forward_implicit(s, input, filters); });
}

TEST_P(DegenerateConvShape, DirectConvThrows) {
  const ConvShape s = shape();
  const Tensor4 input(1, s.in_c, s.in_h, s.in_w);
  const Matrixf filters(
      static_cast<std::size_t>(s.out_c),
      static_cast<std::size_t>(s.in_c * s.kernel * s.kernel));
  expect_shape_rejected([&] { (void)conv_forward_direct(s, input, filters); });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DegenerateConvShape,
    //                      kernel stride pad in_h in_w
    ::testing::Values(DegenerateCase{5, 1, 0, 1, 1},   // out_h = -3
                      DegenerateCase{5, 2, 0, 4, 4},   // (4-5)/2+1 = 1
                      DegenerateCase{3, 1, 0, 2, 8},   // too tall only
                      DegenerateCase{3, 1, 0, 8, 2},   // too wide only
                      DegenerateCase{3, 0, 1, 4, 4},   // stride 0
                      DegenerateCase{1, 1, -1, 4, 4},  // negative pad
                      DegenerateCase{0, 1, 0, 4, 4})); // empty kernel

// ------------------------------------------------------------- conv paths --

struct ConvCase {
  int in_c, out_c, kernel, stride, pad, hw, batch;
};

class ConvGemmEquivalence : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGemmEquivalence, GemmPathMatchesDirect) {
  const ConvCase p = GetParam();
  ConvShape s;
  s.in_c = p.in_c;
  s.out_c = p.out_c;
  s.kernel = p.kernel;
  s.stride = p.stride;
  s.pad = p.pad;
  s.in_h = p.hw;
  s.in_w = p.hw;
  Rng rng(static_cast<std::uint64_t>(p.in_c * 131 + p.kernel));
  Tensor4 input(p.batch, p.in_c, p.hw, p.hw);
  fill_random(input, rng);
  const Matrixf filters = random_filters(s, rng);
  const Tensor4 direct = conv_forward_direct(s, input, filters);
  const Tensor4 gemm = conv_forward_gemm(s, input, filters);
  ASSERT_TRUE(direct.same_shape(gemm));
  EXPECT_LT(max_abs_diff(direct, gemm), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvGemmEquivalence,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 4, 1},
                      ConvCase{3, 8, 3, 1, 1, 8, 1},
                      ConvCase{4, 6, 5, 1, 2, 9, 2},
                      ConvCase{2, 4, 3, 2, 1, 12, 1},
                      ConvCase{8, 16, 1, 1, 0, 7, 3},
                      ConvCase{3, 2, 7, 2, 3, 16, 1}));

// -------------------------------------------------------------- pool/relu --

TEST(Relu, ClampsNegatives) {
  Tensor4 t(1, 1, 1, 3);
  t.flat()[0] = -1.0f;
  t.flat()[1] = 0.0f;
  t.flat()[2] = 2.0f;
  relu_inplace(t);
  EXPECT_EQ(t.flat()[0], 0.0f);
  EXPECT_EQ(t.flat()[1], 0.0f);
  EXPECT_EQ(t.flat()[2], 2.0f);
}

TEST(MaxPool, WindowMaximum) {
  Tensor4 t(1, 1, 2, 2);
  t.flat()[0] = 1;
  t.flat()[1] = 5;
  t.flat()[2] = 3;
  t.flat()[3] = 2;
  const Tensor4 out = max_pool(t, 2, 2, 0);
  EXPECT_EQ(out.h(), 1);
  EXPECT_EQ(out.w(), 1);
  EXPECT_EQ(out.at(0, 0, 0, 0), 5.0f);
}

TEST(MaxPool, SamePaddingKeepsSize) {
  Tensor4 t(1, 2, 7, 7);
  Rng rng(3);
  fill_random(t, rng);
  const Tensor4 out = max_pool(t, 3, 1, 1);
  EXPECT_EQ(out.h(), 7);
  EXPECT_EQ(out.w(), 7);
  // Pooling can only keep or increase each value vs. the centre tap.
  for (int y = 0; y < 7; ++y)
    for (int x = 0; x < 7; ++x)
      EXPECT_GE(out.at(0, 1, y, x), t.at(0, 1, y, x));
}

TEST(AvgPool, WindowMean) {
  Tensor4 t(1, 1, 2, 2);
  t.flat()[0] = 1;
  t.flat()[1] = 5;
  t.flat()[2] = 3;
  t.flat()[3] = 3;
  const Tensor4 out = avg_pool(t, 2, 2, 0);
  EXPECT_EQ(out.h(), 1);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 3.0f);
}

TEST(AvgPool, ExclusivePaddingCounting) {
  // With padding, the corner window covers only one in-image tap: the mean
  // divides by 1, not the window area.
  Tensor4 t(1, 1, 2, 2);
  t.flat()[0] = 8;
  const Tensor4 out = avg_pool(t, 3, 2, 1);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), (8.0f + 0 + 0 + 0) / 4.0f);
}

TEST(AvgPool, GlobalPoolReducesToOnePixel) {
  Tensor4 t(1, 2, 7, 7);
  Rng rng(9);
  fill_random(t, rng);
  const Tensor4 out = avg_pool(t, 7, 1, 0);
  EXPECT_EQ(out.h(), 1);
  EXPECT_EQ(out.w(), 1);
  float sum = 0;
  for (int y = 0; y < 7; ++y)
    for (int x = 0; x < 7; ++x) sum += t.at(0, 1, y, x);
  EXPECT_NEAR(out.at(0, 1, 0, 0), sum / 49.0f, 1e-5f);
}

TEST(AddBias, PerChannel) {
  Tensor4 t(1, 2, 2, 2);
  const std::vector<float> bias = {1.0f, -2.0f};
  add_bias_inplace(t, bias);
  EXPECT_FLOAT_EQ(t.at(0, 0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(t.at(0, 1, 0, 0), -2.0f);
}

TEST(AddBias, SizeMismatchThrows) {
  Tensor4 t(1, 3, 1, 1);
  const std::vector<float> bias = {1.0f};
  EXPECT_THROW(add_bias_inplace(t, bias), CheckError);
}

TEST(ConcatChannels, StacksInOrder) {
  Tensor4 a(1, 1, 2, 2), b(1, 2, 2, 2);
  a.flat()[0] = 1.0f;
  b.flat()[0] = 2.0f;
  const std::array<const Tensor4*, 2> parts = {&a, &b};
  const Tensor4 out = concat_channels(parts);
  EXPECT_EQ(out.c(), 3);
  EXPECT_EQ(out.at(0, 0, 0, 0), 1.0f);
  EXPECT_EQ(out.at(0, 1, 0, 0), 2.0f);
}

TEST(ConcatChannels, MismatchedSpatialThrows) {
  Tensor4 a(1, 1, 2, 2), b(1, 1, 3, 3);
  const std::array<const Tensor4*, 2> parts = {&a, &b};
  EXPECT_THROW(concat_channels(parts), CheckError);
}

}  // namespace
}  // namespace ctb
