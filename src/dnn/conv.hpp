// Convolution shapes and reference implementations.
//
// The paper lowers convolution to GEMM (im2col): for a conv with C_out
// filters of size C_in x kh x kw over an H x W feature map,
//   M = C_out, K = C_in * kh * kw, N = out_h * out_w * batch.
// This module provides the shape algebra, a direct (naive) convolution as
// the correctness oracle, and the im2col + GEMM path the framework batches.
#pragma once

#include <span>
#include <string>

#include "dnn/tensor.hpp"
#include "kernels/functional.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {

struct ConvShape {
  std::string name;
  int in_c = 1;
  int out_c = 1;
  int kernel = 1;  ///< square kernels only (all GoogleNet convs are square).
  int stride = 1;
  int pad = 0;
  int in_h = 1;
  int in_w = 1;

  /// The geometry implicit GEMM reads this conv's input with.
  ConvLowering lowering() const { return {in_h, in_w, kernel, stride, pad}; }
  int out_h() const { return lowering().out_h(); }
  int out_w() const { return lowering().out_w(); }

  /// GEMM dimensions of the im2col-lowered convolution for `batch` images.
  GemmDims gemm_dims(int batch = 1) const {
    GemmDims d;
    d.m = out_c;
    d.n = out_h() * out_w() * batch;
    d.k = in_c * kernel * kernel;
    return d;
  }

  long long flops(int batch = 1) const { return gemm_dims(batch).flops(); }
};

/// Rejects a shape no convolution can run: channel counts below 1, or a
/// geometry ConvLowering::valid rejects. The message names the shape.
/// Every lowering and conv entry point calls it before allocating.
void check_conv_shape(const ConvShape& shape);

/// Filter matrix layout for the GEMM path: out_c x (in_c * k * k), row
/// per filter, columns in (c, kh, kw) order — matching im2col's row order.
Matrixf random_filters(const ConvShape& shape, Rng& rng);

/// Direct convolution (correctness oracle). `filters` must be the GEMM
/// layout above. Returns an (N, out_c, out_h, out_w) tensor.
Tensor4 conv_forward_direct(const ConvShape& shape, const Tensor4& input,
                            const Matrixf& filters);

/// im2col + GEMM convolution; bit-comparable to what the batched framework
/// computes for the same GEMM.
Tensor4 conv_forward_gemm(const ConvShape& shape, const Tensor4& input,
                          const Matrixf& filters);

/// In-place ReLU.
void relu_inplace(Tensor4& t);

/// Adds a per-output-channel bias in place.
void add_bias_inplace(Tensor4& t, std::span<const float> bias);

/// 2D max pooling with square window.
Tensor4 max_pool(const Tensor4& input, int window, int stride, int pad);

/// 2D average pooling with square window (out-of-image taps excluded from
/// the mean, cuDNN's "exclusive" counting).
Tensor4 avg_pool(const Tensor4& input, int window, int stride, int pad);

/// Channel-axis concatenation of same-(n,h,w) tensors.
Tensor4 concat_channels(std::span<const Tensor4* const> parts);

}  // namespace ctb
