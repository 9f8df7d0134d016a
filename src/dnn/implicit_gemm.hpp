// Implicit-GEMM convolution (paper Section 7.3: "The other algorithm to
// compute convolution is implicit GEMM, which can also be batched using our
// proposed framework").
//
// The convolution is executed as the same M x N x K GEMM as the im2col
// lowering, but the B matrix is never materialized: B is the input tensor
// under a ConvLowering (kernels/functional.hpp), and the micro-panel packer
// copies B straight from the input rows with im2col's own routine,
// conv_b_rows. This saves the im2col materialization pass — one full write
// + read of the K x N column matrix — and B operands over one input with one
// geometry share a panel set like any other operand. Batches of convs run
// through grouped_conv_forward (dnn/grouped.hpp).
#pragma once

#include "core/api.hpp"
#include "dnn/conv.hpp"
#include "dnn/tensor.hpp"

namespace ctb {

/// Builds the implicit-GEMM operand for one convolution: A = filters,
/// B = `input` under the shape's lowering (im2col's index mapping), C =
/// `out`. `input`, `filters` and `out` must outlive the returned operand.
GemmOperands implicit_conv_operands(const ConvShape& shape,
                                    const Tensor4& input,
                                    const Matrixf& filters, Matrixf& out);

/// Single implicit-GEMM convolution (functional); numerically identical to
/// conv_forward_gemm for the same tiling strategy.
Tensor4 conv_forward_implicit(const ConvShape& shape, const Tensor4& input,
                              const Matrixf& filters);

/// Modeled cost of materializing the im2col matrix for one conv (the pass
/// implicit GEMM avoids): writing and re-reading K x N floats through DRAM.
double im2col_materialization_us(const GpuArch& arch, const ConvShape& shape,
                                 int batch);

}  // namespace ctb
