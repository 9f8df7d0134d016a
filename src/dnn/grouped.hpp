// Grouped fused convolution dispatch: several im2col-lowered convolutions
// — typically one dependency stage of an inception or fire block, or a
// conv+bias+activation layer — executed as ONE planned batched-GEMM kernel
// with the per-layer epilogues (bias add, ReLU) fused into the tile store.
//
// This is the dnn-side consumer of the framework's epilogue aux array
// (core/epilogue.hpp): instead of GEMM -> col2im -> bias pass -> relu pass
// (three full sweeps over each output), the grouped dispatch runs one GEMM
// whose stores apply the chain, then a single col2im reshape. Results are
// bitwise identical to the unfused sequence (the epilogue chain uses the
// same elementwise definitions as add_bias_inplace / relu_inplace), and
// exec.c.passes telemetry makes the eliminated sweeps measurable.
#pragma once

#include <span>
#include <vector>

#include "core/api.hpp"
#include "dnn/conv.hpp"
#include "dnn/tensor.hpp"

namespace ctb {

/// One convolution of a grouped dispatch. The referenced shape, input,
/// filters, and bias must outlive the grouped_conv_forward call.
struct GroupedConv {
  const ConvShape* shape = nullptr;
  const Tensor4* input = nullptr;
  const Matrixf* filters = nullptr;
  /// Per-output-channel bias, fused as a kBias epilogue; empty = no bias.
  /// Size must equal shape->out_c.
  std::span<const float> bias;
  /// Fuse a kRelu epilogue after the (optional) bias add.
  bool relu = false;
};

/// Lowers every conv via im2col, executes the whole group as one batched
/// GEMM with fused epilogues, and reshapes each output back to NCHW. Convs
/// with the same input pointer, input extents, kernel, stride and pad share
/// one lowering (their GEMMs read one B). Counts the dispatch under
/// plan.grouped.* telemetry.
std::vector<Tensor4> grouped_conv_forward(std::span<const GroupedConv> convs,
                                          const PlannerConfig& config = {});

}  // namespace ctb
