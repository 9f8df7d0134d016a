// Grouped fused convolution dispatch: several implicit-GEMM convolutions
// — typically one dependency stage of an inception or fire block, or a
// conv+bias+activation layer — executed as ONE planned batched-GEMM kernel
// with the per-layer epilogues (bias add, ReLU) fused into the tile store.
//
// This is the dnn-side consumer of the framework's fused epilogues
// (core/epilogue.hpp): instead of GEMM -> col2im -> bias pass -> relu pass
// (three full sweeps over each output), the grouped dispatch runs one GEMM
// whose stores apply the chain, then a single col2im reshape. No column
// matrix is written: each conv's B is its input under its lowering
// (dnn/implicit_gemm.hpp), packed straight from the tensor. Results are
// bitwise identical to the unfused im2col sequence (the packer copies
// im2col's own values, and the epilogue chain uses the same elementwise
// definitions as add_bias_inplace / relu_inplace), and exec.c.passes
// telemetry makes the eliminated sweeps measurable.
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

/// Builds every conv's implicit-GEMM operands, with their epilogues, at
/// `config.precision`, plans the group, executes it as one batched GEMM, and
/// reshapes each output back to NCHW. Convs over one input tensor with one
/// geometry (extents, kernel, stride, pad) read one B, which the executor
/// packs once. Counts the dispatch under plan.grouped.* telemetry.
std::vector<Tensor4> grouped_conv_forward(std::span<const GroupedConv> convs,
                                          const PlannerConfig& config = {});

}  // namespace ctb
