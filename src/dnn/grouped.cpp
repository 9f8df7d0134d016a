#include "dnn/grouped.hpp"

#include "core/epilogue.hpp"
#include "dnn/im2col.hpp"
#include "dnn/implicit_gemm.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ctb {

std::vector<Tensor4> grouped_conv_forward(std::span<const GroupedConv> convs,
                                          const PlannerConfig& config) {
  CTB_CHECK_MSG(!convs.empty(), "empty grouped dispatch");
  const std::size_t n = convs.size();
  std::vector<Matrixf> outs(n);
  std::vector<GemmOperands> ops(n);
  std::vector<GemmDims> dims(n);
  long long fused_ops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GroupedConv& gc = convs[i];
    CTB_CHECK_MSG(gc.shape != nullptr && gc.input != nullptr &&
                      gc.filters != nullptr,
                  "grouped conv " << i << " has a null member");
    check_conv_shape(*gc.shape);
    dims[i] = gc.shape->gemm_dims(gc.input->n());
    outs[i] = Matrixf(static_cast<std::size_t>(dims[i].m),
                      static_cast<std::size_t>(dims[i].n));
    GemmOperands& g = ops[i];
    g = implicit_conv_operands(*gc.shape, *gc.input, *gc.filters, outs[i]);
    g.precision = config.precision;
    if (!gc.bias.empty()) {
      // GEMM rows are output channels (M = out_c), so the per-channel bias
      // is exactly the epilogue's per-row bias vector.
      CTB_CHECK_MSG(static_cast<int>(gc.bias.size()) == gc.shape->out_c,
                    "grouped conv " << i << " bias holds " << gc.bias.size()
                                    << " values for " << gc.shape->out_c
                                    << " output channels");
      g.epilogue = epilogue_push(g.epilogue, EpilogueOp::kBias);
      g.epilogue_args.bias = gc.bias.data();
      g.epilogue_args.bias_len = static_cast<int>(gc.bias.size());
    }
    if (gc.relu) g.epilogue = epilogue_push(g.epilogue, EpilogueOp::kRelu);
    fused_ops += epilogue_num_ops(g.epilogue);
  }
  CTB_TEL_COUNT("plan.grouped.dispatches", 1);
  CTB_TEL_COUNT("plan.grouped.gemms", static_cast<std::int64_t>(n));
  CTB_TEL_COUNT("plan.grouped.fused_ops", fused_ops);
  // Convs that lower one input with one geometry read one B: their panel
  // keys are equal, so the executor packs that B once for all of them.
  const PlanSummary summary = BatchedGemmPlanner(config).plan(dims);
  execute_plan(summary.plan, ops, 1.0f, 0.0f);

  std::vector<Tensor4> tensors;
  tensors.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    tensors.push_back(
        col2im_output(*convs[i].shape, convs[i].input->n(), outs[i]));
  return tensors;
}

}  // namespace ctb
