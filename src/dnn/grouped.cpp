#include "dnn/grouped.hpp"

#include "core/epilogue.hpp"
#include "dnn/im2col.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ctb {

namespace {

/// Whether two convs unroll the same tensor into the same column matrix.
bool same_lowering(const GroupedConv& a, const GroupedConv& b) {
  const ConvShape& x = *a.shape;
  const ConvShape& y = *b.shape;
  return a.input == b.input && x.in_c == y.in_c && x.in_h == y.in_h &&
         x.in_w == y.in_w && x.kernel == y.kernel && x.stride == y.stride &&
         x.pad == y.pad;
}

}  // namespace

std::vector<Tensor4> grouped_conv_forward(std::span<const GroupedConv> convs,
                                          const PlannerConfig& config) {
  CTB_CHECK_MSG(!convs.empty(), "empty grouped dispatch");
  const std::size_t n = convs.size();
  std::vector<Matrixf> cols(n);  // empty where an earlier lowering is reused
  std::vector<Matrixf> outs(n);
  std::vector<GemmEntry> entries(n);
  long long fused_ops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GroupedConv& gc = convs[i];
    CTB_CHECK_MSG(gc.shape != nullptr && gc.input != nullptr &&
                      gc.filters != nullptr,
                  "grouped conv " << i << " has a null member");
    // Convs that unroll one input the same way read one lowering, so their
    // GEMMs share a B operand and the executor packs its panels once.
    // The first match is always the conv that lowered.
    std::size_t src = 0;
    while (src < i && !same_lowering(convs[src], gc)) ++src;
    if (src == i) cols[i] = im2col(*gc.shape, *gc.input);
    const GemmDims d = gc.shape->gemm_dims(gc.input->n());
    outs[i] = Matrixf(static_cast<std::size_t>(d.m),
                      static_cast<std::size_t>(d.n));
    GemmEntry& e = entries[i];
    e.a = gc.filters;
    e.b = &cols[src];
    e.c = &outs[i];
    if (!gc.bias.empty()) {
      // GEMM rows are output channels (M = out_c), so the per-channel bias
      // is exactly the epilogue's per-row bias vector.
      CTB_CHECK_MSG(static_cast<int>(gc.bias.size()) == gc.shape->out_c,
                    "grouped conv " << i << " bias holds " << gc.bias.size()
                                    << " values for " << gc.shape->out_c
                                    << " output channels");
      e.epilogue = epilogue_push(e.epilogue, EpilogueOp::kBias);
      e.epilogue_args.bias = gc.bias.data();
      e.epilogue_args.bias_len = static_cast<int>(gc.bias.size());
    }
    if (gc.relu) e.epilogue = epilogue_push(e.epilogue, EpilogueOp::kRelu);
    fused_ops += epilogue_num_ops(e.epilogue);
  }
  CTB_TEL_COUNT("plan.grouped.dispatches", 1);
  CTB_TEL_COUNT("plan.grouped.gemms", static_cast<std::int64_t>(n));
  CTB_TEL_COUNT("plan.grouped.fused_ops", fused_ops);
  batched_gemm(entries, 1.0f, 0.0f, config);

  std::vector<Tensor4> tensors;
  tensors.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    tensors.push_back(
        col2im_output(*convs[i].shape, convs[i].input->n(), outs[i]));
  return tensors;
}

}  // namespace ctb
