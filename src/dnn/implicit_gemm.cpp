#include "dnn/implicit_gemm.hpp"

#include "core/tiling_engine.hpp"
#include "dnn/im2col.hpp"
#include "util/assert.hpp"

namespace ctb {

GemmOperands implicit_conv_operands(const ConvShape& shape,
                                    const Tensor4& input,
                                    const Matrixf& filters, Matrixf& out) {
  check_conv_shape(shape);
  CTB_CHECK_MSG(input.c() == shape.in_c && input.h() == shape.in_h &&
                    input.w() == shape.in_w,
                "input tensor does not match conv shape " << shape.name);
  const GemmDims d = shape.gemm_dims(input.n());
  CTB_CHECK(static_cast<int>(filters.rows()) == d.m);
  CTB_CHECK(static_cast<int>(filters.cols()) == d.k);
  CTB_CHECK(static_cast<int>(out.rows()) == d.m);
  CTB_CHECK(static_cast<int>(out.cols()) == d.n);

  GemmOperands g;
  g.dims = d;
  g.a = filters.data();
  g.c = out.data();
  // The implicit B(k, j): decode k into (channel, kh, kw) and j into
  // (image, oh, ow) with the same ordering as im2col, then read the input
  // (or zero for padding taps). The executors call this gather concurrently
  // from many host threads, so it must stay a pure read: the shape is
  // captured by value and the input tensor by pointer-to-const, and the
  // lambda body only reads through them.
  const ConvShape s = shape;  // capture by value: plain shape data
  const Tensor4* const in = &input;
  const int oh = s.out_h();
  const int ow = s.out_w();
  g.b_gather = [s, in, oh, ow](int k, int j) -> float {
    const int kw = k % s.kernel;
    const int kh = (k / s.kernel) % s.kernel;
    const int c = k / (s.kernel * s.kernel);
    const int x = j % ow;
    const int y = (j / ow) % oh;
    const int n = j / (ow * oh);
    const int iy = y * s.stride - s.pad + kh;
    const int ix = x * s.stride - s.pad + kw;
    if (iy < 0 || iy >= s.in_h || ix < 0 || ix >= s.in_w) return 0.0f;
    return in->at(n, c, iy, ix);
  };
  return g;
}

Tensor4 conv_forward_implicit(const ConvShape& shape, const Tensor4& input,
                              const Matrixf& filters) {
  check_conv_shape(shape);
  const GemmDims d = shape.gemm_dims(input.n());
  Matrixf out(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  const GemmOperands g = implicit_conv_operands(shape, input, filters, out);
  // Use the same strategy the tiling engine would choose for this GEMM
  // alone, so results are comparable with the explicit path.
  const TilingResult tiling =
      select_tiling(std::span<const GemmDims>(&d, 1), TilingConfig{});
  run_single_gemm(*tiling.per_gemm[0], g, 1.0f, 0.0f);
  return col2im_output(shape, input.n(), out);
}

std::vector<Tensor4> conv_batch_implicit(
    const std::vector<const ConvShape*>& shapes,
    const std::vector<const Tensor4*>& inputs,
    const std::vector<const Matrixf*>& filters,
    const PlannerConfig& config) {
  CTB_CHECK(shapes.size() == inputs.size() &&
            inputs.size() == filters.size());
  CTB_CHECK(!shapes.empty());

  std::vector<GemmDims> dims(shapes.size());
  std::vector<Matrixf> outs(shapes.size());
  std::vector<GemmOperands> ops(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    check_conv_shape(*shapes[i]);
    dims[i] = shapes[i]->gemm_dims(inputs[i]->n());
    outs[i] = Matrixf(static_cast<std::size_t>(dims[i].m),
                      static_cast<std::size_t>(dims[i].n));
    ops[i] = implicit_conv_operands(*shapes[i], *inputs[i], *filters[i],
                                    outs[i]);
  }

  const BatchedGemmPlanner planner(config);
  const PlanSummary summary = planner.plan(dims);
  validate_plan(summary.plan, dims);
  execute_plan(summary.plan, ops, 1.0f, 0.0f);

  std::vector<Tensor4> tensors;
  tensors.reserve(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i)
    tensors.push_back(col2im_output(*shapes[i], inputs[i]->n(), outs[i]));
  return tensors;
}

double im2col_materialization_us(const GpuArch& arch, const ConvShape& shape,
                                 int batch) {
  const GemmDims d = shape.gemm_dims(batch);
  // Write the K x N column matrix once and read it back once during the
  // GEMM; the write is the part the implicit path avoids (the read becomes
  // the gather). Charge the write at DRAM bandwidth plus a kernel launch.
  const double bytes = static_cast<double>(d.k) * d.n * 4.0;
  return arch.kernel_launch_us + bytes / (arch.dram_bw_gbps * 1e3);
}

}  // namespace ctb
