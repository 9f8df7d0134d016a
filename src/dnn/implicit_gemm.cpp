#include "dnn/implicit_gemm.hpp"

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
  g.b = input.flat().data();
  g.c = out.data();
  g.lowering = shape.lowering();
  return g;
}

double im2col_materialization_us(const GpuArch& arch, const ConvShape& shape,
                                 int batch) {
  const GemmDims d = shape.gemm_dims(batch);
  // Write the K x N column matrix once and read it back once during the
  // GEMM; the write is the part the implicit path avoids (the read becomes
  // the kernel's loads from the input tensor). Charge the write at DRAM
  // bandwidth plus a kernel launch.
  const double bytes = static_cast<double>(d.k) * d.n * 4.0;
  return arch.kernel_launch_us + bytes / (arch.dram_bw_gbps * 1e3);
}

}  // namespace ctb
