#include "dnn/im2col.hpp"

#include <algorithm>

#include "kernels/packing.hpp"
#include "util/parallel.hpp"

namespace ctb {

Matrixf im2col(const ConvShape& s, const Tensor4& input) {
  check_conv_shape(s);
  CTB_CHECK_MSG(input.c() == s.in_c && input.h() == s.in_h &&
                    input.w() == s.in_w,
                "input tensor does not match conv shape " << s.name);
  const GemmDims d = s.gemm_dims(input.n());
  const ConvLowering l = s.lowering();
  // Value-initialized: every out-of-image tap already holds the +0.0f the
  // lowering defines, so only the in-image spans are written. Each
  // (c, kh, kw) filter tap fills exactly one row, so the rows parallelize
  // without overlap.
  Matrixf m(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
  parallel_for(d.k, [&](long long r) {
    const int row = static_cast<int>(r);
    conv_b_rows(l, input.flat().data(), d.k, row, 1, 0, d.n,
                m.data() + static_cast<std::size_t>(row) * d.n, d.n);
  });
  return m;
}

Tensor4 col2im_output(const ConvShape& s, int batch, const Matrixf& out) {
  check_conv_shape(s);
  const int oh = s.out_h();
  const int ow = s.out_w();
  CTB_CHECK(static_cast<int>(out.rows()) == s.out_c);
  CTB_CHECK(static_cast<int>(out.cols()) == oh * ow * batch);
  Tensor4 t(batch, s.out_c, oh, ow);
  const std::size_t plane = static_cast<std::size_t>(oh) * ow;
  // Column block n of GEMM row c is the (n, c) output plane in the same
  // (oh, ow) order, so each plane is one contiguous copy into a disjoint
  // part of the tensor.
  parallel_for(static_cast<long long>(batch) * s.out_c, [&](long long nc) {
    const std::size_t n = static_cast<std::size_t>(nc / s.out_c);
    const std::size_t c = static_cast<std::size_t>(nc % s.out_c);
    std::copy_n(out.data() + c * out.cols() + n * plane, plane,
                t.flat().data() + static_cast<std::size_t>(nc) * plane);
  });
  return t;
}

}  // namespace ctb
