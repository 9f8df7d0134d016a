#include "dnn/im2col.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace ctb {

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

}  // namespace

Matrixf im2col(const ConvShape& s, const Tensor4& input) {
  check_conv_shape(s);
  CTB_CHECK_MSG(input.c() == s.in_c && input.h() == s.in_h &&
                    input.w() == s.in_w,
                "input tensor does not match conv shape " << s.name);
  const int oh = s.out_h();
  const int ow = s.out_w();
  const int rows = s.in_c * s.kernel * s.kernel;
  const int cols = oh * ow * input.n();
  // Value-initialized: every out-of-image tap already holds the +0.0f the
  // lowering defines, so only the in-image spans below are written.
  Matrixf m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  const std::size_t plane = static_cast<std::size_t>(s.in_h) * s.in_w;

  // Each (c, kh, kw) filter tap fills exactly one output row, so the rows
  // parallelize without overlap.
  parallel_for(rows, [&](long long r) {
    const int row = static_cast<int>(r);
    const int kw = row % s.kernel;
    const int kh = (row / s.kernel) % s.kernel;
    const int c = row / (s.kernel * s.kernel);
    // Output columns x in [x0, x1) read in-image input columns
    // ix = x * stride - pad + kw; the columns outside are padding.
    const int x0 = kw >= s.pad ? 0 : ceil_div(s.pad - kw, s.stride);
    const int x1 = std::min(
        ow, ceil_div(std::max(0, s.in_w + s.pad - kw), s.stride));
    if (x1 <= x0) return;  // the tap misses the image in every column
    const int ix0 = x0 * s.stride - s.pad + kw;
    float* dst = m.data() + static_cast<std::size_t>(row) * cols;
    for (int n = 0; n < input.n(); ++n) {
      const float* src = input.flat().data() +
                         (static_cast<std::size_t>(n) * s.in_c + c) * plane;
      for (int y = 0; y < oh; ++y, dst += ow) {
        const int iy = y * s.stride - s.pad + kh;
        if (iy < 0 || iy >= s.in_h) continue;
        const float* in = src + static_cast<std::size_t>(iy) * s.in_w + ix0;
        if (s.stride == 1) {
          std::copy_n(in, x1 - x0, dst + x0);
        } else {
          for (int x = x0; x < x1; ++x) dst[x] = in[(x - x0) * s.stride];
        }
      }
    }
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
