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
  // lowering defines, so only the in-image spans are written. conv_b_rows
  // walks each filter tap's span once for all the rows of a call that share
  // the tap (one per channel), so each task lowers a block of consecutive
  // rows in one call: at least a few blocks per worker, and at most
  // kBlockBytes of column matrix per block, so the rows a tap's walk writes
  // stay in cache (inception3a's 3x3 read 2% slower than per-row calls with
  // 216-row blocks, 5% faster with 20-row ones). Blocks may start
  // mid-channel, so a conv with fewer channels than blocks (conv1's 3)
  // still spreads over every worker.
  Matrixf m(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
  constexpr int kBlocksPerWorker = 4;
  constexpr std::size_t kBlockBytes = std::size_t{64} << 10;
  const int block_rows = static_cast<int>(std::max<std::size_t>(
      1, kBlockBytes / (static_cast<std::size_t>(d.n) * sizeof(float))));
  const int blocks =
      std::max(std::min(d.k, kBlocksPerWorker * parallel_max_threads()),
               (d.k + block_rows - 1) / block_rows);
  parallel_for(blocks, [&](long long b) {
    const int r0 = static_cast<int>(d.k * b / blocks);
    const int r1 = static_cast<int>(d.k * (b + 1) / blocks);
    conv_b_rows(l, input.flat().data(), d.k, r0, r1 - r0, 0, d.n,
                m.data() + static_cast<std::size_t>(r0) * d.n, d.n);
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
