#include "dnn/conv.hpp"

#include <algorithm>
#include <limits>

#include "dnn/im2col.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace ctb {

void check_conv_shape(const ConvShape& s) {
  CTB_CHECK_MSG(s.in_c >= 1 && s.out_c >= 1 && s.lowering().valid(),
                "degenerate conv shape '"
                    << s.name << "': " << s.in_c << "x" << s.in_h << "x"
                    << s.in_w << " input, " << s.out_c << " filters of "
                    << s.kernel << "x" << s.kernel << ", stride " << s.stride
                    << ", pad " << s.pad);
}

Matrixf random_filters(const ConvShape& s, Rng& rng) {
  Matrixf f(static_cast<std::size_t>(s.out_c),
            static_cast<std::size_t>(s.in_c * s.kernel * s.kernel));
  fill_random(f, rng, -0.5f, 0.5f);
  return f;
}

Tensor4 conv_forward_direct(const ConvShape& s, const Tensor4& input,
                            const Matrixf& filters) {
  check_conv_shape(s);
  CTB_CHECK(static_cast<int>(filters.rows()) == s.out_c);
  CTB_CHECK(static_cast<int>(filters.cols()) ==
            s.in_c * s.kernel * s.kernel);
  const int oh = s.out_h();
  const int ow = s.out_w();
  Tensor4 out(input.n(), s.out_c, oh, ow);
  // Each (n, oc) output plane is independent of all others.
  parallel_for(static_cast<long long>(input.n()) * s.out_c,
               [&](long long plane) {
    const int n = static_cast<int>(plane / s.out_c);
    const int oc = static_cast<int>(plane % s.out_c);
    {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = 0.0f;
          for (int c = 0; c < s.in_c; ++c) {
            for (int kh = 0; kh < s.kernel; ++kh) {
              const int iy = y * s.stride - s.pad + kh;
              if (iy < 0 || iy >= s.in_h) continue;
              for (int kw = 0; kw < s.kernel; ++kw) {
                const int ix = x * s.stride - s.pad + kw;
                if (ix < 0 || ix >= s.in_w) continue;
                const std::size_t fcol = static_cast<std::size_t>(
                    (c * s.kernel + kh) * s.kernel + kw);
                acc += filters(static_cast<std::size_t>(oc), fcol) *
                       input.at(n, c, iy, ix);
              }
            }
          }
          out.at(n, oc, y, x) = acc;
        }
      }
    }
  });
  return out;
}

Tensor4 conv_forward_gemm(const ConvShape& s, const Tensor4& input,
                          const Matrixf& filters) {
  const Matrixf cols = im2col(s, input);
  const GemmDims d = s.gemm_dims(input.n());
  Matrixf out(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  gemm_blocked(filters, cols, out, 1.0f, 0.0f);
  return col2im_output(s, input.n(), out);
}

void relu_inplace(Tensor4& t) {
  // Same elementwise definition as the fused kRelu epilogue (maps -0.0 and
  // NaN to +0.0), so an unfused GEMM + relu_inplace pass is bitwise
  // identical to the fused tile-store path. One extra read-modify-write
  // sweep over C — the pass the fused dispatch eliminates.
  CTB_TEL_COUNT("exec.c.passes", 1);
  for (float& x : t.flat()) x = x > 0.0f ? x : 0.0f;
}

Tensor4 max_pool(const Tensor4& input, int window, int stride, int pad) {
  CTB_CHECK(window >= 1 && stride >= 1 && pad >= 0);
  const int oh = (input.h() + 2 * pad - window) / stride + 1;
  const int ow = (input.w() + 2 * pad - window) / stride + 1;
  CTB_CHECK(oh > 0 && ow > 0);
  Tensor4 out(input.n(), input.c(), oh, ow);
  parallel_for(static_cast<long long>(input.n()) * input.c(),
               [&](long long plane) {
    const int n = static_cast<int>(plane / input.c());
    const int c = static_cast<int>(plane % input.c());
    {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float best = -std::numeric_limits<float>::infinity();
          for (int kh = 0; kh < window; ++kh) {
            const int iy = y * stride - pad + kh;
            if (iy < 0 || iy >= input.h()) continue;
            for (int kw = 0; kw < window; ++kw) {
              const int ix = x * stride - pad + kw;
              if (ix < 0 || ix >= input.w()) continue;
              best = std::max(best, input.at(n, c, iy, ix));
            }
          }
          out.at(n, c, y, x) = best;
        }
      }
    }
  });
  return out;
}

void add_bias_inplace(Tensor4& t, std::span<const float> bias) {
  CTB_CHECK_MSG(static_cast<int>(bias.size()) == t.c(),
                "bias size must equal channel count");
  CTB_TEL_COUNT("exec.c.passes", 1);
  for (int n = 0; n < t.n(); ++n)
    for (int c = 0; c < t.c(); ++c)
      for (int y = 0; y < t.h(); ++y)
        for (int x = 0; x < t.w(); ++x)
          t.at(n, c, y, x) += bias[static_cast<std::size_t>(c)];
}

Tensor4 avg_pool(const Tensor4& input, int window, int stride, int pad) {
  CTB_CHECK(window >= 1 && stride >= 1 && pad >= 0);
  const int oh = (input.h() + 2 * pad - window) / stride + 1;
  const int ow = (input.w() + 2 * pad - window) / stride + 1;
  CTB_CHECK(oh > 0 && ow > 0);
  Tensor4 out(input.n(), input.c(), oh, ow);
  parallel_for(static_cast<long long>(input.n()) * input.c(),
               [&](long long plane) {
    const int n = static_cast<int>(plane / input.c());
    const int c = static_cast<int>(plane % input.c());
    {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float sum = 0.0f;
          int count = 0;
          for (int kh = 0; kh < window; ++kh) {
            const int iy = y * stride - pad + kh;
            if (iy < 0 || iy >= input.h()) continue;
            for (int kw = 0; kw < window; ++kw) {
              const int ix = x * stride - pad + kw;
              if (ix < 0 || ix >= input.w()) continue;
              sum += input.at(n, c, iy, ix);
              ++count;
            }
          }
          out.at(n, c, y, x) = count > 0 ? sum / static_cast<float>(count)
                                         : 0.0f;
        }
      }
    }
  });
  return out;
}

Tensor4 concat_channels(std::span<const Tensor4* const> parts) {
  CTB_CHECK(!parts.empty());
  const Tensor4& first = *parts.front();
  int total_c = 0;
  for (const Tensor4* p : parts) {
    CTB_CHECK(p != nullptr);
    CTB_CHECK_MSG(p->n() == first.n() && p->h() == first.h() &&
                      p->w() == first.w(),
                  "concat parts must share N, H, W");
    total_c += p->c();
  }
  Tensor4 out(first.n(), total_c, first.h(), first.w());
  int c_base = 0;
  for (const Tensor4* p : parts) {
    for (int n = 0; n < p->n(); ++n)
      for (int c = 0; c < p->c(); ++c)
        for (int y = 0; y < p->h(); ++y)
          for (int x = 0; x < p->w(); ++x)
            out.at(n, c_base + c, y, x) = p->at(n, c, y, x);
    c_base += p->c();
  }
  return out;
}

}  // namespace ctb
