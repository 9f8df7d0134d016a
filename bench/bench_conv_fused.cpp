// Fused conv+bias+activation dispatch vs the unfused pipeline (Fig.-10
// companion for the fused epilogues).
//
// Per layer group (GoogleNet inception-3a stage 1 and the SqueezeNet fire
// expand fans), the same convolutions run twice over identical inputs:
//   unfused — batched GEMM, col2im, then a bias pass and a ReLU pass over
//             every output tensor (three full sweeps over C per conv);
//   fused   — one grouped dispatch with bias+ReLU applied inside the tile
//             store (grouped_conv_forward; a single sweep over C).
// Outputs are verified bitwise identical before any timing is reported, and
// the exec.c.passes counter delta is printed next to the measured wall-clock
// speedup so the C-traffic reduction is visible even when host timing is
// noisy (the 1-core reference container swings by +/-50%).
#include <chrono>
#include <cstring>
#include <iostream>
#include <vector>

#include "dnn/grouped.hpp"
#include "dnn/im2col.hpp"
#include "dnn/googlenet.hpp"
#include "dnn/inference.hpp"
#include "dnn/squeezenet.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ctb;

double now_us() {
  using namespace std::chrono;
  return duration<double, std::micro>(
             steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t counter_value(const telemetry::MetricsSnapshot& snap,
                           const char* name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

struct GroupCase {
  std::string name;
  std::vector<const ConvShape*> shapes;
  std::vector<const Tensor4*> inputs;
  std::vector<const Matrixf*> filters;
  std::vector<std::vector<float>> biases;
};

struct GroupResult {
  double unfused_us = 0.0;
  double fused_us = 0.0;
  std::int64_t unfused_passes = 0;
  std::int64_t fused_passes = 0;
  bool bit_identical = false;
};

/// The unfused pipeline: plain batched GEMM, reshape, then separate bias
/// and ReLU passes — the exact chain the fused dispatch folds away.
std::vector<Tensor4> run_unfused(const GroupCase& g,
                                 const PlannerConfig& config) {
  std::vector<Matrixf> cols(g.shapes.size());
  std::vector<Matrixf> outs(g.shapes.size());
  std::vector<const Matrixf*> a(g.shapes.size());
  std::vector<const Matrixf*> b(g.shapes.size());
  std::vector<Matrixf*> c(g.shapes.size());
  for (std::size_t i = 0; i < g.shapes.size(); ++i) {
    cols[i] = im2col(*g.shapes[i], *g.inputs[i]);
    const GemmDims d = g.shapes[i]->gemm_dims(g.inputs[i]->n());
    outs[i] = Matrixf(static_cast<std::size_t>(d.m),
                      static_cast<std::size_t>(d.n));
    a[i] = g.filters[i];
    b[i] = &cols[i];
    c[i] = &outs[i];
  }
  batched_gemm(a, b, c, 1.0f, 0.0f, config);
  std::vector<Tensor4> tensors;
  tensors.reserve(g.shapes.size());
  for (std::size_t i = 0; i < g.shapes.size(); ++i) {
    tensors.push_back(
        col2im_output(*g.shapes[i], g.inputs[i]->n(), outs[i]));
    add_bias_inplace(tensors.back(), g.biases[i]);
    relu_inplace(tensors.back());
  }
  return tensors;
}

std::vector<Tensor4> run_fused(const GroupCase& g,
                               const PlannerConfig& config) {
  std::vector<GroupedConv> group(g.shapes.size());
  for (std::size_t i = 0; i < g.shapes.size(); ++i) {
    group[i].shape = g.shapes[i];
    group[i].input = g.inputs[i];
    group[i].filters = g.filters[i];
    group[i].bias = g.biases[i];
    group[i].relu = true;
  }
  return grouped_conv_forward(group, config);
}

bool tensors_equal(const std::vector<Tensor4>& x,
                   const std::vector<Tensor4>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto xf = x[i].flat();
    const auto yf = y[i].flat();
    if (xf.size() != yf.size()) return false;
    if (std::memcmp(xf.data(), yf.data(), xf.size() * sizeof(float)) != 0)
      return false;
  }
  return true;
}

GroupResult run_case(const GroupCase& g, const PlannerConfig& config,
                     int repeats) {
  GroupResult r;
  const std::vector<Tensor4> ref = run_unfused(g, config);
  const std::vector<Tensor4> fused_once = run_fused(g, config);
  r.bit_identical = tensors_equal(ref, fused_once);

  std::vector<double> unfused, fused;
  const telemetry::MetricsSnapshot s0 = telemetry::snapshot();
  for (int k = 0; k < repeats; ++k) {
    const double t0 = now_us();
    run_unfused(g, config);
    unfused.push_back(now_us() - t0);
  }
  const telemetry::MetricsSnapshot s1 = telemetry::snapshot();
  for (int k = 0; k < repeats; ++k) {
    const double t0 = now_us();
    run_fused(g, config);
    fused.push_back(now_us() - t0);
  }
  const telemetry::MetricsSnapshot s2 = telemetry::snapshot();
  r.unfused_us = summarize(unfused).median;
  r.fused_us = summarize(fused).median;
  r.unfused_passes = (counter_value(s1, "exec.c.passes") -
                      counter_value(s0, "exec.c.passes")) /
                     repeats;
  r.fused_passes = (counter_value(s2, "exec.c.passes") -
                    counter_value(s1, "exec.c.passes")) /
                   repeats;
  return r;
}

}  // namespace

int main() {
  using namespace ctb;
  telemetry::set_enabled(true);
  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  Rng rng(0xF05EDULL);

  std::cout << "=== Fused conv+bias+ReLU dispatch vs unfused pipeline "
               "(batch=1 image, FP32, host execution) ===\n";

  // Inception 3a stage 1 (the three branch convolutions fed by the module
  // input; pool-proj consumes the pooled map and is excluded) plus the two
  // SqueezeNet expand fans bracketing the network.
  const InceptionModule& inc = googlenet_inception_modules()[0];
  Tensor4 inc_input(1, inc.in_c, inc.hw, inc.hw);
  fill_random(inc_input, rng);
  const InceptionWeights iw = random_inception_weights(inc, rng);

  const auto& fires = squeezenet_fire_modules();
  std::vector<GroupCase> cases;
  {
    GroupCase g;
    g.name = "googlenet/3a/s1";
    g.shapes = {&inc.conv1x1, &inc.reduce3, &inc.reduce5};
    g.inputs = {&inc_input, &inc_input, &inc_input};
    g.filters = {&iw.w1x1, &iw.wr3, &iw.wr5};
    cases.push_back(std::move(g));
  }
  std::vector<Tensor4> fire_inputs;
  std::vector<FireWeights> fire_weights;
  fire_inputs.reserve(2);
  fire_weights.reserve(2);
  for (const FireModule* m : {&fires.front(), &fires.back()}) {
    fire_inputs.emplace_back(1, m->squeeze.out_c, m->hw, m->hw);
    fill_random(fire_inputs.back(), rng);
    fire_weights.push_back(random_fire_weights(*m, rng));
    GroupCase g;
    g.name = "squeezenet/" + m->name + "/expand";
    g.shapes = {&m->expand1x1, &m->expand3x3};
    g.inputs = {&fire_inputs.back(), &fire_inputs.back()};
    g.filters = {&fire_weights.back().expand1, &fire_weights.back().expand3};
    cases.push_back(std::move(g));
  }
  for (GroupCase& g : cases) {
    g.biases.resize(g.shapes.size());
    for (std::size_t i = 0; i < g.shapes.size(); ++i) {
      g.biases[i].resize(static_cast<std::size_t>(g.shapes[i]->out_c));
      for (float& x : g.biases[i])
        x = static_cast<float>(rng.uniform_int(-64, 64)) / 16.0f;
    }
  }

  constexpr int kRepeats = 5;
  TextTable t;
  t.set_header({"layer group", "unfused(us)", "fused(us)", "speedup",
                "C passes", "bitwise"});
  std::vector<double> speedups;
  bool all_identical = true;
  for (const GroupCase& g : cases) {
    const GroupResult r = run_case(g, config, kRepeats);
    all_identical = all_identical && r.bit_identical;
    speedups.push_back(r.unfused_us / r.fused_us);
    t.add_row({g.name, TextTable::fmt(r.unfused_us, 1),
               TextTable::fmt(r.fused_us, 1),
               TextTable::fmt(r.unfused_us / r.fused_us, 2),
               std::to_string(r.unfused_passes) + " -> " +
                   std::to_string(r.fused_passes),
               r.bit_identical ? "identical" : "MISMATCH"});
  }
  t.print(std::cout);
  std::cout << "median speedup: " << to_string(summarize(speedups))
            << "\n(C passes per run: GEMM store + bias pass + ReLU pass "
               "unfused; one fused store otherwise. Outputs compared "
               "bitwise before timing.)\n";
  return all_identical ? 0 : 1;
}
