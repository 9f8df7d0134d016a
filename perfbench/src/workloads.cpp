// The three workloads. Each is a closed loop with one client: the caller
// waits for every result before sending its next request. README.md in this
// directory records why each one exists and which layers it should move.
#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "baselines/baselines.hpp"
#include "bench.hpp"
#include "core/api.hpp"
#include "core/epilogue.hpp"
#include "dnn/googlenet.hpp"
#include "dnn/im2col.hpp"
#include "service/plan_service.hpp"

namespace perfbench {
namespace {

using ctb::GemmDims;
using ctb::GemmOperands;
using ctb::Matrixf;
using ctb::service::PlanService;
using ctb::service::ServedPlan;

constexpr float kAlpha = 1.0f;
constexpr float kBeta = 0.0f;
// Rows of each GEMM recomputed with reference_gemm in the inception checks
// (plus the first and last row); reference_gemm runs at about 1 GFLOP/s.
constexpr int kCheckRows = 6;

std::unique_ptr<PlanService> make_service() {
  ctb::service::PlanServiceConfig config;
  config.deadline_us = 0;  // plan inline: the one client waits for its plan
  return std::make_unique<PlanService>(config);
}

const ctb::GpuArch& sim_arch() { return ctb::gpu_arch(ctb::PlannerConfig{}.gpu); }

void fill(std::vector<float>& v, InputRng& rng) {
  for (float& x : v) x = rng.uniform_float(-1.0f, 1.0f);
}
void fill(Matrixf& m, InputRng& rng) {
  for (float& x : m.flat()) x = rng.uniform_float(-1.0f, 1.0f);
}

double flops_of(std::span<const GemmDims> dims) {
  return static_cast<double>(ctb::batch_flops(dims));
}

ServedPlan serve(PlanService& service, std::span<const GemmDims> dims,
                 std::span<const int> epilogues, Tracer& tracer,
                 std::int64_t id) {
  Scope span(tracer, "service.get", id);
  ServedPlan served = service.get(dims, epilogues);
  span.set_detail(ctb::service::to_string(served.state));
  return served;
}

void execute(const ServedPlan& served, std::span<const GemmOperands> ops,
             Tracer& tracer, std::int64_t id) {
  {
    Scope span(tracer, "kernels.execute", id);
    ctb::execute_plan(served.summary->plan, ops, kAlpha, kBeta);
  }
  if (!tracer.enabled) return;
  for (const GemmOperands& g : ops) {
    const double m = g.dims.m, n = g.dims.n, k = g.dims.k;
    tracer.bytes_computed +=
        4.0 * (m * k + k * n + m * n + (g.epilogue_args.bias ? m : 0.0));
  }
}

std::uint32_t bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

/// Recomputes the given logical rows of an executed GEMM with
/// reference_gemm (same epilogue) and compares them with `g.c` bit for bit.
/// Returns the number of differing values.
std::int64_t check_rows(const GemmOperands& g, const std::vector<int>& rows,
                        std::int64_t& compared) {
  const GemmDims& d = g.dims;
  const int r = static_cast<int>(rows.size());
  // Row i of op(A), gathered into an untransposed r x k matrix.
  std::vector<float> a(static_cast<std::size_t>(r) * d.k);
  for (int s = 0; s < r; ++s)
    for (int p = 0; p < d.k; ++p)
      a[static_cast<std::size_t>(s) * d.k + p] =
          g.op_a == ctb::Op::kN
              ? g.a[static_cast<std::size_t>(rows[s]) * d.k + p]
              : g.a[static_cast<std::size_t>(p) * d.m + rows[s]];
  std::vector<float> bias;
  std::vector<float> c(static_cast<std::size_t>(r) * d.n, 0.0f);
  GemmOperands ref;
  ref.a = a.data();
  ref.b = g.b;
  ref.c = c.data();
  ref.dims = GemmDims{r, d.n, d.k};
  ref.op_b = g.op_b;
  ref.epilogue = g.epilogue;
  if (g.epilogue_args.bias != nullptr) {
    for (int row : rows) bias.push_back(g.epilogue_args.bias[row]);
    ref.epilogue_args.bias = bias.data();
    ref.epilogue_args.bias_len = r;
  }
  ctb::reference_gemm(ref, kAlpha, kBeta);
  std::int64_t diffs = 0;
  for (int s = 0; s < r; ++s)
    for (int j = 0; j < d.n; ++j)
      diffs += bits(c[static_cast<std::size_t>(s) * d.n + j]) !=
               bits(g.c[static_cast<std::size_t>(rows[s]) * d.n + j]);
  compared += static_cast<std::int64_t>(r) * d.n;
  return diffs;
}

/// First and last row plus kCheckRows seeded rows (all rows when few).
std::vector<int> sample_rows(int m, InputRng& rng) {
  std::vector<int> rows;
  if (m <= kCheckRows + 2) {
    for (int i = 0; i < m; ++i) rows.push_back(i);
    return rows;
  }
  rows = {0, m - 1};
  while (static_cast<int>(rows.size()) < kCheckRows + 2) {
    const int i = rng.below(m);
    if (std::find(rows.begin(), rows.end(), i) == rows.end()) rows.push_back(i);
  }
  return rows;
}

void flip_low_bit(float* value) {
  std::uint32_t u = bits(*value) ^ 1u;
  std::memcpy(value, &u, sizeof u);
}

/// Sim of one served batch, memoized by plan: the served plan and its
/// batch fully determine both simulated times.
class SimMemo {
 public:
  void add(const std::shared_ptr<const ctb::PlanSummary>& plan,
           std::span<const GemmDims> dims, SimTotals& totals) {
    auto it = memo_.find(plan.get());
    if (it == memo_.end()) {
      Entry e{plan, ctb::time_plan(sim_arch(), plan->plan, dims),
              ctb::run_magma_timed(sim_arch(), dims)};
      it = memo_.emplace(plan.get(), std::move(e)).first;
    }
    const Entry& e = it->second;
    totals.plan_us += e.ours.time_us;
    totals.vbatch_us += e.vbatch.time_us;
    totals.busy_weighted += e.ours.sim.sm_busy_fraction * e.ours.sim.makespan_us;
    totals.resident_weighted +=
        e.ours.sim.avg_resident_blocks * e.ours.sim.makespan_us;
    totals.makespan_us += e.ours.sim.makespan_us;
    totals.vbatch_bubble_blocks += e.vbatch.sim.bubble_blocks;
  }

 private:
  struct Entry {
    std::shared_ptr<const ctb::PlanSummary> keep_alive;
    ctb::TimedResult ours;
    ctb::BaselineResult vbatch;
  };
  std::map<const ctb::PlanSummary*, Entry> memo_;
};

/// One batched call of a request: the GEMMs handed to PlanService::get and
/// execute_plan together.
struct Dispatch {
  std::vector<GemmDims> dims;
  std::vector<int> epilogues;  // per GEMM; empty means none
  std::vector<GemmOperands> ops;
  double flops = 0;
  std::shared_ptr<const ctb::PlanSummary> last_plan;

  void finish_setup() {
    for (const GemmOperands& g : ops) dims.push_back(g.dims);
    flops = flops_of(dims);
  }
  void run(PlanService& service, Tracer& tracer, std::int64_t id) {
    const ServedPlan served = serve(service, dims, epilogues, tracer, id);
    execute(served, ops, tracer, id);
    last_plan = served.summary;
  }
};

/// Checks sampled rows of every GEMM the last request executed.
template <typename D>
CheckResult check_last_request(std::vector<D>& dispatches, InputRng& rng,
                               bool flip_bit) {
  CheckResult r;
  r.requests_checked = 1;
  std::int64_t diffs = 0;
  for (Dispatch& d : dispatches)
    for (const GemmOperands& g : d.ops) {
      const std::vector<int> rows = sample_rows(g.dims.m, rng);
      if (flip_bit) {
        flip_low_bit(&g.c[static_cast<std::size_t>(rows.back()) * g.dims.n]);
        flip_bit = false;
      }
      diffs += check_rows(g, rows, r.values_compared);
    }
  r.requests_failed = diffs > 0 ? 1 : 0;
  return r;
}

/// Sim of the plans the last request was served. The inception workloads
/// serve the same plans on every request, so these per-request sums hold
/// for all requests.
template <typename D>
SimTotals simulate_last_request(const std::vector<D>& dispatches) {
  SimTotals t;
  SimMemo memo;
  t.requests = 1;
  for (const Dispatch& d : dispatches) memo.add(d.last_plan, d.dims, t);
  return t;
}

// ---------------------------------------------------------------------------
// inception-infer: GoogLeNet-v1 inference at batch 1 (the paper's Fig. 10).
// One request is one image through the 9 inception modules as 18 stage
// dispatches, each im2col -> PlanService::get (bias+ReLU epilogue per GEMM)
// -> execute_plan -> col2im_output. Stage 2 convolves stage 1's reduce
// outputs; each module reads its own seeded input tensor (the max-pool and
// concatenation between modules are not GEMM work and are left out).

struct ConvLayer {
  const ctb::ConvShape* shape = nullptr;
  Matrixf filters;          // out_c x (in_c * k * k)
  std::vector<float> bias;  // out_c
  Matrixf out;              // out_c x (out_h * out_w): the GEMM's C
  ctb::Tensor4 activation;  // col2im_output of the last request
};

struct Lowering {
  const ctb::ConvShape* shape = nullptr;  // geometry im2col unrolls with
  const ctb::Tensor4* input = nullptr;
  Matrixf cols;  // the last request's lowered matrix (B of its GEMMs)
};

struct StageDispatch : Dispatch {
  std::vector<Lowering> lowerings;
  std::vector<ConvLayer*> convs;
  std::vector<int> lowering_of;  // per GEMM: index into lowerings
};

class InceptionInfer final : public Workload {
 public:
  explicit InceptionInfer(std::uint64_t seed) : check_rng_(seed ^ 0xC4EC) {
    InputRng rng(seed);
    const int bias_relu = ctb::epilogue_push(
        ctb::epilogue_push(0, ctb::EpilogueOp::kBias), ctb::EpilogueOp::kRelu);
    const auto& modules = ctb::googlenet_inception_modules();
    inputs_.reserve(modules.size());
    for (const ctb::InceptionModule& m : modules) {
      inputs_.emplace_back(1, m.in_c, m.hw, m.hw);
      for (float& x : inputs_.back().flat()) x = rng.uniform_float(-1.0f, 1.0f);
    }
    for (std::size_t mi = 0; mi < modules.size(); ++mi) {
      const ctb::InceptionModule& m = modules[mi];
      auto layer = [&](const ctb::ConvShape& s) {
        auto l = std::make_unique<ConvLayer>();
        l->shape = &s;
        l->filters = Matrixf(s.out_c, static_cast<std::size_t>(s.in_c) *
                                          s.kernel * s.kernel);
        fill(l->filters, rng);
        l->bias.resize(s.out_c);
        fill(l->bias, rng);
        const GemmDims d = s.gemm_dims(1);
        l->out = Matrixf(d.m, d.n);
        layers_.push_back(std::move(l));
        return layers_.back().get();
      };
      ConvLayer* c1 = layer(m.conv1x1);
      ConvLayer* r3 = layer(m.reduce3);
      ConvLayer* r5 = layer(m.reduce5);
      ConvLayer* pp = layer(m.pool_proj);
      ConvLayer* c3 = layer(m.conv3x3);
      ConvLayer* c5 = layer(m.conv5x5);
      // Stage 1: the four 1x1 branch convs share one lowering of the input.
      StageDispatch s1;
      s1.lowerings.push_back({&m.conv1x1, &inputs_[mi], {}});
      s1.convs = {c1, r3, r5, pp};
      s1.lowering_of = {0, 0, 0, 0};
      // Stage 2: the 3x3 and 5x5 convs over the reduce outputs.
      StageDispatch s2;
      s2.lowerings.push_back({&m.conv3x3, &r3->activation, {}});
      s2.lowerings.push_back({&m.conv5x5, &r5->activation, {}});
      s2.convs = {c3, c5};
      s2.lowering_of = {0, 1};
      for (StageDispatch* s : {&s1, &s2}) {
        for (ConvLayer* l : s->convs) {
          GemmOperands g;
          g.a = l->filters.data();
          g.c = l->out.data();
          g.dims = l->shape->gemm_dims(1);
          g.epilogue = bias_relu;
          g.epilogue_args.bias = l->bias.data();
          g.epilogue_args.bias_len = l->shape->out_c;
          s->ops.push_back(std::move(g));
          s->epilogues.push_back(bias_relu);
        }
        s->finish_setup();
      }
      dispatches_.push_back(std::move(s1));
      dispatches_.push_back(std::move(s2));
    }
  }

  void setup(Tracer& tracer) override {
    service_ = make_service();
    for (StageDispatch& s : dispatches_)
      serve(*service_, s.dims, s.epilogues, tracer, -1);
    request(-1, tracer);  // warm-up pass
  }

  double request(std::int64_t id, Tracer& tracer) override {
    Scope req(tracer, "request", id);
    double flops = 0;
    for (StageDispatch& s : dispatches_) {
      {
        Scope span(tracer, "dnn.im2col", id);
        for (Lowering& l : s.lowerings) l.cols = ctb::im2col(*l.shape, *l.input);
      }
      for (std::size_t g = 0; g < s.ops.size(); ++g)
        s.ops[g].b = s.lowerings[s.lowering_of[g]].cols.data();
      s.run(*service_, tracer, id);
      {
        Scope span(tracer, "dnn.col2im", id);
        for (ConvLayer* l : s.convs)
          l->activation = ctb::col2im_output(*l->shape, 1, l->out);
      }
      flops += s.flops;
    }
    return flops;
  }

  CheckResult check(bool flip_bit) override {
    return check_last_request(dispatches_, check_rng_, flip_bit);
  }

  SimTotals simulate() override { return simulate_last_request(dispatches_); }

  double nominal_rate() const override { return 4.5; }

 private:
  InputRng check_rng_;
  std::vector<ctb::Tensor4> inputs_;
  std::vector<std::unique_ptr<ConvLayer>> layers_;
  std::vector<StageDispatch> dispatches_;
  std::unique_ptr<PlanService> service_;
};

// ---------------------------------------------------------------------------
// inception-train: one training step of inception 3b's four stage-1 (1x1)
// branch convs at 4 images, as three dispatches over operands generated
// already lowered: forward (NN), weight gradient (NT, K = 3136, where the
// default planner splits K) and data gradient (TN). No epilogue.

class InceptionTrain final : public Workload {
 public:
  explicit InceptionTrain(std::uint64_t seed) : check_rng_(seed ^ 0xC4EC) {
    constexpr int kImages = 4;
    InputRng rng(seed);
    const ctb::InceptionModule& m = ctb::googlenet_inception_modules().at(1);
    const int cols = m.hw * m.hw * kImages;
    x_ = Matrixf(m.in_c, cols);
    fill(x_, rng);
    Dispatch fwd, wgrad, dgrad;
    for (const ctb::ConvShape* s : m.stage1()) {
      const int oc = s->out_c;
      Branch b;
      b.w = Matrixf(oc, m.in_c);
      b.dy = Matrixf(oc, cols);
      fill(b.w, rng);
      fill(b.dy, rng);
      b.y = Matrixf(oc, cols);
      b.dw = Matrixf(oc, m.in_c);
      b.dx = Matrixf(m.in_c, cols);
      branches_.push_back(std::move(b));
    }
    for (Branch& b : branches_) {
      fwd.ops.push_back(ctb::operands(b.w, x_, b.y));
      wgrad.ops.push_back(
          ctb::operands(b.dy, x_, b.dw, ctb::Op::kN, ctb::Op::kT));
      dgrad.ops.push_back(
          ctb::operands(b.w, b.dy, b.dx, ctb::Op::kT, ctb::Op::kN));
    }
    for (Dispatch* d : {&fwd, &wgrad, &dgrad}) d->finish_setup();
    dispatches_ = {std::move(fwd), std::move(wgrad), std::move(dgrad)};
  }

  void setup(Tracer& tracer) override {
    service_ = make_service();
    for (Dispatch& d : dispatches_) serve(*service_, d.dims, d.epilogues, tracer, -1);
    request(-1, tracer);  // warm-up pass
  }

  double request(std::int64_t id, Tracer& tracer) override {
    Scope req(tracer, "request", id);
    double flops = 0;
    for (Dispatch& d : dispatches_) {
      d.run(*service_, tracer, id);
      flops += d.flops;
    }
    return flops;
  }

  CheckResult check(bool flip_bit) override {
    return check_last_request(dispatches_, check_rng_, flip_bit);
  }

  SimTotals simulate() override { return simulate_last_request(dispatches_); }

  double nominal_rate() const override { return 7.0; }

 private:
  struct Branch {
    Matrixf w, dy, y, dw, dx;
  };
  InputRng check_rng_;
  Matrixf x_;
  std::vector<Branch> branches_;
  std::vector<Dispatch> dispatches_;
  std::unique_ptr<PlanService> service_;
};

// ---------------------------------------------------------------------------
// serve-churn: the plan service as the front door for variable small-shape
// traffic. A request is a batch of 1-6 GEMMs, M and N log-uniform in
// [8, 128], K in [8, 256]. 80% of requests come, with quadratic skew, from a
// 512-batch hot set planned in set-up; 20% carry never-seen shapes that the
// full planner plans inline. The served plan then runs on the host.

constexpr int kHotSet = 512;
constexpr double kHotShare = 0.8;
constexpr int kMaxGemms = 6;
constexpr int kMaxMN = 128;
constexpr int kMaxK = 256;
// Requests whose plans the sim metrics cover: the first ones of the
// seeded stream, so the sim values are a pure function of the seed.
constexpr std::int64_t kSimRequests = 2048;
// Output checks: about one request in kCaptureEvery, at most kMaxCaptures.
constexpr std::uint64_t kCaptureEvery = 16;
constexpr std::size_t kMaxCaptures = 256;

class ServeChurn final : public Workload {
 public:
  explicit ServeChurn(std::uint64_t seed)
      : seed_(seed), stream_(seed ^ 0x5EED5EEDULL) {
    InputRng rng(seed);
    hot_.resize(kHotSet);
    for (auto& batch : hot_) batch = random_batch(rng);
    for (int s = 0; s < kMaxGemms; ++s) {
      Slot slot;
      slot.a.resize(static_cast<std::size_t>(kMaxMN) * kMaxK);
      slot.b.resize(static_cast<std::size_t>(kMaxK) * kMaxMN);
      slot.c.resize(static_cast<std::size_t>(kMaxMN) * kMaxMN);
      fill(slot.a, rng);
      fill(slot.b, rng);
      slots_.push_back(std::move(slot));
    }
    ops_.resize(kMaxGemms);
    for (int s = 0; s < kMaxGemms; ++s) {
      ops_[s].a = slots_[s].a.data();
      ops_[s].b = slots_[s].b.data();
      ops_[s].c = slots_[s].c.data();
    }
  }

  void setup(Tracer& tracer) override {
    service_ = make_service();
    for (const auto& batch : hot_) serve(*service_, batch, {}, tracer, -1);
    for (const auto& batch : hot_) {  // warm-up pass over the hot set
      const ServedPlan served = serve(*service_, batch, {}, tracer, -1);
      run(served, batch, tracer, -1);
    }
  }

  double request(std::int64_t id, Tracer& tracer) override {
    if (id != next_id_) throw std::logic_error("serve-churn ids must be consecutive");
    ++next_id_;
    Scope req(tracer, "request", id);
    if (stream_.uniform() < kHotShare) {
      const double u = stream_.uniform();
      batch_ = hot_[static_cast<std::size_t>(u * u * kHotSet)];
    } else {
      batch_ = random_batch(stream_);
    }
    const ServedPlan served = serve(*service_, batch_, {}, tracer, id);
    run(served, batch_, tracer, id);
    if (id < kSimRequests) sim_log_.push_back({batch_, served.summary});
    if (captures_.size() < kMaxCaptures && sampled(id)) capture();
    return flops_of(batch_);
  }

  CheckResult check(bool flip_bit) override {
    CheckResult r;
    for (Capture& cap : captures_) {
      ++r.requests_checked;
      if (flip_bit) {
        flip_low_bit(&cap.c[0][0]);
        flip_bit = false;
      }
      bool ok = true;
      for (std::size_t g = 0; g < cap.dims.size(); ++g) {
        const GemmDims& d = cap.dims[g];
        std::vector<float> c(static_cast<std::size_t>(d.m) * d.n, 0.0f);
        GemmOperands ref;
        ref.a = slots_[g].a.data();
        ref.b = slots_[g].b.data();
        ref.c = c.data();
        ref.dims = d;
        ctb::reference_gemm(ref, kAlpha, kBeta);
        r.values_compared += static_cast<std::int64_t>(c.size());
        for (std::size_t i = 0; i < c.size(); ++i)
          ok = ok && bits(c[i]) == bits(cap.c[g][i]);
      }
      r.requests_failed += ok ? 0 : 1;
    }
    return r;
  }

  SimTotals simulate() override {
    SimTotals t;
    SimMemo memo;
    for (const auto& [batch, plan] : sim_log_) memo.add(plan, batch, t);
    t.requests = static_cast<std::int64_t>(sim_log_.size());
    return t;
  }

  double nominal_rate() const override { return 3000.0; }

 private:
  struct Slot {
    std::vector<float> a, b, c;
  };
  struct Capture {
    std::vector<GemmDims> dims;
    std::vector<std::vector<float>> c;
  };

  static std::vector<GemmDims> random_batch(InputRng& rng) {
    std::vector<GemmDims> batch(1 + rng.below(kMaxGemms));
    for (GemmDims& d : batch)
      d = GemmDims{rng.log_uniform(8, kMaxMN), rng.log_uniform(8, kMaxMN),
                   rng.log_uniform(8, kMaxK)};
    return batch;
  }

  void run(const ServedPlan& served, std::span<const GemmDims> batch,
           Tracer& tracer, std::int64_t id) {
    for (std::size_t g = 0; g < batch.size(); ++g) ops_[g].dims = batch[g];
    execute(served, std::span(ops_.data(), batch.size()), tracer, id);
  }

  bool sampled(std::int64_t id) const {
    InputRng h(seed_ ^ (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL));
    return h.next() % kCaptureEvery == 0;
  }

  void capture() {
    Capture cap;
    cap.dims = batch_;
    for (std::size_t g = 0; g < batch_.size(); ++g)
      cap.c.emplace_back(slots_[g].c.begin(),
                         slots_[g].c.begin() +
                             static_cast<std::ptrdiff_t>(batch_[g].m) * batch_[g].n);
    captures_.push_back(std::move(cap));
  }

  std::uint64_t seed_;
  InputRng stream_;
  std::int64_t next_id_ = 0;
  std::vector<std::vector<GemmDims>> hot_;
  std::vector<GemmDims> batch_;
  std::vector<Slot> slots_;
  std::vector<GemmOperands> ops_;
  std::vector<std::pair<std::vector<GemmDims>,
                        std::shared_ptr<const ctb::PlanSummary>>>
      sim_log_;
  std::vector<Capture> captures_;
  std::unique_ptr<PlanService> service_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "inception-infer") return std::make_unique<InceptionInfer>(seed);
  if (name == "inception-train") return std::make_unique<InceptionTrain>(seed);
  if (name == "serve-churn") return std::make_unique<ServeChurn>(seed);
  return nullptr;
}

}  // namespace perfbench
