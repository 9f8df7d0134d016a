// Shared helpers for the figure-reproduction harnesses. Each bench binary
// prints the rows/series of one of the paper's tables or figures; these
// helpers implement the common sweep machinery (equal-size synthetic cases,
// the three execution variants, speedup tables).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/api.hpp"
#include "core/plan_io.hpp"
#include "dnn/googlenet.hpp"
#include "dnn/squeezenet.hpp"
#include "kernels/simd.hpp"
#include "service/plan_service.hpp"
#include "telemetry/perf_report.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ctb::bench {

/// One synthetic batched-GEMM case of `batch` identical GEMMs (the Fig. 8/9
/// sweep shape: histograms per (M=N, batch) cell, K on the X axis).
inline std::vector<GemmDims> equal_case(int batch, int mn, int k) {
  return std::vector<GemmDims>(static_cast<std::size_t>(batch),
                               GemmDims{mn, mn, k});
}

/// Simulated time of the framework under a given policy.
inline double time_ours(const GpuArch& arch, std::span<const GemmDims> dims,
                        BatchingPolicy policy,
                        GpuModel model = GpuModel::kV100) {
  PlannerConfig config;
  config.gpu = model;
  config.policy = policy;
  const BatchedGemmPlanner planner(config);
  return time_plan(arch, planner.plan(dims).plan, dims).time_us;
}

/// The paper's sweep axes.
inline const std::vector<int>& sweep_mn() {
  static const std::vector<int> v = {128, 256, 512};
  return v;
}
inline const std::vector<int>& sweep_batch() {
  static const std::vector<int> v = {4, 16, 64, 256};
  return v;
}
inline const std::vector<int>& sweep_k() {
  static const std::vector<int> v = {16, 32, 64, 128, 256, 512, 1024, 2048};
  return v;
}

/// One (M=N, batch, K) cell of the paper's sweep grid.
struct SweepCell {
  int mn = 0;
  int batch = 0;
  int k = 0;
};

/// The full Fig. 8/9 grid in print order (mn outer, batch, then K).
inline std::vector<SweepCell> sweep_cells() {
  std::vector<SweepCell> cells;
  for (int mn : sweep_mn())
    for (int batch : sweep_batch())
      for (int k : sweep_k()) cells.push_back({mn, batch, k});
  return cells;
}

/// Evaluates every sweep cell concurrently — each (M=N, batch, K) cell is an
/// independent plan+simulate — and returns results in cell order so the
/// table-printing loops stay deterministic regardless of thread count.
template <typename Result, typename F>
std::vector<Result> sweep_parallel(const std::vector<SweepCell>& cells,
                                   F&& eval) {
  std::vector<Result> out(cells.size());
  parallel_for(static_cast<long long>(cells.size()),
               [&](long long i) {
                 out[static_cast<std::size_t>(i)] =
                     eval(cells[static_cast<std::size_t>(i)]);
               });
  return out;
}

/// The figure harnesses' fixed column sets, shared with the regression tests
/// that pin them (bench_grid_test, the golden CSV-header check).
inline std::vector<std::string> fig8_table_header() {
  return {"K",         "magma(us)", "tiling(us)",
          "speedup",   "magma tile", "our tile",
          "histogram (1.0 = 10 chars)"};
}
inline std::vector<std::string> fig9_table_header() {
  return {"K",          "magma(us)",  "tiling(us)",
          "full(us)",   "heuristic",  "full/magma",
          "full/tiling", "histogram (1.0 = 10 chars)"};
}
inline const char* fig8_csv_header() {
  return "mn,batch,k,magma_us,tiling_us,speedup";
}
inline const char* fig9_csv_header() {
  return "mn,batch,k,magma_us,tiling_us,full_us,heuristic,full_vs_magma,"
         "full_vs_tiling";
}

/// Prints the Fig. 8/9 layout: one "--- M=N=…, batch=… ---" section per
/// (mn, batch) pair, each a TextTable with one row per K. `rows` must be in
/// sweep_cells() order (as produced by sweep_parallel); `row_fn(table, cell,
/// row)` renders one cell, so the harnesses keep their per-figure columns
/// and summary accumulation while sharing the loop structure.
template <typename Row, typename RowFn>
void print_sweep_tables(std::ostream& os,
                        const std::vector<std::string>& header,
                        const std::vector<Row>& rows, RowFn&& row_fn) {
  const std::vector<SweepCell> cells = sweep_cells();
  std::size_t cell = 0;
  for (int mn : sweep_mn()) {
    for (int batch : sweep_batch()) {
      os << "\n--- M=N=" << mn << ", batch=" << batch << " ---\n";
      TextTable t;
      t.set_header(header);
      for (std::size_t i = 0; i < sweep_k().size(); ++i, ++cell)
        row_fn(t, cells[cell], rows[cell]);
      t.print(os);
    }
  }
}

/// "# isa=<active-isa>,threads=<n>" — the provenance comment every CSV
/// artifact leads with, so paired A/B runs are self-describing (the 1-core
/// reference container and a vector-ISA override both change what a timing
/// means; the artifact now says which configuration produced it).
inline std::string csv_provenance_comment() {
  return std::string("# isa=") + simd_isa_name(active_simd_isa()) +
         ",threads=" + std::to_string(parallel_max_threads());
}

/// Optional machine-readable sweep output: when CTB_BENCH_CSV names a file,
/// the harness writes the provenance comment, `header`, then one CSV line
/// per cell there; otherwise every call is a no-op, keeping the default
/// stdout byte-identical.
class CsvSink {
 public:
  explicit CsvSink(const char* header) {
    const char* path = std::getenv("CTB_BENCH_CSV");
    if (path != nullptr && *path != '\0') {
      os_.open(path);
      if (os_.good()) os_ << csv_provenance_comment() << '\n' << header << '\n';
    }
  }
  void row(const std::string& line) {
    if (os_.is_open()) os_ << line << '\n';
  }

 private:
  std::ofstream os_;
};

/// Turns telemetry on for a figure sweep when CTB_BENCH_TELEMETRY names a
/// directory; on destruction drops <dir>/<name>.metrics.json and
/// <dir>/<name>.trace.json (the sweep's spans, as far as the flight rings
/// still hold them). A no-op (and zero files) when the variable is unset,
/// so default bench runs are unaffected.
class TelemetryScope {
 public:
  explicit TelemetryScope(std::string name) : name_(std::move(name)) {
    const char* dir = std::getenv("CTB_BENCH_TELEMETRY");
    if (dir != nullptr && *dir != '\0') {
      dir_ = dir;
      telemetry::reset();
      telemetry::flight_clear();
      telemetry::set_enabled(true);
    }
  }
  ~TelemetryScope() {
    if (dir_.empty()) return;
    const telemetry::MetricsSnapshot snap = telemetry::snapshot();
    std::ofstream metrics(dir_ + "/" + name_ + ".metrics.json");
    if (metrics.good()) telemetry::write_metrics_json(metrics, snap);
    std::ofstream trace(dir_ + "/" + name_ + ".trace.json");
    if (trace.good())
      telemetry::write_chrome_trace(trace, telemetry::flight_events());
    telemetry::set_enabled(false);
  }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  std::string name_;
  std::string dir_;
};

// ---------------------------------------------------------------------------
// Perf-report workload suites (ctb_bench, DESIGN.md §8)
// ---------------------------------------------------------------------------

/// One canonical workload of a perf suite: a batch of GEMM dims executed
/// functionally (host matrices, real executors) either through the planner
/// under `policy`, or — when `fixed_strategy_id` >= 0 — through the
/// uniform_plan of that Table-2 strategy (one tile per block), so each
/// strategy's packed tile grid has a workload exercising exactly it.
struct BenchWorkload {
  std::string name;
  std::vector<GemmDims> dims;
  BatchingPolicy policy = BatchingPolicy::kThresholdOnly;
  int fixed_strategy_id = -1;
  /// Planner split-K mode for planner-policy workloads (kForce/kOff form
  /// the paired A/B below; kAuto is the production default).
  SplitKMode splitk = SplitKMode::kAuto;
  /// Replay workloads (> 0): instead of executing `dims`, run this many
  /// plan-service lookups drawn from `replay_pool` (each entry one batch)
  /// through a fresh inline-mode PlanService per repeat, measuring
  /// per-request latency and hit rate. `policy` configures the service's
  /// full planner; dims/fixed_strategy_id are unused.
  int replay_requests = 0;
  /// Index skew of the request stream: 1 = uniform over the pool, 2 =
  /// quadratic hot-set bias (front of the pool dominates).
  int replay_skew = 1;
  std::vector<std::vector<GemmDims>> replay_pool{};
  /// Fused-epilogue A/B pair: kFused runs every GEMM with a bias+ReLU
  /// chain applied inside the tile store; kUnfused runs the plain GEMM
  /// then the same chain as two separate elementwise passes over each C.
  /// Both sides execute identical GEMM FLOPs (exec.flops matches exactly);
  /// the fused side strictly reduces exec.c.passes and is the only one to
  /// count exec.epilogue.fused — the pair pins the fusion win in counters.
  enum class EpilogueMode { kNone, kFused, kUnfused };
  EpilogueMode epilogue_mode = EpilogueMode::kNone;
};

namespace detail {

inline std::string sweep_workload_name(const SweepCell& c) {
  return "sweep/mn" + std::to_string(c.mn) + "/b" + std::to_string(c.batch) +
         "/k" + std::to_string(c.k);
}

inline void add_workload(std::vector<BenchWorkload>& out, BenchWorkload w) {
  for (const BenchWorkload& existing : out)
    if (existing.name == w.name) return;  // suites may overlap; dedup by name
  out.push_back(std::move(w));
}

}  // namespace detail

/// The quick suite (25 workloads, a few seconds on the 1-core reference
/// container): four fig8/fig9 sweep cells spanning the grid corners, three
/// GoogLeNet inception stages and two SqueezeNet expand fans (the paper's
/// Section-7.3 DNN batches, auto-offline policy), one pinned workload per
/// Table-2 batched strategy so every packed tile geometry is covered, a
/// tall-skinny split-K A/B pair, and a fused-epilogue A/B pair.
inline std::vector<BenchWorkload> perf_quick_suite() {
  std::vector<BenchWorkload> out;
  for (const SweepCell& c : {SweepCell{128, 4, 64}, SweepCell{128, 16, 256},
                             SweepCell{256, 4, 128}, SweepCell{512, 4, 16}})
    detail::add_workload(out, {detail::sweep_workload_name(c),
                               equal_case(c.batch, c.mn, c.k),
                               BatchingPolicy::kThresholdOnly, -1});
  const auto& modules = googlenet_inception_modules();
  for (const auto* pick : {&modules[0], &modules[2]}) {  // 3a, 4a
    detail::add_workload(out, {"googlenet/" + pick->name + "/s1",
                               pick->stage_gemms(1),
                               BatchingPolicy::kAutoOffline, -1});
  }
  detail::add_workload(out, {"googlenet/" + modules[0].name + "/s2",
                             modules[0].stage_gemms(2),
                             BatchingPolicy::kAutoOffline, -1});
  const auto& fires = squeezenet_fire_modules();
  for (const auto* pick : {&fires.front(), &fires.back()})  // fire2, fire9
    detail::add_workload(out, {"squeezenet/" + pick->name + "/expand",
                               pick->expand_gemms(1),
                               BatchingPolicy::kAutoOffline, -1});
  for (const TilingStrategy& s : batched_strategies()) {
    // Two tiles per axis: exercises the full-tile fast path and edge tiles.
    detail::add_workload(
        out, {"tile/" + s.name(),
              {GemmDims{2 * s.by, 2 * s.bx, 96}},
              BatchingPolicy::kTilingOnly, s.id});
  }
  // Paired A/B for the split-K axis: the same tall-skinny batch (few C
  // tiles, deep K — far too little TLP to fill the simulated machine)
  // planned with split-K forced off vs forced on. The report pair pins the
  // scheduling effect: the split variant shows more exec.blocks and
  // nonzero exec.splitk.* at bit-identical exec.flops.
  {
    BenchWorkload unsplit;
    unsplit.name = "splitk/tall-skinny/unsplit";
    unsplit.dims = {{512, 64, 1024}, {384, 64, 768}};
    unsplit.policy = BatchingPolicy::kThresholdOnly;
    unsplit.splitk = SplitKMode::kOff;
    BenchWorkload split = unsplit;
    split.name = "splitk/tall-skinny/split";
    split.splitk = SplitKMode::kForce;
    detail::add_workload(out, std::move(unsplit));
    detail::add_workload(out, std::move(split));
  }
  // Paired A/B for fused epilogues: the same batch with a bias+ReLU chain
  // per GEMM, once fused into the tile store and once as separate passes.
  // exec.flops is identical; the fused side's exec.c.passes collapses from
  // 3 per GEMM per repeat (store + bias + relu) to 1 and exec.epilogue.*
  // turn nonzero — the C-traffic reduction the aux-array epilogue buys.
  {
    BenchWorkload unfused;
    unfused.name = "epilogue/bias-relu/unfused";
    unfused.dims = equal_case(8, 128, 128);
    unfused.policy = BatchingPolicy::kThresholdOnly;
    unfused.epilogue_mode = BenchWorkload::EpilogueMode::kUnfused;
    BenchWorkload fused = unfused;
    fused.name = "epilogue/bias-relu/fused";
    fused.epilogue_mode = BenchWorkload::EpilogueMode::kFused;
    detail::add_workload(out, std::move(unfused));
    detail::add_workload(out, std::move(fused));
  }
  return out;
}

/// The full suite: quick plus a wider sweep slice (all mn/batch pairs at
/// K=64 and K=256, FLOP-capped for the 1-core container) plus every
/// inception stage and every fire module.
inline std::vector<BenchWorkload> perf_full_suite() {
  std::vector<BenchWorkload> out = perf_quick_suite();
  constexpr long long kCellFlopCap = 1'500'000'000;  // ~1.5 GFLOP per cell
  for (int mn : sweep_mn())
    for (int batch : sweep_batch())
      for (int k : {64, 256}) {
        const SweepCell c{mn, batch, k};
        if (2LL * mn * mn * k * batch > kCellFlopCap) continue;
        detail::add_workload(out, {detail::sweep_workload_name(c),
                                   equal_case(c.batch, c.mn, c.k),
                                   BatchingPolicy::kThresholdOnly, -1});
      }
  for (const InceptionModule& m : googlenet_inception_modules())
    for (int stage : {1, 2})
      detail::add_workload(
          out, {"googlenet/" + m.name + "/s" + std::to_string(stage),
                m.stage_gemms(stage), BatchingPolicy::kAutoOffline, -1});
  for (const FireModule& m : squeezenet_fire_modules())
    detail::add_workload(out, {"squeezenet/" + m.name + "/expand",
                               m.expand_gemms(1),
                               BatchingPolicy::kAutoOffline, -1});
  return out;
}

/// The replay suite: request streams of mixed-shape lookups through the
/// plan service (ROADMAP "plan service for production traffic"). Three
/// regimes: a hot working set every request re-hits, a mixed stream over a
/// medium pool with a hot-biased skew, and a churn stream whose pool is
/// larger than its request budget (mostly cold misses). Pools and request
/// order are seeded deterministically, and the service plans inline on the
/// requesting thread, so every service.*/cache.* counter in the report is a
/// bit-deterministic function of the suite definition.
inline std::vector<BenchWorkload> perf_replay_suite() {
  auto pool_of = [](int distinct, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<GemmDims>> pool;
    pool.reserve(static_cast<std::size_t>(distinct));
    for (int i = 0; i < distinct; ++i) {
      const int batch = static_cast<int>(rng.uniform_int(1, 6));
      std::vector<GemmDims> dims;
      dims.reserve(static_cast<std::size_t>(batch));
      for (int g = 0; g < batch; ++g)
        dims.push_back(
            {static_cast<int>(rng.log_uniform_int(8, 256)),
             static_cast<int>(rng.log_uniform_int(8, 256)),
             static_cast<int>(rng.log_uniform_int(8, 256))});
      pool.push_back(std::move(dims));
    }
    return pool;
  };
  std::vector<BenchWorkload> out;
  BenchWorkload hot;
  hot.name = "replay/hot";
  hot.policy = BatchingPolicy::kThresholdOnly;
  hot.replay_requests = 2048;
  hot.replay_skew = 1;
  hot.replay_pool = pool_of(16, 0x5EBB1EULL);
  out.push_back(std::move(hot));
  BenchWorkload mixed;
  mixed.name = "replay/mixed";
  mixed.policy = BatchingPolicy::kThresholdOnly;
  mixed.replay_requests = 1536;
  mixed.replay_skew = 2;
  mixed.replay_pool = pool_of(96, 0x3A17EDULL);
  out.push_back(std::move(mixed));
  BenchWorkload churn;
  churn.name = "replay/churn";
  churn.policy = BatchingPolicy::kThresholdOnly;
  churn.replay_requests = 768;
  churn.replay_skew = 1;
  churn.replay_pool = pool_of(384, 0xC402ULL);
  out.push_back(std::move(churn));
  return out;
}

/// Suite lookup by name; empty vector for an unknown suite.
inline std::vector<BenchWorkload> perf_suite(const std::string& name) {
  if (name == "quick") return perf_quick_suite();
  if (name == "full") return perf_full_suite();
  if (name == "replay") return perf_replay_suite();
  return {};
}

namespace detail {

/// FNV-1a of the workload name: a stable per-workload seed so operand
/// contents never depend on suite composition or run order.
inline std::uint64_t workload_seed(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char ch : name) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace detail

/// Executes one workload `repeats` times and collects timing samples, the
/// telemetry snapshot delta across all repeats, and the simulated clock of
/// the plan it ran (V100 preset, against MAGMA vbatch). Planner-policy
/// workloads plan through a fresh PlanCache, so the report deterministically
/// records one cache miss and repeats-1 hits; pinned-strategy workloads build
/// their one-tile-per-block plan directly (no planner, no cache traffic).
inline perfreport::WorkloadResult run_perf_workload(const BenchWorkload& w,
                                                    int repeats) {
  using clock = std::chrono::steady_clock;
  perfreport::WorkloadResult out;
  out.name = w.name;
  out.repeats = repeats;
  out.flops = batch_flops(w.dims);

  Rng rng(detail::workload_seed(w.name));
  std::vector<Matrixf> a, b, c;
  a.reserve(w.dims.size());
  b.reserve(w.dims.size());
  c.reserve(w.dims.size());
  for (const GemmDims& d : w.dims) {
    a.emplace_back(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.k));
    b.emplace_back(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
    c.emplace_back(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
    fill_random(a.back(), rng);
    fill_random(b.back(), rng);
  }
  std::vector<GemmOperands> ops(w.dims.size());
  for (std::size_t i = 0; i < w.dims.size(); ++i) {
    ops[i].dims = w.dims[i];
    ops[i].a = a[i].data();
    ops[i].b = b[i].data();
    ops[i].c = c[i].data();
  }

  // Epilogue A/B workloads carry one bias vector per GEMM (deterministic
  // from the workload seed; generated after a/b so plain workloads' operand
  // contents are untouched). The fused side attaches the chain to the
  // operands and the plan; the unfused side applies the identical chain as
  // separate passes inside the timed region below.
  std::vector<std::vector<float>> biases;
  std::vector<int> epilogues;
  if (w.epilogue_mode != BenchWorkload::EpilogueMode::kNone) {
    biases.resize(w.dims.size());
    for (std::size_t i = 0; i < w.dims.size(); ++i) {
      biases[i].resize(static_cast<std::size_t>(w.dims[i].m));
      for (float& x : biases[i])
        x = static_cast<float>(rng.uniform_int(-64, 64)) / 16.0f;
    }
    if (w.epilogue_mode == BenchWorkload::EpilogueMode::kFused) {
      int spec = 0;
      spec = epilogue_push(spec, EpilogueOp::kBias);
      spec = epilogue_push(spec, EpilogueOp::kRelu);
      epilogues.assign(w.dims.size(), spec);
      for (std::size_t i = 0; i < w.dims.size(); ++i) {
        ops[i].epilogue = spec;
        ops[i].epilogue_args.bias = biases[i].data();
        ops[i].epilogue_args.bias_len = w.dims[i].m;
      }
    }
  }

  const telemetry::MetricsSnapshot before = telemetry::snapshot();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  auto timed_execute = [&](const BatchPlan& plan) {
    const auto t0 = clock::now();
    execute_plan(plan, ops, 1.0f, 0.0f);
    if (w.epilogue_mode == BenchWorkload::EpilogueMode::kUnfused) {
      // The chain the fused variant folds into its stores, as the two
      // extra full sweeps over each C it eliminates (same elementwise
      // definitions, so both variants' outputs are bitwise identical).
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const GemmDims& d = w.dims[i];
        float* cp = c[i].data();
        CTB_TEL_COUNT("exec.c.passes", 1);
        for (int row = 0; row < d.m; ++row)
          for (int col = 0; col < d.n; ++col)
            cp[static_cast<std::size_t>(row) * d.n + col] +=
                biases[i][static_cast<std::size_t>(row)];
        CTB_TEL_COUNT("exec.c.passes", 1);
        const std::size_t elems =
            static_cast<std::size_t>(d.m) * static_cast<std::size_t>(d.n);
        for (std::size_t e = 0; e < elems; ++e)
          cp[e] = cp[e] > 0.0f ? cp[e] : 0.0f;
      }
    }
    samples.push_back(
        std::chrono::duration<double, std::micro>(clock::now() - t0).count());
  };
  BatchPlan ran;  // the plan every repeat executed, for the sim object
  if (w.fixed_strategy_id >= 0) {
    ran = uniform_plan(w.dims, batched_strategy_by_id(w.fixed_strategy_id));
    for (int r = 0; r < repeats; ++r) {
      // Each repeat is one "request": a fresh trace id ties this repeat's
      // executor flight events together in dumps (replay workloads get
      // their ids from the plan service instead).
      const telemetry::ScopedTraceContext trace_scope(
          "bench", static_cast<std::int32_t>(w.dims.size()));
      timed_execute(ran);
    }
  } else {
    PlannerConfig config;
    config.policy = w.policy;
    config.splitk = w.splitk;
    PlanCache cache(config);
    for (int r = 0; r < repeats; ++r) {
      // The trace scope covers planning AND execution, so repeat 1's
      // trail reads plan.decision -> cache.miss -> exec and repeats
      // 2..k read cache.hit -> exec, each under its own id.
      const telemetry::ScopedTraceContext trace_scope(
          "bench", static_cast<std::int32_t>(w.dims.size()));
      const BatchPlan& plan = cache.plan(w.dims, epilogues).plan;
      timed_execute(plan);
      if (r == 0) ran = plan;
    }
  }
  const telemetry::MetricsSnapshot after = telemetry::snapshot();

  out.timing = perfreport::TimingStats::from_samples(std::move(samples));
  perfreport::harvest_deterministic_metrics(telemetry::delta(before, after),
                                            out);
  // Outside the snapshot window: the simulator's own telemetry is not part
  // of the workload's counters.
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  out.sim.plan_us = time_plan(arch, ran, w.dims).time_us;
  out.sim.vbatch_us = run_magma_timed(arch, w.dims).time_us;
  out.sim.speedup = out.sim.vbatch_us / out.sim.plan_us;
  return out;
}

/// Executes one replay workload: `replay_requests` plan-service lookups per
/// repeat, each repeat against a fresh service so hit/miss counters are
/// identical across repeats and hosts. Per-request wall latency feeds the advisory "lookup" percentiles;
/// the whole-replay wall time is the workload timing sample. No GEMM is
/// executed — this measures the serving front door, not the kernels.
inline perfreport::WorkloadResult run_replay_workload(const BenchWorkload& w,
                                                      int repeats) {
  using clock = std::chrono::steady_clock;
  perfreport::WorkloadResult out;
  out.name = w.name;
  out.repeats = repeats;
  out.flops = 0;  // lookups only; no useful GEMM FLOPs

  const telemetry::MetricsSnapshot before = telemetry::snapshot();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  std::vector<double> lookup_us;
  lookup_us.reserve(static_cast<std::size_t>(repeats) *
                    static_cast<std::size_t>(w.replay_requests));
  for (int r = 0; r < repeats; ++r) {
    service::PlanServiceConfig cfg;
    cfg.planner.policy = w.policy;
    service::PlanService svc(cfg);
    // Same seed every repeat: the request sequence (and therefore every
    // deterministic counter) is a function of the workload alone.
    Rng rng(detail::workload_seed(w.name));
    const std::size_t pool = w.replay_pool.size();
    const auto t0 = clock::now();
    for (int q = 0; q < w.replay_requests; ++q) {
      std::size_t idx;
      if (w.replay_skew >= 2) {
        // Quadratic hot-set bias via integer arithmetic only (bit-exact on
        // any host): u^2 over a 2^20 grid, mapped onto the pool.
        const std::uint64_t grid = std::uint64_t{1} << 20;
        const std::uint64_t u = static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(grid) - 1));
        idx = static_cast<std::size_t>(((u * u) >> 20) * pool >> 20);
      } else {
        idx = rng.pick_index(pool);
      }
      const auto l0 = clock::now();
      const service::ServedPlan served = svc.get(w.replay_pool[idx]);
      lookup_us.push_back(
          std::chrono::duration<double, std::micro>(clock::now() - l0)
              .count());
      (void)served;
    }
    samples.push_back(
        std::chrono::duration<double, std::micro>(clock::now() - t0).count());
  }
  const telemetry::MetricsSnapshot after = telemetry::snapshot();

  out.timing = perfreport::TimingStats::from_samples(std::move(samples));
  out.lookup = perfreport::LatencyStats::from_samples(std::move(lookup_us));
  perfreport::harvest_deterministic_metrics(telemetry::delta(before, after),
                                            out);
  return out;
}

/// Runs a whole suite into a PerfReport. Telemetry is enabled for the run
/// (and restored afterwards); per-workload counters come from snapshot
/// deltas, so no global reset is needed and pre-existing counter state is
/// irrelevant.
inline perfreport::PerfReport run_perf_suite(
    const std::vector<BenchWorkload>& workloads, const std::string& suite,
    const std::string& tag, int repeats,
    std::ostream* progress = nullptr) {
  perfreport::PerfReport report;
  report.suite = suite;
  report.tag = tag;
  report.repeats = repeats;
  report.created_unix = static_cast<std::int64_t>(std::time(nullptr));
  report.simd_isa = simd_isa_name(active_simd_isa());
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  for (const BenchWorkload& w : workloads) {
    report.workloads.push_back(w.replay_requests > 0
                                   ? run_replay_workload(w, repeats)
                                   : run_perf_workload(w, repeats));
    if (progress != nullptr) {
      const perfreport::WorkloadResult& r = report.workloads.back();
      char line[160];
      if (r.lookup.count > 0) {
        // Hit rate from the harvested service counters.
        std::int64_t hits = 0, misses = 0;
        for (const auto& c : r.counters) {
          if (c.name == "service.hit") hits = c.value;
          if (c.name == "service.miss") misses = c.value;
        }
        const double rate = hits + misses > 0
                                ? 100.0 * static_cast<double>(hits) /
                                      static_cast<double>(hits + misses)
                                : 0.0;
        std::snprintf(line, sizeof(line),
                      "  %-40s hit%% %5.1f  p50 %8.1f us  p95 %8.1f us  "
                      "p99 %8.1f us",
                      r.name.c_str(), rate, r.lookup.p50_us, r.lookup.p95_us,
                      r.lookup.p99_us);
      } else {
        std::snprintf(line, sizeof(line),
                      "  %-40s median %10.1f us  iqr %8.1f us  %7.2f GFLOP/s",
                      r.name.c_str(), r.timing.median_us, r.timing.iqr_us,
                      r.gflops());
      }
      *progress << line << '\n';
    }
  }
  telemetry::set_enabled(was_enabled);
  perfreport::sort_workloads(report);
  return report;
}

}  // namespace ctb::bench
