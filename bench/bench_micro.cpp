// google-benchmark microbenchmarks of the library itself: planner latency,
// simulator throughput, functional kernel throughput, im2col and packing a
// conv's B from its tensor, and the random-forest predictor (the paper
// stresses the online selector must be negligible — "7-8 comparisons on
// average").
#include <benchmark/benchmark.h>

#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/api.hpp"
#include "core/rf_policy.hpp"
#include "dnn/googlenet.hpp"
#include "dnn/im2col.hpp"
#include "dnn/implicit_gemm.hpp"
#include "kernels/packing.hpp"
#include "kernels/simd.hpp"
#include "kernels/work_builder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/parallel.hpp"

namespace {

using namespace ctb;

void BM_PlannerTilingOnly(benchmark::State& state) {
  const std::vector<GemmDims> dims(static_cast<std::size_t>(state.range(0)),
                                   GemmDims{128, 128, 256});
  PlannerConfig config;
  config.policy = BatchingPolicy::kTilingOnly;
  const BatchedGemmPlanner planner(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(dims));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlannerTilingOnly)->Arg(4)->Arg(64)->Arg(256);

void BM_PlannerThresholdBatching(benchmark::State& state) {
  const std::vector<GemmDims> dims(static_cast<std::size_t>(state.range(0)),
                                   GemmDims{128, 128, 64});
  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  const BatchedGemmPlanner planner(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(dims));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlannerThresholdBatching)->Arg(64)->Arg(256);

void BM_SimulateKernel(benchmark::State& state) {
  const std::vector<GemmDims> dims(static_cast<std::size_t>(state.range(0)),
                                   GemmDims{128, 128, 256});
  PlannerConfig config;
  const BatchedGemmPlanner planner(config);
  const PlanSummary s = planner.plan(dims);
  const KernelWork work = work_from_plan(s.plan, dims);
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_kernel(arch, work));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(work.blocks.size()));
  state.SetLabel(std::to_string(work.blocks.size()) + " blocks");
}
BENCHMARK(BM_SimulateKernel)->Arg(16)->Arg(256);

void BM_FunctionalTileGemm(benchmark::State& state) {
  const auto& s = batched_strategy_by_id(static_cast<int>(state.range(0)));
  Rng rng(1);
  const GemmDims d{s.by, s.bx, 256};
  Matrixf a(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.k));
  Matrixf b(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
  Matrixf c(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  fill_random(a, rng);
  fill_random(b, rng);
  const GemmOperands g = operands(a, b, c);
  for (auto _ : state) {
    execute_tile(s, g, 0, 0, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * d.flops());
  state.SetLabel(s.name());
}
BENCHMARK(BM_FunctionalTileGemm)->Arg(1)->Arg(5)->Arg(11);

// ---------------------------------------------- tile pipeline A/B ------
// Same-process A/B of the two ways a tile gets its micro-panels, per
// Table-2 strategy id (DenseRange 0-11), over the full tile grid of a
// Fig. 8-style M=N=K=256 GEMM: staged (execute_tile per tile, each tile
// packing its own micro-panels a chunk of K at a time) vs dispatched
// (execute_plan over the GEMM's uniform_plan, which packs each operand once
// per call). Both run the
// active ISA's micro-kernel serially over the identical grid, so the ratio
// is what per-call packing saves over per-tile staging; on a shared host
// expect +/-50% run-to-run noise, so compare medians of repeated runs.
struct MicroAbFixture {
  Matrixf a, b, c;
  GemmOperands g;
  explicit MicroAbFixture(const GemmDims& d) {
    Rng rng(13);
    a = Matrixf(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.k));
    b = Matrixf(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
    c = Matrixf(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
    fill_random(a, rng);
    fill_random(b, rng);
    g = operands(a, b, c);
  }
};

void BM_ExecuteTileStaged(benchmark::State& state) {
  const auto& s = batched_strategy_by_id(static_cast<int>(state.range(0)));
  const GemmDims d{256, 256, 256};
  MicroAbFixture f(d);
  const int ty_count = (d.m + s.by - 1) / s.by;
  const int tx_count = (d.n + s.bx - 1) / s.bx;
  for (auto _ : state) {
    for (int ty = 0; ty < ty_count; ++ty)
      for (int tx = 0; tx < tx_count; ++tx)
        execute_tile(s, f.g, ty, tx, 1.0f, 0.0f);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() * d.flops());
  state.SetLabel(s.name() + " isa=" + simd_isa_name(active_simd_isa()));
}
BENCHMARK(BM_ExecuteTileStaged)->DenseRange(0, 11);

// The B side: the same grid through execute_plan, which audits the plan,
// packs both operands and then runs every tile's dispatched accumulate ->
// store, under
// the ISA of arg 1 (0 scalar, 1 neon, 2 avx2, 3 avx512; ISAs the host
// cannot run are skipped) — that ISA's micro-kernel over every tile's
// 16x16 micro-tiles. Packing is inside the timed loop, as in every
// executor call (BM_PackPanels times it alone); one worker runs the call.
// The label carries the ISA that ran.
void BM_ExecuteTileDispatched(benchmark::State& state) {
  const auto& s = batched_strategy_by_id(static_cast<int>(state.range(0)));
  const auto isa = static_cast<SimdIsa>(state.range(1));
  ScopedSimdIsa isa_scope(isa);
  // A request above the host clamps; one it cannot run (neon on x86-64)
  // has no micro-kernel.
  if (active_simd_isa() != isa || simd_micro_kernel(isa) == nullptr) {
    state.SkipWithError("ISA not runnable on this host");
    return;
  }
  const GemmDims d{256, 256, 256};
  MicroAbFixture f(d);
  const BatchPlan plan = uniform_plan({&d, 1}, s);
  ScopedParallelThreads serial(1);
  for (auto _ : state) {
    execute_plan(plan, {&f.g, 1}, 1.0f, 0.0f);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() * d.flops());
  state.SetLabel(s.name() + " isa=" + simd_isa_name(isa) + " +pack");
}
BENCHMARK(BM_ExecuteTileDispatched)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, {0, 1, 2, 3}});

// Cost of the packing pass itself (the per-call work the specialized path
// adds before a GEMM's first tile): both micro-panel sets packed into
// reused buffers, as the executors' per-thread arena does. The layout does
// not depend on the strategy. Arg 0 selects the storage layout of both
// operands (0 = N, 1 = T; the square fixture reads either way), covering
// all four fp32 copy paths. Arg 1 selects the GEMM: 0 = 256^3,
// 1 = 208x196x864 (inception 4a's 3x3 conv at batch 1, an inception-infer
// stage-2 GEMM), whose M and N leave a ragged micro-panel edge.
void BM_PackPanels(benchmark::State& state) {
  const GemmDims d = state.range(1) != 0 ? GemmDims{208, 196, 864}
                                         : GemmDims{256, 256, 256};
  MicroAbFixture f(d);
  f.g.op_a = f.g.op_b = state.range(0) != 0 ? Op::kT : Op::kN;
  std::vector<float> a(panel_set_floats(PanelSide::kA, d));
  std::vector<float> b(panel_set_floats(PanelSide::kB, d));
  for (auto _ : state) {
    pack_panel_set(PanelSide::kA, f.g, a.data());
    pack_panel_set(PanelSide::kB, f.g, b.data());
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long long>(pack_footprint_bytes(d)));
  state.SetLabel(std::string(state.range(0) != 0 ? "TT " : "NN ") +
                 std::to_string(d.m) + "x" + std::to_string(d.n) + "x" +
                 std::to_string(d.k));
}
BENCHMARK(BM_PackPanels)->ArgsProduct({{0, 1}, {0, 1}});

void BM_ReferenceGemmBlocked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  Matrixf a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  Matrixf b(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  Matrixf c(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  fill_random(a, rng);
  fill_random(b, rng);
  for (auto _ : state) {
    gemm_blocked(a, b, c, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_ReferenceGemmBlocked)->Arg(64)->Arg(256);

// One image on real GoogLeNet shapes: the inception 3a 1x1, 3x3 and 5x5
// convs, inception 4e's 3x3 and the stride-2 7x7 conv1.
const ConvShape& googlenet_lowering_shape(std::int64_t i) {
  const auto& m3a = googlenet_inception_modules().front();
  const auto& m4e = googlenet_inception_modules().at(6);
  const std::array<const ConvShape*, 5> shapes = {
      &m3a.conv1x1, &m3a.conv3x3, &m3a.conv5x5, &m4e.conv3x3,
      &googlenet_stem_convs().front()};
  return *shapes.at(static_cast<std::size_t>(i));
}

// im2col on googlenet_lowering_shape. Bytes are those of the column matrix
// written.
void BM_Im2col(benchmark::State& state) {
  const ConvShape& s = googlenet_lowering_shape(state.range(0));
  Rng rng(3);
  Tensor4 input(1, s.in_c, s.in_h, s.in_w);
  fill_random(input, rng);
  for (auto _ : state) {
    const Matrixf cols = im2col(s, input);
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
  const GemmDims d = s.gemm_dims(1);
  state.SetBytesProcessed(state.iterations() * static_cast<long long>(d.k) *
                          d.n * static_cast<long long>(sizeof(float)));
  state.SetLabel(s.name);
}
BENCHMARK(BM_Im2col)->DenseRange(0, 4);

// The B panel set of an implicit-GEMM conv packed straight from the input
// tensor, on BM_Im2col's shapes: what the executor does in place of
// im2col followed by packing the column matrix. Bytes are those of the
// panel set written.
void BM_PackConvB(benchmark::State& state) {
  const ConvShape& s = googlenet_lowering_shape(state.range(0));
  const GemmDims d = s.gemm_dims(1);
  Rng rng(3);
  Tensor4 input(1, s.in_c, s.in_h, s.in_w);
  fill_random(input, rng);
  const Matrixf filters = random_filters(s, rng);
  Matrixf out(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  const GemmOperands g = implicit_conv_operands(s, input, filters, out);
  std::vector<float> panels(panel_set_floats(PanelSide::kB, d));
  for (auto _ : state) {
    pack_panel_set(PanelSide::kB, g, panels.data());
    benchmark::DoNotOptimize(panels.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long long>(panels.size() *
                                                 sizeof(float)));
  state.SetLabel(s.name);
}
BENCHMARK(BM_PackConvB)->DenseRange(0, 4);

void BM_ForestPredict(benchmark::State& state) {
  RfTrainingConfig config;
  config.num_cases = 80;
  config.forest.num_trees = 32;
  config.ranges.max_batch = 16;
  config.ranges.max_mn = 256;
  config.ranges.max_k = 512;
  const RandomForest forest = train_batching_forest(config);
  const std::vector<double> features{128.0, 128.0, 64.0, 16.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(features));
  }
  state.SetLabel("online selector cost (paper: 7-8 comparisons)");
}
BENCHMARK(BM_ForestPredict);

// ------------------------------------------------ executor parallelism ----
// Fig. 9-style variable-K batch (M=N=128, K sweeping 16..2048) used by the
// executor-throughput and thread-scaling benchmarks. Built once; the
// operands point into the fixture's own matrices.
struct ExecutorFixture {
  std::vector<GemmDims> dims;
  std::vector<Matrixf> a, b, c;
  std::vector<GemmOperands> ops;
  PlanSummary summary;
  long long flops = 0;
};

const ExecutorFixture& executor_fixture() {
  static const ExecutorFixture* fixture = [] {
    auto* f = new ExecutorFixture;
    const std::vector<int> ks = {16, 32, 64, 128, 256, 512, 1024, 2048};
    for (int i = 0; i < 16; ++i)
      f->dims.push_back(GemmDims{128, 128, ks[static_cast<std::size_t>(i) %
                                              ks.size()]});
    Rng rng(7);
    for (const auto& d : f->dims) {
      f->a.emplace_back(static_cast<std::size_t>(d.m),
                        static_cast<std::size_t>(d.k));
      f->b.emplace_back(static_cast<std::size_t>(d.k),
                        static_cast<std::size_t>(d.n));
      f->c.emplace_back(static_cast<std::size_t>(d.m),
                        static_cast<std::size_t>(d.n));
      fill_random(f->a.back(), rng);
      fill_random(f->b.back(), rng);
      f->flops += d.flops();
    }
    for (std::size_t i = 0; i < f->dims.size(); ++i)
      f->ops.push_back(operands(f->a[i], f->b[i], f->c[i]));
    const BatchedGemmPlanner planner;
    f->summary = planner.plan(f->dims);
    return f;
  }();
  return *fixture;
}

// Thread scaling of the persistent-threads executor over the variable-K
// batch: the per-thread speedup curve is the perf-trajectory metric for the
// host parallel engine.
void BM_RunBatchedPlanThreads(benchmark::State& state) {
  const ExecutorFixture& f = executor_fixture();
  ScopedParallelThreads guard(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    execute_plan(f.summary.plan, f.ops, 1.0f, 0.0f);
    benchmark::DoNotOptimize(const_cast<Matrixf&>(f.c.front()).data());
  }
  state.SetItemsProcessed(state.iterations() * f.flops);
  state.SetLabel(std::to_string(f.summary.plan.num_blocks()) + " blocks, " +
                 std::to_string(state.range(0)) + " threads");
}
BENCHMARK(BM_RunBatchedPlanThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Host cost of split-K plans: the same tiles of a tall-skinny, deep-K batch
// (GEMMs 512x64x1024 and 384x64x768 under the 64x64 strategy), one tile per
// block, unsplit (arg 1) and split into 2, 4 and 8 K slices, at one
// worker. The sweep runs a split tile's whole chain at its first slice and
// skips the rest, so every arg does the same arithmetic; a gap between
// args is what the split plan's extra entries cost the host.
void BM_RunSplitPlan(benchmark::State& state) {
  const std::vector<GemmDims> dims = {{512, 64, 1024}, {384, 64, 768}};
  const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k256);
  const std::vector<const TilingStrategy*> strategies(dims.size(), &s);
  std::vector<std::vector<Tile>> blocks;
  for (const Tile& t : split_tiles_k(enumerate_tiles(dims, strategies),
                                     static_cast<int>(state.range(0))))
    blocks.push_back({t});
  const BatchPlan plan = build_plan(blocks, s.threads);
  std::vector<MicroAbFixture> gemms;
  gemms.reserve(dims.size());  // each fixture's operands point into it
  for (const GemmDims& d : dims) gemms.emplace_back(d);
  std::vector<GemmOperands> ops;
  long long flops = 0;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    ops.push_back(gemms[i].g);
    flops += dims[i].flops();
  }
  ScopedParallelThreads serial(1);
  for (auto _ : state) {
    execute_plan(plan, ops, 1.0f, 0.0f);
    benchmark::DoNotOptimize(gemms.front().c.data());
  }
  state.SetItemsProcessed(state.iterations() * flops);
  state.SetLabel(std::to_string(plan.num_blocks()) + " blocks");
}
BENCHMARK(BM_RunSplitPlan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// inception-train's data-gradient dispatch as perfbench runs it: four TN
// GEMMs dx = w^T dy of 256 x 3136 x {128, 128, 32, 64}, planned once by the
// default planner and run at one worker. Every dx is a 3.2 MB C whose rows
// are whole cache lines, so under AVX2 and AVX-512 its tile stores stream
// past the cache (kStreamStoreBytes): this prices the store outside
// perfbench.
void BM_RunLargeOutput(benchmark::State& state) {
  constexpr int kInC = 256, kCols = 3136;
  constexpr std::array<int, 4> kOutC = {128, 128, 32, 64};
  Rng rng(11);
  std::vector<Matrixf> w, dy, dx;
  for (const int oc : kOutC) {
    w.emplace_back(oc, kInC);
    dy.emplace_back(oc, kCols);
    dx.emplace_back(kInC, kCols);
    fill_random(w.back(), rng);
    fill_random(dy.back(), rng);
  }
  std::vector<GemmOperands> ops;
  std::vector<GemmDims> dims;
  long long flops = 0;
  for (std::size_t i = 0; i < kOutC.size(); ++i) {
    ops.push_back(operands(w[i], dy[i], dx[i], Op::kT, Op::kN));
    dims.push_back(ops.back().dims);
    flops += dims.back().flops();
  }
  const PlanSummary summary = BatchedGemmPlanner{}.plan(dims);
  ScopedParallelThreads serial(1);
  for (auto _ : state) {
    execute_plan(summary.plan, ops, 1.0f, 0.0f);
    benchmark::DoNotOptimize(dx.front().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * flops);
  state.SetLabel(std::to_string(summary.plan.num_blocks()) + " blocks");
}
BENCHMARK(BM_RunLargeOutput)->Unit(benchmark::kMillisecond);

// Same batch as the vbatch grid: every GEMM under the 64x64 tile, one tile
// per block.
void BM_RunVbatchThreads(benchmark::State& state) {
  const ExecutorFixture& f = executor_fixture();
  const BatchPlan plan = uniform_plan(
      f.dims, batched_strategy(TileShape::kLarge, ThreadVariant::k256));
  ScopedParallelThreads guard(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    execute_plan(plan, f.ops, 1.0f, 0.0f);
    benchmark::DoNotOptimize(const_cast<Matrixf&>(f.c.front()).data());
  }
  state.SetItemsProcessed(state.iterations() * f.flops);
}
BENCHMARK(BM_RunVbatchThreads)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Whole-GEMM executor throughput at the default thread count (FLOP/s label
// via items processed).
void BM_RunSingleGemmExecutor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  const GemmDims d{n, n, 256};
  Matrixf a(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.k));
  Matrixf b(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
  Matrixf c(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  fill_random(a, rng);
  fill_random(b, rng);
  const GemmOperands g = operands(a, b, c);
  const BatchPlan plan = uniform_plan(
      {&d, 1}, batched_strategy(TileShape::kLarge, ThreadVariant::k256));
  for (auto _ : state) {
    execute_plan(plan, {&g, 1}, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * d.flops());
  state.SetLabel(std::to_string(parallel_max_threads()) + " threads");
}
BENCHMARK(BM_RunSingleGemmExecutor)->Arg(256)->Arg(512)->UseRealTime();

void BM_MagmaVbatchSim(benchmark::State& state) {
  const std::vector<GemmDims> dims(static_cast<std::size_t>(state.range(0)),
                                   GemmDims{128, 128, 256});
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_magma_timed(arch, dims));
  }
}
BENCHMARK(BM_MagmaVbatchSim)->Arg(16)->Arg(256);

// The price of one stage span: Arg 0 with telemetry disabled (the default
// path: one enabled() check), Arg 1 enabled (two clock reads, one
// `<name>_ns` histogram record and one flight event). This is the number to
// weigh before stage spans become always-on.
void BM_ScopedSpan(benchmark::State& state) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    CTB_TEL_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  telemetry::set_enabled(was_enabled);
}
BENCHMARK(BM_ScopedSpan)->Arg(0)->Arg(1);

// One always-on flight-recorder event (one clock read plus the ring write).
void BM_FlightRecord(benchmark::State& state) {
  std::int64_t i = 0;
  for (auto _ : state) {
    telemetry::flight_record(telemetry::FlightKind::kExec, "bench", i++, 0);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FlightRecord);

// Minimal CSV file reporter: when CTB_BENCH_CSV names a file, one row per
// benchmark run lands there alongside the normal console output. (The
// library's own CSVReporter is deprecated, so the few columns the sweep
// scripts need are emitted directly.)
class CsvFileReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override {
    // Same "# isa=...,threads=..." provenance comment the sweep binaries'
    // CsvSink writes, so paired A/B artifacts from different hosts or
    // CTB_SIMD_ISA overrides are self-describing.
    GetOutputStream()
        << "# isa=" << simd_isa_name(ctb::active_simd_isa())
        << ",threads=" << ctb::parallel_max_threads() << '\n'
        << "name,iterations,real_time_s,cpu_time_s,items_per_second,label\n";
    return true;
  }
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      const double iters =
          r.iterations > 0 ? static_cast<double>(r.iterations) : 1.0;
      double items_per_second = 0.0;
      if (const auto it = r.counters.find("items_per_second");
          it != r.counters.end())
        items_per_second = it->second;
      GetOutputStream() << r.benchmark_name() << ',' << r.iterations << ','
                        << r.real_accumulated_time / iters << ','
                        << r.cpu_accumulated_time / iters << ','
                        << items_per_second << ",\"" << r.report_label
                        << "\"\n";
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  // CTB_BENCH_CSV=<file> is sugar for --benchmark_out=<file> with the CSV
  // reporter above; the library opens the file and owns the stream.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  const char* csv_path = std::getenv("CTB_BENCH_CSV");
  const bool want_csv = csv_path != nullptr && *csv_path != '\0';
  if (want_csv) {
    out_flag = std::string("--benchmark_out=") + csv_path;
    args.push_back(out_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::ConsoleReporter display;
  if (want_csv) {
    CsvFileReporter file;
    benchmark::RunSpecifiedBenchmarks(&display, &file);
  } else {
    benchmark::RunSpecifiedBenchmarks(&display);
  }
  benchmark::Shutdown();
  return 0;
}
