#include "baselines/baselines.hpp"

#include <algorithm>
#include <vector>

#include "core/perf_model.hpp"
#include "core/tiling_engine.hpp"
#include "kernels/work_builder.hpp"
#include "util/assert.hpp"

namespace ctb {

const TilingStrategy& single_gemm_heuristic(const GemmDims& dims,
                                            const GpuArch& arch) {
  CTB_CHECK(dims.valid());
  const TilingStrategy* best = nullptr;
  double best_score = -1.0;
  for (const auto& s : single_gemm_strategies()) {
    if (s.by > dims.m && s.shape != TileShape::kSmall) continue;
    if (s.bx > dims.n && s.shape != TileShape::kSmall) continue;
    const double tiles = static_cast<double>(s.tiles_for(dims.m, dims.n));
    const double tlp_factor =
        std::min(1.0, tiles / (2.0 * arch.sm_count));
    const double score = tlp_factor * arithmetic_intensity(s);
    if (score >= best_score) {  // >= so ties prefer the larger tile
      best_score = score;
      best = &s;
    }
  }
  CTB_CHECK(best != nullptr);
  return *best;
}

namespace {

std::vector<KernelWork> per_gemm_kernels(const GpuArch& arch,
                                         std::span<const GemmDims> batch) {
  std::vector<KernelWork> kernels;
  kernels.reserve(batch.size());
  for (const auto& d : batch)
    kernels.push_back(work_single_gemm(d, single_gemm_heuristic(d, arch)));
  return kernels;
}

void check_same_size(std::span<const GemmDims> batch) {
  CTB_CHECK(!batch.empty());
  for (const auto& d : batch)
    CTB_CHECK_MSG(d == batch.front(),
                  "cublasSgemmBatched-style API requires identical M, N, K "
                  "across the batch");
}

}  // namespace

BaselineResult run_default_timed(const GpuArch& arch,
                                 std::span<const GemmDims> batch) {
  CTB_CHECK(!batch.empty());
  const std::vector<KernelWork> kernels = per_gemm_kernels(arch, batch);
  BaselineResult r;
  r.sim = simulate_serial(arch, kernels);
  r.time_us = r.sim.makespan_us;  // simulate_serial includes launch gaps
  return r;
}

BaselineResult run_cke_timed(const GpuArch& arch,
                             std::span<const GemmDims> batch,
                             int num_streams) {
  CTB_CHECK(!batch.empty());
  CTB_CHECK(num_streams >= 1);
  const std::vector<KernelWork> kernels = per_gemm_kernels(arch, batch);
  BaselineResult r;
  r.sim = simulate_concurrent(arch, kernels, num_streams);
  r.time_us = r.sim.makespan_us;
  return r;
}

BaselineResult run_samesize_batched_timed(const GpuArch& arch,
                                          std::span<const GemmDims> batch) {
  check_same_size(batch);
  // Identical sizes mean the vbatch grid has no bubbles; the kernel is the
  // same one MAGMA uses, with the uniform single-GEMM tile choice.
  const TilingStrategy& s = single_gemm_heuristic(batch.front(), arch);
  // cublasSgemmBatched-quality kernels are fully pipelined.
  const KernelWork work = work_vbatch(batch, s, /*double_buffered=*/true);
  BaselineResult r;
  r.sim = simulate_kernel(arch, work);
  r.time_us = r.sim.makespan_us + arch.kernel_launch_us;
  return r;
}

BaselineResult run_magma_timed(const GpuArch& arch,
                               std::span<const GemmDims> batch) {
  CTB_CHECK(!batch.empty());
  const TilingStrategy& s = magma_uniform_strategy(batch);
  // MAGMA's gemm_template kernels register-prefetch across iterations, so
  // they are modeled as pipelined; beyond the uniform tiling, one tile per
  // block, bubbles, and idle threads, the generic template costs ~20% extra
  // main-loop issue slots versus a hand-tuned kernel.
  const KernelWork work = work_vbatch(batch, s, /*double_buffered=*/true,
                                      /*code_efficiency=*/0.8);
  BaselineResult r;
  r.sim = simulate_kernel(arch, work);
  r.time_us = r.sim.makespan_us + arch.kernel_launch_us;
  return r;
}

}  // namespace ctb
