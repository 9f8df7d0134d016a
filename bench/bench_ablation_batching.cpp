// Ablation: batching heuristics (Section 5).
//
// Compares one-tile-per-block, threshold batching (TLP-first), binary
// batching (ILP-first), and the offline best-of-both across K and batch
// sweeps, reporting each heuristic's win region and the price of always
// picking one. Also sweeps theta, the per-block workload threshold.
#include <iostream>

#include <algorithm>

#include "bench_common.hpp"

int main() {
  using namespace ctb;
  using namespace ctb::bench;
  const GpuArch& arch = gpu_arch(GpuModel::kV100);

  std::cout << "=== Heuristic comparison across K (M=N=128) ===\n";
  for (int batch : {16, 256}) {
    std::cout << "\n--- batch=" << batch << " ---\n";
    TextTable t;
    t.set_header({"K", "none(us)", "threshold(us)", "binary(us)", "winner"});
    for (int k : sweep_k()) {
      const auto dims = equal_case(batch, 128, k);
      const double none = time_ours(arch, dims, BatchingPolicy::kTilingOnly);
      const double thr =
          time_ours(arch, dims, BatchingPolicy::kThresholdOnly);
      const double bin = time_ours(arch, dims, BatchingPolicy::kBinaryOnly);
      const double best = std::min({none, thr, bin});
      const char* winner = best == none  ? "none"
                           : best == thr ? "threshold"
                                         : "binary";
      t.add_row({TextTable::fmt(k), TextTable::fmt(none, 1),
                 TextTable::fmt(thr, 1), TextTable::fmt(bin, 1), winner});
    }
    t.print(std::cout);
  }

  std::cout << "\n=== Theta sweep (batch=256, M=N=128, K=32) ===\n";
  TextTable t2;
  t2.set_header({"theta", "threshold-batch blocks", "time(us)"});
  const auto dims = equal_case(256, 128, 32);
  for (int theta : {64, 128, 256, 512, 1024}) {
    PlannerConfig config;
    config.theta = theta;
    config.policy = BatchingPolicy::kThresholdOnly;
    const BatchedGemmPlanner planner(config);
    const PlanSummary s = planner.plan(dims);
    const TimedResult r = time_plan(arch, s.plan, dims);
    t2.add_row({TextTable::fmt(theta),
                TextTable::fmt(s.plan.num_blocks()),
                TextTable::fmt(r.time_us, 1)});
  }
  t2.print(std::cout);
  std::cout << "\nPaper reference: theta = 256 on V100; batching along K "
               "helps once blocks exceed what the GPU can hold, hurts when "
               "TLP is scarce (the two heuristics trade exactly this).\n";
  return 0;
}
