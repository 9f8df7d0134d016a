// ctb_plan — command-line front end to the planner and simulator.
//
// Give it a batch of GEMM shapes and it prints the tiling decisions, the
// batching plan, and a simulated comparison against every baseline:
//
//   ctb_plan 16x32x128,64x64x64,256x256x64
//   ctb_plan --random 32 --seed 7 --gpu p100 --policy binary
//   ctb_plan 64x64x64 --dump-plan plan.txt
//   ctb_plan 64x64x64 --trace out.json        # chrome://tracing schedule +
//                                             # host telemetry + metrics
#include <fstream>
#include <iostream>
#include <sstream>

#include "baselines/baselines.hpp"
#include "core/plan_io.hpp"
#include "gpusim/trace.hpp"
#include "kernels/work_builder.hpp"
#include "core/rf_policy.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace ctb;

std::vector<GemmDims> parse_shapes(const std::string& spec) {
  std::vector<GemmDims> dims;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    GemmDims d;
    char x1 = 0, x2 = 0;
    std::stringstream is(item);
    is >> d.m >> x1 >> d.n >> x2 >> d.k;
    CTB_CHECK_MSG(!is.fail() && x1 == 'x' && x2 == 'x' && d.valid(),
                  "bad GEMM spec '" << item << "' (expected MxNxK)");
    dims.push_back(d);
  }
  CTB_CHECK_MSG(!dims.empty(), "no GEMM shapes given");
  return dims;
}

GpuModel parse_gpu(const std::string& name) {
  for (GpuModel m : all_gpu_models())
    if (name == to_string(m)) return m;
  for (GpuModel m : all_gpu_models()) {
    std::string lower = to_string(m);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (name == lower) return m;
  }
  CTB_CHECK_MSG(false, "unknown GPU '" << name
                                       << "' (v100, p100, gtx1080ti, "
                                          "titanxp, m60, gtxtitanx)");
  return GpuModel::kV100;
}

BatchingPolicy parse_policy(const std::string& name) {
  if (name == "auto") return BatchingPolicy::kAutoOffline;
  if (name == "threshold") return BatchingPolicy::kThresholdOnly;
  if (name == "binary") return BatchingPolicy::kBinaryOnly;
  if (name == "tiling-only") return BatchingPolicy::kTilingOnly;
  CTB_CHECK_MSG(false, "unknown policy '" << name
                                          << "' (auto, threshold, binary, "
                                             "tiling-only)");
  return BatchingPolicy::kAutoOffline;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ctb;
  CliFlags flags;
  flags.define("random", "0", "generate N random GEMMs instead of parsing");
  flags.define("seed", "1", "seed for --random");
  flags.define("gpu", "V100", "architecture preset");
  flags.define("policy", "auto", "auto|threshold|binary|tiling-only");
  flags.define("dump-plan", "", "write the plan (aux arrays) to this file");
  flags.define("check-plan", "",
               "load a saved plan and validate it against the given shapes");
  flags.define("trace", "",
               "write a chrome://tracing JSON of the simulated schedule and "
               "the host planning spans (metrics land in <file>.metrics.json)");
  flags.define("metrics", "",
               "write the telemetry metrics snapshot (JSON) to this file");
  flags.define("show-plan", "false", "print the aux arrays");

  std::vector<std::string> positional;
  try {
    positional = flags.parse(argc, argv);
  } catch (const CheckError& e) {
    std::cerr << e.what() << "\n\n" << flags.usage("ctb_plan");
    return 2;
  }

  try {
    std::vector<GemmDims> dims;
    if (flags.get_int("random") > 0) {
      Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
      CaseRanges ranges;
      ranges.min_batch = ranges.max_batch =
          static_cast<int>(flags.get_int("random"));
      dims = random_batch(rng, ranges);
    } else {
      CTB_CHECK_MSG(!positional.empty(),
                    "give GEMM shapes (MxNxK,...) or --random N");
      dims = parse_shapes(positional.front());
    }

    const std::string check_path = flags.get("check-plan");
    if (!check_path.empty()) {
      std::ifstream in(check_path);
      CTB_CHECK_MSG(in.good(), "cannot read " << check_path);
      const BatchPlan plan = load_plan(in);
      validate_plan(plan, dims);
      std::cout << check_path << " OK: " << plan.num_tiles() << " tiles in "
                << plan.num_blocks() << " blocks of " << plan.block_threads
                << " threads, valid for this batch\n";
      return 0;
    }

    PlannerConfig config;
    config.gpu = parse_gpu(flags.get("gpu"));
    config.policy = parse_policy(flags.get("policy"));

    const std::string trace_path = flags.get("trace");
    std::string metrics_path = flags.get("metrics");
    if (metrics_path.empty() && !trace_path.empty())
      metrics_path = trace_path + ".metrics.json";
    if (!metrics_path.empty()) telemetry::set_enabled(true);

    const BatchedGemmPlanner planner(config);
    const GpuArch& arch = planner.arch();
    PlanCache cache(config);
    const PlanSummary& s = cache.plan(dims);
    validate_plan(s.plan, dims);

    std::cout << "batch of " << dims.size() << " GEMMs on " << arch.name
              << " (policy " << to_string(config.policy) << ")\n\n";

    TextTable tiles;
    tiles.set_header({"GEMM", "M", "N", "K", "strategy", "tiles"});
    for (std::size_t i = 0; i < dims.size() && i < 20; ++i) {
      const auto& st = *s.tiling.per_gemm[i];
      tiles.add_row({TextTable::fmt(static_cast<int>(i)),
                     TextTable::fmt(dims[i].m), TextTable::fmt(dims[i].n),
                     TextTable::fmt(dims[i].k), st.name(),
                     TextTable::fmt(static_cast<long long>(
                         st.tiles_for(dims[i].m, dims[i].n)))});
    }
    if (dims.size() > 20)
      tiles.add_row({"...", "", "", "", "", ""});
    tiles.print(std::cout);
    std::cout << "\nTLP " << s.tiling.tlp << " (threshold "
              << planner.config().tlp_threshold << "), heuristic "
              << to_string(s.heuristic) << ": " << s.plan.num_tiles()
              << " tiles in " << s.plan.num_blocks() << " blocks of "
              << s.plan.block_threads << " threads, " << s.plan.smem_bytes
              << " B smem, " << s.plan.regs_per_thread << " regs/thread\n\n";

    const TimedResult ours = time_plan(arch, s.plan, dims);
    TextTable cmp;
    cmp.set_header({"execution", "time(us)", "GFLOP/s", "vs ours"});
    auto row = [&](const char* name, double us, double gflops) {
      cmp.add_row({name, TextTable::fmt(us, 1), TextTable::fmt(gflops, 0),
                   TextTable::fmt(us / ours.time_us, 2)});
    };
    const BaselineResult dflt = run_default_timed(arch, dims);
    const BaselineResult cke =
        run_cke_timed(arch, dims, static_cast<int>(dims.size()));
    const BaselineResult magma = run_magma_timed(arch, dims);
    row("default (per-GEMM kernels)", dflt.time_us, dflt.sim.achieved_gflops);
    row("concurrent kernels", cke.time_us, cke.sim.achieved_gflops);
    row("MAGMA vbatch", magma.time_us, magma.sim.achieved_gflops);
    row("this framework", ours.time_us, ours.sim.achieved_gflops);
    cmp.print(std::cout);

    if (flags.get_bool("show-plan")) std::cout << '\n' << to_string(s.plan);
    if (!trace_path.empty()) {
      ExecutionTrace trace;
      const KernelWork work = work_from_plan(s.plan, dims);
      simulate_kernel(arch, work, &trace);
      std::ofstream os(trace_path);
      CTB_CHECK_MSG(os.good(), "cannot write " << trace_path);
      // One file, two timelines: the simulated device schedule (pid 0) and
      // the host planning spans (pid 1).
      os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
            "{\"name\":\"clock_sync\",\"ph\":\"M\",\"pid\":0,"
            "\"args\":{\"source\":\"ctb_plan\"}}";
      append_chrome_trace_events(os, trace, arch, 0);
      telemetry::append_chrome_trace_events(os, telemetry::flight_events(), 1);
      os << "\n]}\n";
      std::cout << "\nschedule trace written to " << trace_path
                << " (open in chrome://tracing)\n";
    }
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      CTB_CHECK_MSG(os.good(), "cannot write " << metrics_path);
      telemetry::write_metrics_json(os, telemetry::snapshot());
      std::cout << (trace_path.empty() ? "\n" : "")
                << "metrics snapshot written to " << metrics_path << '\n';
    }
    const std::string dump = flags.get("dump-plan");
    if (!dump.empty()) {
      std::ofstream os(dump);
      CTB_CHECK_MSG(os.good(), "cannot write " << dump);
      save_plan(os, s.plan);
      std::cout << "\nplan written to " << dump << '\n';
    }
  } catch (const CheckError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
