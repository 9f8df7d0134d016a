// ctb_bench — canonical perf-suite runner emitting versioned BENCH_<tag>.json
// artifacts with deterministic regression gating (DESIGN.md §8).
//
//   ctb_bench --suite quick                              # write BENCH_local.json
//   ctb_bench --suite quick --compare bench/baselines/quick.json
//   ctb_bench --fold bench/artifacts/                    # GFLOP/s trajectory
//
// Exit status: 0 unless --compare finds a deterministic counter regression
// or a missing workload. Timing deltas are advisory on this host (the
// reference container's wall clock swings by ±50%) and never gate.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "telemetry/perf_report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

// --fold <dir>: folds every BENCH_*.json under `dir` into one per-workload
// GFLOP/s table, one column per artifact ordered by the report's recorded
// created_unix timestamp (ties broken by tag, then filename) — the columns
// read as the perf trajectory in recording order no matter how the files
// were named or copied around. Artifacts that fail to load (older schema,
// truncated file) are skipped with a warning rather than aborting the fold,
// so one stale file does not hide the rest of the history. Timing is
// advisory on this host; the table is for eyeballing trends, not gating.
int fold_reports(const std::string& dir, std::ostream& os) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".json")
      paths.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "error: cannot read directory " << dir << ": "
              << ec.message() << "\n";
    return 2;
  }
  // Deterministic load order (directory iteration order is OS-dependent);
  // the display order below comes from the reports themselves.
  std::sort(paths.begin(), paths.end());

  struct Loaded {
    ctb::perfreport::PerfReport report;
    std::string filename;
  };
  std::vector<Loaded> loaded;
  for (const auto& path : paths) {
    std::ifstream is(path);
    if (!is.good()) {
      std::cerr << "warning: cannot read " << path.string() << ", skipped\n";
      continue;
    }
    try {
      loaded.push_back({ctb::perfreport::load_perf_report(is),
                        path.stem().string()});
    } catch (const ctb::perfreport::PerfReportError& e) {
      std::cerr << "warning: " << path.string() << ": " << e.what()
                << ", skipped\n";
      continue;
    }
  }
  // Trajectory order: when the artifacts were recorded, not how they sort
  // by name. Reports with created_unix == 0 (hand-edited) fall to the front
  // by timestamp and are then ordered by tag/filename.
  std::stable_sort(loaded.begin(), loaded.end(),
                   [](const Loaded& a, const Loaded& b) {
                     if (a.report.created_unix != b.report.created_unix)
                       return a.report.created_unix < b.report.created_unix;
                     if (a.report.tag != b.report.tag)
                       return a.report.tag < b.report.tag;
                     return a.filename < b.filename;
                   });

  std::vector<ctb::perfreport::PerfReport> reports;
  std::vector<std::string> columns;
  for (Loaded& l : loaded) {
    // Column label: the embedded tag, disambiguated by the filename stem
    // when tags repeat (every local run defaults to tag "local").
    std::string label = l.report.tag;
    if (std::count(columns.begin(), columns.end(), label) > 0 ||
        label.empty())
      label = l.filename;
    columns.push_back(label);
    reports.push_back(std::move(l.report));
  }
  if (reports.empty()) {
    std::cerr << "error: no loadable BENCH_*.json artifacts in " << dir
              << "\n";
    return 2;
  }

  // Union of workload names across all artifacts, in sorted order (reports
  // store workloads sorted, so a plain merge keeps determinism).
  std::vector<std::string> workloads;
  for (const auto& r : reports)
    for (const auto& w : r.workloads) workloads.push_back(w.name);
  std::sort(workloads.begin(), workloads.end());
  workloads.erase(std::unique(workloads.begin(), workloads.end()),
                  workloads.end());

  ctb::TextTable table;
  std::vector<std::string> header{"workload (GFLOP/s)"};
  header.insert(header.end(), columns.begin(), columns.end());
  table.set_header(std::move(header));
  for (const auto& name : workloads) {
    std::vector<std::string> row{name};
    for (const auto& r : reports) {
      const auto it =
          std::find_if(r.workloads.begin(), r.workloads.end(),
                       [&](const auto& w) { return w.name == name; });
      row.push_back(it != r.workloads.end() && it->timing.median_us > 0.0
                        ? ctb::TextTable::fmt(it->gflops(), 2)
                        : std::string("-"));
    }
    table.add_row(std::move(row));
  }
  os << reports.size() << " artifacts folded from " << dir << "\n";
  table.print(os);
  return 0;
}

int run(int argc, char** argv) {
  ctb::CliFlags flags;
  flags.define("suite", "quick", "workload suite: quick | full | replay");
  flags.define("repeats", "5", "timing repeats per workload (median-of-k)");
  flags.define("tag", "local", "run label embedded in the report");
  flags.define("out", "", "output path (default BENCH_<tag>.json)");
  flags.define("compare", "", "baseline report to gate against");
  flags.define("noise-band", "0.5",
               "advisory timing band: ratios within 1+/-band are noise");
  flags.define("list", "false", "list the suite's workloads and exit");
  flags.define("fold", "",
               "directory of BENCH_*.json artifacts to fold into a "
               "per-workload GFLOP/s-over-runs table (no suite is run)");
  flags.define("trace-dir", "",
               "directory to write observability artifacts into after the "
               "run: metrics.json (with exemplars) and flight.json "
               "(flight-recorder dump) — feed them to ctb_trace");
  flags.parse(argc, argv);

  const std::string fold_dir = flags.get("fold");
  if (!fold_dir.empty()) return fold_reports(fold_dir, std::cout);

  const std::string suite_name = flags.get("suite");
  const std::vector<ctb::bench::BenchWorkload> suite =
      ctb::bench::perf_suite(suite_name);
  if (suite.empty()) {
    std::cerr << "error: unknown suite '" << suite_name
              << "' (available: quick, full, replay)\n";
    return 2;
  }

  if (flags.get_bool("list")) {
    for (const auto& w : suite)
      std::cout << w.name << " (" << w.dims.size() << " GEMMs, "
                << ctb::batch_flops(w.dims) << " flops)\n";
    return 0;
  }

  const int repeats = static_cast<int>(flags.get_int("repeats"));
  if (repeats < 1) {
    std::cerr << "error: --repeats must be >= 1\n";
    return 2;
  }
  const std::string tag = flags.get("tag");
  std::string out_path = flags.get("out");
  if (out_path.empty()) out_path = "BENCH_" + tag + ".json";

  std::cout << "running suite '" << suite_name << "' (" << suite.size()
            << " workloads, " << repeats << " repeats each)\n";
  const ctb::perfreport::PerfReport report =
      ctb::bench::run_perf_suite(suite, suite_name, tag, repeats, &std::cout);

  {
    std::ofstream os(out_path);
    if (!os.good()) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 2;
    }
    ctb::perfreport::write_perf_report_json(os, report);
  }
  std::cout << "report written to " << out_path << "\n";

  // --trace-dir: drop the whole-run observability bundle next to the perf
  // report. The flight recorder is always on, so flight.json holds the last
  // events of every thread even though the suite runner restored the
  // telemetry enabled-flag above.
  const std::string trace_dir = flags.get("trace-dir");
  if (!trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec) {
      std::cerr << "error: cannot create " << trace_dir << ": "
                << ec.message() << "\n";
      return 2;
    }
    const auto snap = ctb::telemetry::snapshot();
    const auto write_artifact = [&](const char* name, auto&& body) -> bool {
      const std::filesystem::path p =
          std::filesystem::path(trace_dir) / name;
      std::ofstream os(p);
      if (!os.good()) {
        std::cerr << "error: cannot write " << p.string() << "\n";
        return false;
      }
      body(os);
      std::cout << "trace artifact written to " << p.string() << "\n";
      return true;
    };
    const bool ok =
        write_artifact("metrics.json",
                       [&](std::ostream& os) {
                         ctb::telemetry::write_metrics_json(os, snap);
                       }) &&
        write_artifact("flight.json", [&](std::ostream& os) {
          ctb::telemetry::write_flight_json(
              os, ctb::telemetry::flight_events());
        });
    if (!ok) return 2;
  }

  const std::string baseline_path = flags.get("compare");
  if (baseline_path.empty()) return 0;

  std::ifstream is(baseline_path);
  if (!is.good()) {
    std::cerr << "error: cannot read baseline " << baseline_path << "\n";
    return 2;
  }
  const ctb::perfreport::PerfReport baseline =
      ctb::perfreport::load_perf_report(is);
  ctb::perfreport::CompareOptions opts;
  opts.noise_band = flags.get_double("noise-band");
  const ctb::perfreport::CompareResult cmp =
      ctb::perfreport::compare_reports(baseline, report, opts);
  ctb::perfreport::print_comparison(std::cout, cmp, opts);
  return cmp.hard_fail() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
