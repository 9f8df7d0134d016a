// ctb::perfreport — versioned performance-report artifacts with
// deterministic regression gating (DESIGN.md §8).
//
// A report (`BENCH_<tag>.json`) captures one run of a canonical workload
// suite: per workload, wall-clock timing statistics (median-of-k with IQR —
// advisory, since host timing on the 1-core reference container swings by
// ±50%) next to **deterministic work counters** harvested from telemetry
// snapshot deltas (dispatch mix, packed panels/bytes, PlanCache hits,
// fallbacks, FLOPs). Counter values are bit-deterministic functions of the
// workload definitions, so `compare_reports` can demand exact equality
// there — a changed dispatch mix or cache hit rate is a hard regression on
// any host — while timing deltas only classify as advisory noise /
// regression against a configurable noise band.
//
// This module is deliberately at the bottom of the stack (depends only on
// ctb_telemetry): it defines the artifact schema, canonical serialization,
// and the comparison algebra. Building a report from live workloads lives
// above it — `bench/bench_common.hpp` defines the suites and the runner,
// and `tools/ctb_bench.cpp` is the CLI.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace ctb::perfreport {

/// Bumped whenever the JSON schema changes shape; load_perf_report rejects
/// reports from other versions (a baseline must be regenerated knowingly).
/// v2: added the report-level "simd_isa" field and the exec.simd.* and
/// cross-call pack-cache counters to the gated allowlist.
/// v3: added the service.* counters (plan-service state machine) to the
/// gated allowlist and the optional per-workload "lookup" latency object
/// (count + p50/p95/p99 µs, advisory — wall-clock, never gated) emitted by
/// the replay suite.
/// v4: added the split-K counters (exec.splitk.* and plan.splitk.*) to the
/// gated allowlist; both the executor-side slice accounting and the
/// planner's candidate sweep are pure functions of the workload, so they
/// compare exactly across hosts.
/// v5: added the fused-epilogue counters (exec.epilogue.fused,
/// exec.epilogue.ops, exec.c.passes) and the grouped-dispatch counters
/// (plan.grouped.*) to the gated allowlist, plus the report-level
/// "created_unix" timestamp that `ctb_bench --fold` orders artifacts by.
/// v6: added the span-drop counter (tel.spans.*) to the gated allowlist —
/// span-buffer overflow was previously invisible in reports; the expected
/// value in any healthy suite run is exactly 0, so a regression means an
/// instrumented loop outgrew the per-thread buffer cap.
/// v7: removed the five pack-cache counters from the gated allowlist along
/// with the cross-call pack cache they counted; packed panels now live
/// exactly one executor call.
/// v8: removed the span-drop counter from the gated allowlist along with
/// the span buffers it counted; spans are flight-recorder events now, and
/// their durations are the ungated `<name>_ns` histograms.
/// v9: exec.pack.{panels,bytes,reuse} count 16x16 micro-panels: operands
/// pack as strategy-independent micro-panel sets, so `panels` and `bytes`
/// add up the distinct micro-panel sets a call packed and `reuse` is the
/// micro-panels its packed tiles read minus the distinct ones packed. The
/// names and every other counter are unchanged.
/// v10: added the optional per-workload "sim" object (the simulated clock
/// of the plan the workload ran, MAGMA vbatch's over the same dims, and
/// their ratio; V100 preset), gated exactly like a counter, and the
/// plan.auto.{none,uniform}_wins counters of auto-offline's two
/// one-tile-per-block candidates to the gated allowlist.
/// v11: removed plan.heuristic.packed from the gated allowlist along with
/// the packed batching heuristic; plan.heuristic.* and the batching.*
/// histograms describe only the plan the planner returns.
/// v12: removed service.filter.reject and service.deadline_miss from the
/// gated allowlist along with the plan service's membership filter and
/// deadline worker. Every service probe is now a PlanCache::lookup, so
/// cache.miss counts service misses too.
/// v13: removed the report-level flag that said whether the producing build
/// compiled telemetry in, along with the build that compiled it out; every
/// report carries counters, and compare_reports always gates them.
inline constexpr int kSchemaVersion = 13;

/// Wall-clock statistics over one workload's k repeats. Median-of-k with
/// interquartile range: the median resists the reference container's timing
/// outliers and the IQR records how noisy the run itself was.
struct TimingStats {
  double median_us = 0.0;
  double iqr_us = 0.0;  ///< q75 - q25 (nearest-rank quartiles)
  double min_us = 0.0;
  double max_us = 0.0;

  /// Nearest-rank median/quartiles of the samples. Empty input -> all zero.
  static TimingStats from_samples(std::vector<double> samples_us);
};

/// One deterministic histogram harvested into a report: integral shape
/// stats plus the bucket-derived percentile estimates (bit-deterministic,
/// see telemetry::HistogramSample::percentile).
struct HistogramStat {
  std::string name;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t p50 = 0;
  std::int64_t p95 = 0;
  std::int64_t p99 = 0;
};

/// Per-request lookup-latency percentiles for replay workloads (plan
/// service front door). Wall-clock, so advisory like TimingStats: recorded
/// in the artifact, never gated by compare_reports. count == 0 means "not a
/// replay workload" and the "lookup" object is omitted from the JSON.
struct LatencyStats {
  std::int64_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;

  /// Nearest-rank percentiles of the samples. Empty input -> all zero.
  static LatencyStats from_samples(std::vector<double> samples_us);
};

/// The paper's metric for one planner-policy or pinned workload on the V100
/// preset: time_plan µs of the plan it ran, run_magma_timed µs of MAGMA
/// vbatch over the same dims, and speedup = vbatch_us / plan_us. All three
/// are pure functions of the plan and the arch model, so compare_reports
/// gates them exactly, at the three decimals the JSON keeps. plan_us == 0
/// means "not recorded" (replay workloads) and the "sim" object is omitted.
struct SimTiming {
  double plan_us = 0.0;
  double vbatch_us = 0.0;
  double speedup = 0.0;
};

/// One workload's results: timing (advisory) + deterministic counters.
struct WorkloadResult {
  std::string name;
  std::int64_t flops = 0;  ///< useful FLOPs of ONE repeat (2*m*n*k summed)
  int repeats = 0;
  TimingStats timing;
  LatencyStats lookup;  ///< replay workloads only (count == 0 otherwise)
  SimTiming sim;        ///< non-replay workloads only (plan_us == 0 otherwise)
  std::vector<telemetry::CounterSample> counters;  // sorted by name
  std::vector<HistogramStat> histograms;           // sorted by name

  double gflops() const {
    return timing.median_us > 0.0
               ? static_cast<double>(flops) / (timing.median_us * 1e3)
               : 0.0;
  }
};

/// The artifact. Workloads are kept sorted by name so a report's byte
/// serialization — and every comparison walk — is independent of the order
/// workloads were run or inserted.
struct PerfReport {
  int schema_version = kSchemaVersion;
  std::string tag;    ///< run label ("ci", "local", a commit sha, ...)
  std::string suite;  ///< suite name the workloads came from
  int repeats = 0;    ///< suite-level default k
  /// Unix time (seconds) the run was recorded. --fold orders artifact
  /// columns by (created_unix, tag, filename) so the trajectory reads in
  /// recording order regardless of how files were named or copied around.
  /// 0 = unknown (never gated by compare_reports).
  std::int64_t created_unix = 0;
  /// simd_isa_name(active_simd_isa()) of the producing run. The exec.simd.*
  /// dispatch counters are deterministic per ISA but differ across hosts
  /// with different vector units, so compare_reports only gates them when
  /// this field matches between baseline and current.
  std::string simd_isa = "scalar";
  std::vector<WorkloadResult> workloads;
};

/// The counters whose per-workload snapshot deltas are bit-deterministic
/// (pure functions of dims/policy/arch, independent of thread count and
/// host speed) — the set compare_reports gates on exactly.
const std::vector<std::string>& deterministic_counter_names();

/// Histograms with deterministic shape (plan structure, not timing).
const std::vector<std::string>& deterministic_histogram_names();

/// Copies the deterministic counters/histograms out of a snapshot delta
/// into `out` (sorted by name). Counters absent from the snapshot are
/// recorded as 0 so every report carries the full gated set.
void harvest_deterministic_metrics(const telemetry::MetricsSnapshot& snap,
                                   WorkloadResult& out);

/// Sorts workloads (and their metric vectors) by name — the canonical order
/// write_perf_report_json requires.
void sort_workloads(PerfReport& report);

/// Canonical JSON serialization. Reports written by this function round-trip
/// byte-identically through load_perf_report + write_perf_report_json.
void write_perf_report_json(std::ostream& os, const PerfReport& report);

struct PerfReportError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses a report written by write_perf_report_json. Throws PerfReportError
/// on malformed JSON, a missing field, or an unsupported schema version.
PerfReport load_perf_report(std::istream& is);

/// Classification of one workload's baseline->current delta.
enum class DeltaClass {
  kMatch,              ///< timing ratio exactly 1 and counters equal
  kNoise,              ///< counters equal, timing within the noise band
  kTimingImprovement,  ///< counters equal, faster beyond the band (advisory)
  kTimingRegression,   ///< counters equal, slower beyond the band (advisory)
  kCounterRegression,  ///< gated counters or sim times differ: hard fail
  kMissing,            ///< workload present in only one report: hard fail
};

const char* to_string(DeltaClass cls);

struct WorkloadDelta {
  std::string name;
  DeltaClass cls = DeltaClass::kMatch;
  /// current median / baseline median; 0 when either side is missing.
  double time_ratio = 0.0;
  /// Human-readable mismatch descriptions ("exec.tiles: 70 -> 72",
  /// "sim.plan_us: 79.000 -> 55.290", ...).
  std::vector<std::string> counter_mismatches;
};

struct CompareOptions {
  /// Relative band for advisory timing classification: a ratio within
  /// [1/(1+band), 1+band] is noise. 0.5 matches the documented ±50% wall
  /// clock noise of the 1-core reference container.
  double noise_band = 0.5;
};

struct CompareResult {
  std::vector<WorkloadDelta> workloads;  ///< union of both reports, by name
  /// The two reports' simd_isa fields. When they differ, exec.simd.*
  /// counters were excluded from gating (advisory note in the printout);
  /// every other gated counter is ISA-independent and still compared
  /// exactly.
  std::string baseline_simd_isa;
  std::string current_simd_isa;
  bool simd_isa_matches() const {
    return baseline_simd_isa == current_simd_isa;
  }
  /// Geometric mean of current/baseline median ratios over workloads
  /// present in both reports with nonzero medians; 1.0 when none qualify.
  double geomean_time_ratio = 1.0;
  int counter_regressions = 0;
  int timing_regressions = 0;
  int timing_improvements = 0;
  int missing = 0;
  /// Counter regressions and missing workloads gate; timing never does.
  bool hard_fail() const { return counter_regressions > 0 || missing > 0; }
};

/// Compares per-workload deterministic counters exactly (also flops and
/// repeats — a mismatch there means the suite definition or run
/// configuration changed, which invalidates the baseline), compares the
/// "sim" objects at their serialized precision, and classifies timing
/// deltas against the noise band.
CompareResult compare_reports(const PerfReport& baseline,
                              const PerfReport& current,
                              const CompareOptions& opts = {});

/// Human-readable comparison summary (one line per workload + totals).
void print_comparison(std::ostream& os, const CompareResult& cmp,
                      const CompareOptions& opts = {});

}  // namespace ctb::perfreport
