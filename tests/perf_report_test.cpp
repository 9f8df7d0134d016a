// ctb::perfreport tests: timing statistics, canonical JSON round-trips,
// malformed-input rejection, stable workload ordering, the
// noise/timing/counter delta classification (a synthetic dispatch-mix
// regression must hard-fail), and the end-to-end acceptance property — two
// runs of the same workloads produce bit-identical deterministic counters,
// so a self-comparison never gates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "telemetry/perf_report.hpp"
#include "telemetry/telemetry.hpp"

namespace ctb {
namespace {

using perfreport::CompareOptions;
using perfreport::CompareResult;
using perfreport::DeltaClass;
using perfreport::LatencyStats;
using perfreport::PerfReport;
using perfreport::TimingStats;
using perfreport::WorkloadResult;

WorkloadResult make_workload(const std::string& name, double median_us,
                             std::int64_t specialized, std::int64_t generic) {
  WorkloadResult w;
  w.name = name;
  w.flops = 1000000;
  w.repeats = 3;
  w.timing.median_us = median_us;
  w.timing.iqr_us = 1.5;
  w.timing.min_us = median_us * 0.9;
  w.timing.max_us = median_us * 1.4;
  w.counters.push_back({"exec.dispatch.generic", generic});
  w.counters.push_back({"exec.dispatch.specialized", specialized});
  w.counters.push_back({"exec.tiles", specialized + generic});
  w.histograms.push_back({"batching.tiles_per_block", 4, 16, 4, 8, 8});
  return w;
}

PerfReport make_report(std::vector<WorkloadResult> workloads) {
  PerfReport r;
  r.tag = "test";
  r.suite = "synthetic";
  r.repeats = 3;
  r.workloads = std::move(workloads);
  perfreport::sort_workloads(r);
  return r;
}

TEST(TimingStatsTest, MedianIqrNearestRank) {
  const TimingStats s =
      TimingStats::from_samples({5.0, 1.0, 9.0, 3.0, 7.0});
  EXPECT_DOUBLE_EQ(s.median_us, 5.0);
  // Nearest-rank quartiles of {1,3,5,7,9}: q25 = 2nd value, q75 = 4th.
  EXPECT_DOUBLE_EQ(s.iqr_us, 7.0 - 3.0);
  EXPECT_DOUBLE_EQ(s.min_us, 1.0);
  EXPECT_DOUBLE_EQ(s.max_us, 9.0);

  const TimingStats single = TimingStats::from_samples({4.0});
  EXPECT_DOUBLE_EQ(single.median_us, 4.0);
  EXPECT_DOUBLE_EQ(single.iqr_us, 0.0);

  const TimingStats empty = TimingStats::from_samples({});
  EXPECT_DOUBLE_EQ(empty.median_us, 0.0);
  EXPECT_DOUBLE_EQ(empty.min_us, 0.0);
}

TEST(PerfReportJson, RoundTripsByteIdentically) {
  const PerfReport report = make_report(
      {make_workload("beta", 120.25, 10, 2),
       make_workload("alpha \"quoted\"\n", 3.125, 0, 7)});
  std::ostringstream first;
  perfreport::write_perf_report_json(first, report);

  std::istringstream is(first.str());
  const PerfReport loaded = perfreport::load_perf_report(is);
  std::ostringstream second;
  perfreport::write_perf_report_json(second, loaded);
  EXPECT_EQ(first.str(), second.str());

  EXPECT_EQ(loaded.schema_version, perfreport::kSchemaVersion);
  EXPECT_EQ(loaded.tag, "test");
  EXPECT_EQ(loaded.suite, "synthetic");
  ASSERT_EQ(loaded.workloads.size(), 2u);
  EXPECT_EQ(loaded.workloads[0].name, "alpha \"quoted\"\n");
  EXPECT_EQ(loaded.workloads[1].counters[1].value, 10);
  EXPECT_EQ(loaded.workloads[1].histograms[0].p95, 8);
}

TEST(PerfReportJson, EmptyReportRoundTrips) {
  PerfReport report;
  report.tag = "empty";
  report.suite = "none";
  std::ostringstream os;
  perfreport::write_perf_report_json(os, report);
  std::istringstream is(os.str());
  const PerfReport loaded = perfreport::load_perf_report(is);
  EXPECT_TRUE(loaded.workloads.empty());
  EXPECT_EQ(loaded.tag, "empty");
}

TEST(PerfReportJson, RejectsMalformedInput) {
  const char* bad[] = {
      "",                               // empty
      "{",                              // truncated
      "[1,2,3]\n",                      // wrong top-level type
      "{\"schema_version\": 1}\n",      // missing fields
      "{\"schema_version\": 99, \"tag\": \"t\", \"suite\": \"s\","
      " \"repeats\": 1, \"workloads\": []}\n",  // unsupported version
      "{\"schema_version\": 1, \"tag\": 3, \"suite\": \"s\","
      " \"repeats\": 1, \"workloads\": []}\n",  // wrong field type
      "{\"schema_version\": 1, \"tag\": \"t\", \"suite\": \"s\","
      " \"repeats\": 1, \"workloads\": []} trailing\n",  // trailing garbage
  };
  for (const char* text : bad) {
    std::istringstream is(text);
    EXPECT_THROW(perfreport::load_perf_report(is), perfreport::PerfReportError)
        << text;
  }
}

TEST(PerfReportJson, WorkloadOrderIsCanonical) {
  // Same workloads, inserted in opposite orders, must serialize identically.
  const PerfReport forward = make_report(
      {make_workload("a", 1.0, 1, 0), make_workload("b", 2.0, 2, 0),
       make_workload("c", 3.0, 3, 0)});
  const PerfReport backward = make_report(
      {make_workload("c", 3.0, 3, 0), make_workload("b", 2.0, 2, 0),
       make_workload("a", 1.0, 1, 0)});
  std::ostringstream f, b;
  perfreport::write_perf_report_json(f, forward);
  perfreport::write_perf_report_json(b, backward);
  EXPECT_EQ(f.str(), b.str());
  ASSERT_EQ(forward.workloads.size(), 3u);
  EXPECT_EQ(forward.workloads[0].name, "a");
  EXPECT_EQ(forward.workloads[2].name, "c");
}

TEST(PerfReportJson, RejectsSchemaV1Artifacts) {
  // A complete, well-formed v1 report (no simd_isa field): stale baselines
  // must be regenerated knowingly, not silently compared.
  std::istringstream is(
      "{\"schema_version\": 1, \"tag\": \"old\", \"suite\": \"quick\","
      " \"repeats\": 5, \"workloads\": []}\n");
  EXPECT_THROW(perfreport::load_perf_report(is), perfreport::PerfReportError);
}

TEST(PerfReportJson, SimdIsaFieldRoundTrips) {
  PerfReport report = make_report({make_workload("w", 10.0, 1, 0)});
  report.simd_isa = "avx512";
  std::ostringstream os;
  perfreport::write_perf_report_json(os, report);
  EXPECT_NE(os.str().find("\"simd_isa\": \"avx512\""), std::string::npos)
      << os.str();
  std::istringstream is(os.str());
  EXPECT_EQ(perfreport::load_perf_report(is).simd_isa, "avx512");
}

TEST(PerfReportTaxonomy, AllowlistCarriesSimdCountersSorted) {
  const auto& names = perfreport::deterministic_counter_names();
  for (const char* required : {"exec.simd.avx2", "exec.simd.avx512",
                               "exec.simd.neon", "exec.simd.scalar"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required;
  }
  // The allowlist stays sorted (reports and comparisons walk it in order).
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PerfReportTaxonomy, AllowlistCarriesServiceCounters) {
  const auto& names = perfreport::deterministic_counter_names();
  for (const char* required :
       {"service.admitted", "service.degraded", "service.hit",
        "service.miss", "service.quarantined", "service.retried",
        "service.upgraded"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required;
  }
}

TEST(LatencyStatsTest, NearestRankPercentiles) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  const LatencyStats s = LatencyStats::from_samples(std::move(samples));
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(s.p95_us, 95.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 99.0);

  const LatencyStats empty = LatencyStats::from_samples({});
  EXPECT_EQ(empty.count, 0);
  EXPECT_DOUBLE_EQ(empty.p50_us, 0.0);
}

TEST(PerfReportJson, LookupLatencyRoundTripsAndIsOmittedWhenEmpty) {
  PerfReport report = make_report(
      {make_workload("replay/x", 10.0, 1, 0), make_workload("plain", 5.0, 1, 0)});
  report.workloads[1].lookup =
      LatencyStats{2048, 1.5, 12.25, 80.0};  // "replay/x" after sorting
  std::ostringstream os;
  perfreport::write_perf_report_json(os, report);
  EXPECT_NE(os.str().find("\"lookup\""), std::string::npos) << os.str();

  std::istringstream is(os.str());
  const PerfReport loaded = perfreport::load_perf_report(is);
  ASSERT_EQ(loaded.workloads.size(), 2u);
  EXPECT_EQ(loaded.workloads[0].name, "plain");
  EXPECT_EQ(loaded.workloads[0].lookup.count, 0);  // omitted -> default
  EXPECT_EQ(loaded.workloads[1].lookup.count, 2048);
  EXPECT_DOUBLE_EQ(loaded.workloads[1].lookup.p50_us, 1.5);
  EXPECT_DOUBLE_EQ(loaded.workloads[1].lookup.p95_us, 12.25);
  EXPECT_DOUBLE_EQ(loaded.workloads[1].lookup.p99_us, 80.0);

  // Round trip is byte-identical (canonical serialization).
  std::ostringstream second;
  perfreport::write_perf_report_json(second, loaded);
  EXPECT_EQ(os.str(), second.str());
}

TEST(PerfReportJson, SimTimingRoundTripsAndIsOmittedWhenAbsent) {
  PerfReport report = make_report(
      {make_workload("planned", 10.0, 1, 0),
       make_workload("replay", 5.0, 1, 0)});
  report.workloads[0].sim = {79.0004, 66.86, 66.86 / 79.0004};  // "planned"
  std::ostringstream os;
  perfreport::write_perf_report_json(os, report);
  EXPECT_NE(os.str().find("\"sim\": {\"plan_us\": 79.000, \"vbatch_us\": "
                          "66.860, \"speedup\": 0.846}"),
            std::string::npos)
      << os.str();

  std::istringstream is(os.str());
  const PerfReport loaded = perfreport::load_perf_report(is);
  ASSERT_EQ(loaded.workloads.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.workloads[0].sim.plan_us, 79.0);
  EXPECT_DOUBLE_EQ(loaded.workloads[0].sim.vbatch_us, 66.86);
  EXPECT_EQ(loaded.workloads[1].sim.plan_us, 0.0);  // omitted -> default
  std::ostringstream second;
  perfreport::write_perf_report_json(second, loaded);
  EXPECT_EQ(os.str(), second.str());

  // A fresh report gates against its own loaded copy: the comparison works
  // at the precision the JSON keeps.
  EXPECT_FALSE(perfreport::compare_reports(loaded, report).hard_fail());
}

// The simulated clock gates like a counter: any change the JSON can show
// hard-fails, whatever the host timing says.
TEST(PerfReportCompare, SimTimingChangeHardFails) {
  PerfReport baseline = make_report({make_workload("w", 100.0, 1, 0)});
  baseline.workloads[0].sim = {79.0, 66.86, 66.86 / 79.0};
  PerfReport current = baseline;
  current.workloads[0].sim = {55.29, 66.86, 66.86 / 55.29};
  const CompareResult cmp = perfreport::compare_reports(baseline, current);
  EXPECT_TRUE(cmp.hard_fail());
  ASSERT_EQ(cmp.workloads.size(), 1u);
  EXPECT_EQ(cmp.workloads[0].cls, DeltaClass::kCounterRegression);
  ASSERT_EQ(cmp.workloads[0].counter_mismatches.size(), 2u);
  EXPECT_EQ(cmp.workloads[0].counter_mismatches[0],
            "sim.plan_us: 79.000 -> 55.290");
  EXPECT_EQ(cmp.workloads[0].counter_mismatches[1],
            "sim.speedup: 0.846 -> 1.209");

  // Present on one side only is a change too, and so is a difference in
  // the fourth decimal that survives rounding to three.
  current = baseline;
  current.workloads[0].sim = {};
  EXPECT_TRUE(perfreport::compare_reports(baseline, current).hard_fail());
  current = baseline;
  current.workloads[0].sim.vbatch_us = 66.8606;
  EXPECT_TRUE(perfreport::compare_reports(baseline, current).hard_fail());
  current.workloads[0].sim.vbatch_us = 66.8601;
  EXPECT_FALSE(perfreport::compare_reports(baseline, current).hard_fail());
}

TEST(PerfReportCompare, IdenticalReportsMatch) {
  const PerfReport r = make_report(
      {make_workload("a", 100.0, 10, 2), make_workload("b", 50.0, 4, 4)});
  const CompareResult cmp = perfreport::compare_reports(r, r);
  EXPECT_FALSE(cmp.hard_fail());
  EXPECT_EQ(cmp.counter_regressions, 0);
  EXPECT_EQ(cmp.timing_regressions, 0);
  EXPECT_DOUBLE_EQ(cmp.geomean_time_ratio, 1.0);
  for (const auto& d : cmp.workloads)
    EXPECT_EQ(d.cls, DeltaClass::kMatch) << d.name;
}

TEST(PerfReportCompare, TimingDeltasClassifyAgainstNoiseBand) {
  const PerfReport baseline = make_report(
      {make_workload("noisy", 100.0, 1, 0), make_workload("slow", 100.0, 1, 0),
       make_workload("fast", 100.0, 1, 0)});
  const PerfReport current = make_report(
      {make_workload("noisy", 130.0, 1, 0),  // 1.3x: inside the 0.5 band
       make_workload("slow", 200.0, 1, 0),   // 2.0x: advisory regression
       make_workload("fast", 40.0, 1, 0)});  // 0.4x: advisory improvement
  const CompareResult cmp = perfreport::compare_reports(baseline, current);
  EXPECT_FALSE(cmp.hard_fail());  // timing never gates
  EXPECT_EQ(cmp.timing_regressions, 1);
  EXPECT_EQ(cmp.timing_improvements, 1);
  for (const auto& d : cmp.workloads) {
    if (d.name == "noisy") EXPECT_EQ(d.cls, DeltaClass::kNoise);
    if (d.name == "slow") EXPECT_EQ(d.cls, DeltaClass::kTimingRegression);
    if (d.name == "fast") EXPECT_EQ(d.cls, DeltaClass::kTimingImprovement);
  }
  // Geomean of {1.3, 2.0, 0.4}.
  EXPECT_NEAR(cmp.geomean_time_ratio, std::cbrt(1.3 * 2.0 * 0.4), 1e-9);
}

TEST(PerfReportCompare, DispatchMixRegressionHardFails) {
  // Synthetic regression: the same tiles now run generic instead of
  // specialized (e.g. a broken packing decision). Timing is identical —
  // only the deterministic counters catch it, and they must gate.
  const PerfReport baseline =
      make_report({make_workload("w", 100.0, 12, 0)});
  const PerfReport current = make_report({make_workload("w", 100.0, 0, 12)});
  const CompareResult cmp = perfreport::compare_reports(baseline, current);
  EXPECT_TRUE(cmp.hard_fail());
  EXPECT_EQ(cmp.counter_regressions, 1);
  ASSERT_EQ(cmp.workloads.size(), 1u);
  EXPECT_EQ(cmp.workloads[0].cls, DeltaClass::kCounterRegression);
  // The mismatch list names both flipped counters.
  EXPECT_EQ(cmp.workloads[0].counter_mismatches.size(), 2u);
}

TEST(PerfReportCompare, FlopsOrRepeatsMismatchHardFails) {
  const PerfReport baseline = make_report({make_workload("w", 100.0, 1, 0)});
  PerfReport current = make_report({make_workload("w", 100.0, 1, 0)});
  current.workloads[0].flops += 5;
  EXPECT_TRUE(perfreport::compare_reports(baseline, current).hard_fail());
  current = make_report({make_workload("w", 100.0, 1, 0)});
  current.workloads[0].repeats = 7;
  EXPECT_TRUE(perfreport::compare_reports(baseline, current).hard_fail());
}

TEST(PerfReportCompare, HistogramShapeChangeHardFails) {
  const PerfReport baseline = make_report({make_workload("w", 100.0, 1, 0)});
  PerfReport current = make_report({make_workload("w", 100.0, 1, 0)});
  current.workloads[0].histograms[0].p95 = 16;
  const CompareResult cmp = perfreport::compare_reports(baseline, current);
  EXPECT_TRUE(cmp.hard_fail());
  EXPECT_EQ(cmp.workloads[0].cls, DeltaClass::kCounterRegression);
}

TEST(PerfReportCompare, MissingWorkloadHardFails) {
  const PerfReport baseline = make_report(
      {make_workload("kept", 10.0, 1, 0), make_workload("gone", 10.0, 1, 0)});
  const PerfReport current = make_report(
      {make_workload("kept", 10.0, 1, 0), make_workload("new", 10.0, 1, 0)});
  const CompareResult cmp = perfreport::compare_reports(baseline, current);
  EXPECT_TRUE(cmp.hard_fail());
  EXPECT_EQ(cmp.missing, 2);
  ASSERT_EQ(cmp.workloads.size(), 3u);  // union, sorted by name
  EXPECT_EQ(cmp.workloads[0].name, "gone");
  EXPECT_EQ(cmp.workloads[0].cls, DeltaClass::kMissing);
  EXPECT_EQ(cmp.workloads[2].name, "new");
  EXPECT_EQ(cmp.workloads[2].cls, DeltaClass::kMissing);
}

// exec.simd.* counters are deterministic per ISA but host-dependent, so
// they gate only when both reports ran the same ISA; every other counter
// gates regardless.
TEST(PerfReportCompare, SimdCountersGateOnlyWhenIsasMatch) {
  auto with_simd = [](std::int64_t avx512_tiles, std::int64_t scalar_tiles) {
    WorkloadResult w = make_workload("w", 100.0, 12, 0);
    w.counters.push_back({"exec.simd.avx512", avx512_tiles});
    w.counters.push_back({"exec.simd.scalar", scalar_tiles});
    return w;
  };

  // Different hosts: an avx512 baseline vs a scalar current. The flipped
  // exec.simd.* split must NOT gate...
  PerfReport baseline = make_report({with_simd(12, 0)});
  baseline.simd_isa = "avx512";
  PerfReport current = make_report({with_simd(0, 12)});
  current.simd_isa = "scalar";
  CompareResult cmp = perfreport::compare_reports(baseline, current);
  EXPECT_FALSE(cmp.hard_fail());
  EXPECT_FALSE(cmp.simd_isa_matches());
  EXPECT_EQ(cmp.baseline_simd_isa, "avx512");
  EXPECT_EQ(cmp.current_simd_isa, "scalar");
  // ...and the printed summary says why.
  std::ostringstream os;
  perfreport::print_comparison(os, cmp);
  EXPECT_NE(os.str().find("exec.simd."), std::string::npos) << os.str();

  // ...but an ISA-independent counter regression still gates across hosts.
  PerfReport broken = make_report({with_simd(0, 12)});
  broken.simd_isa = "scalar";
  broken.workloads[0].counters[0].value = 99;  // exec.dispatch.generic
  EXPECT_TRUE(perfreport::compare_reports(baseline, broken).hard_fail());

  // Same ISA on both sides: a changed exec.simd.* split is a real dispatch
  // regression and hard-fails.
  PerfReport same_isa = make_report({with_simd(0, 12)});
  same_isa.simd_isa = "avx512";
  cmp = perfreport::compare_reports(baseline, same_isa);
  EXPECT_TRUE(cmp.hard_fail());
  EXPECT_TRUE(cmp.simd_isa_matches());
}

// Counters always gate, and a counter present on one side only is itself a
// mismatch, named with "(absent)" on the side that lacks it.
TEST(PerfReportCompare, CounterOnOneSideOnlyHardFails) {
  const PerfReport baseline = make_report({make_workload("w", 100.0, 12, 0)});
  PerfReport current = make_report({make_workload("w", 100.0, 0, 12)});
  CompareResult cmp = perfreport::compare_reports(baseline, current);
  EXPECT_TRUE(cmp.hard_fail());
  EXPECT_EQ(cmp.workloads[0].cls, DeltaClass::kCounterRegression);

  using Mismatches = std::vector<std::string>;
  // Only in the baseline.
  current = baseline;
  current.workloads[0].counters.pop_back();  // exec.tiles
  cmp = perfreport::compare_reports(baseline, current);
  EXPECT_TRUE(cmp.hard_fail());
  EXPECT_EQ(cmp.workloads[0].cls, DeltaClass::kCounterRegression);
  EXPECT_EQ(cmp.workloads[0].counter_mismatches,
            Mismatches{"exec.tiles: 12 -> (absent)"});

  // Only in the current report (inserted at its sorted position).
  current = baseline;
  std::vector<telemetry::CounterSample>& counters =
      current.workloads[0].counters;
  counters.insert(counters.begin() + 2, {"exec.fallback", 5});
  cmp = perfreport::compare_reports(baseline, current);
  EXPECT_TRUE(cmp.hard_fail());
  EXPECT_EQ(cmp.workloads[0].counter_mismatches,
            Mismatches{"exec.fallback: (absent) -> 5"});

  // A current workload with no counters at all: every baseline counter is
  // missing from it.
  current = baseline;
  current.workloads[0].counters.clear();
  cmp = perfreport::compare_reports(baseline, current);
  EXPECT_TRUE(cmp.hard_fail());
  EXPECT_EQ(cmp.counter_regressions, 1);
  EXPECT_EQ(cmp.workloads[0].counter_mismatches,
            (Mismatches{"exec.dispatch.generic: 0 -> (absent)",
                        "exec.dispatch.specialized: 12 -> (absent)",
                        "exec.tiles: 12 -> (absent)"}));
}

TEST(PerfReportCompare, PrintedSummaryCarriesVerdict) {
  const PerfReport r = make_report({make_workload("w", 100.0, 1, 0)});
  const CompareResult ok = perfreport::compare_reports(r, r);
  std::ostringstream os;
  perfreport::print_comparison(os, ok);
  EXPECT_NE(os.str().find("RESULT: OK"), std::string::npos);
  EXPECT_NE(os.str().find("counter regressions: 0"), std::string::npos);

  const PerfReport bad = make_report({make_workload("w", 100.0, 0, 1)});
  std::ostringstream fail_os;
  perfreport::print_comparison(fail_os, perfreport::compare_reports(r, bad));
  EXPECT_NE(fail_os.str().find("RESULT: FAIL"), std::string::npos);
}

// -------------------------------------------------------------------------
// Live-suite acceptance: rerunning the same workloads reproduces the
// deterministic counters exactly, so a self-comparison never hard-fails
// (ISSUE acceptance criterion; ctb_bench_self_compare covers the CLI).
// -------------------------------------------------------------------------

std::vector<bench::BenchWorkload> small_suite() {
  std::vector<bench::BenchWorkload> all = bench::perf_quick_suite();
  // A planner-policy workload, a DNN batch, and a pinned-strategy workload —
  // one of each runner path, kept small for test runtime.
  std::vector<bench::BenchWorkload> picked;
  for (const auto& w : all)
    if (w.name == "sweep/mn128/b4/k64" || w.name == "squeezenet/fire9/expand" ||
        w.name.rfind("tile/small", 0) == 0)
      picked.push_back(w);
  return picked;
}

TEST(PerfSuite, RerunHasBitIdenticalCountersAndNeverGates) {
  const std::vector<bench::BenchWorkload> suite = small_suite();
  ASSERT_EQ(suite.size(), 4u);
  const PerfReport first = bench::run_perf_suite(suite, "small", "a", 2);
  const PerfReport second = bench::run_perf_suite(suite, "small", "b", 2);

  ASSERT_EQ(first.workloads.size(), suite.size());
  for (std::size_t i = 0; i < first.workloads.size(); ++i) {
    const WorkloadResult& fw = first.workloads[i];
    const WorkloadResult& sw = second.workloads[i];
    EXPECT_EQ(fw.name, sw.name);
    EXPECT_EQ(fw.flops, sw.flops);
    EXPECT_GT(fw.timing.median_us, 0.0);
    // Every workload here ran a plan, so each carries the simulated clock,
    // and it repeats exactly.
    EXPECT_GT(fw.sim.plan_us, 0.0) << fw.name;
    EXPECT_GT(fw.sim.vbatch_us, 0.0) << fw.name;
    EXPECT_EQ(fw.sim.speedup, fw.sim.vbatch_us / fw.sim.plan_us) << fw.name;
    EXPECT_EQ(fw.sim.plan_us, sw.sim.plan_us) << fw.name;
    ASSERT_EQ(fw.counters.size(), sw.counters.size());
    for (std::size_t c = 0; c < fw.counters.size(); ++c) {
      EXPECT_EQ(fw.counters[c].name, sw.counters[c].name);
      EXPECT_EQ(fw.counters[c].value, sw.counters[c].value)
          << fw.name << " / " << fw.counters[c].name;
    }
    ASSERT_EQ(fw.histograms.size(), sw.histograms.size());
    for (std::size_t h = 0; h < fw.histograms.size(); ++h) {
      EXPECT_EQ(fw.histograms[h].count, sw.histograms[h].count);
      EXPECT_EQ(fw.histograms[h].sum, sw.histograms[h].sum);
      EXPECT_EQ(fw.histograms[h].p50, sw.histograms[h].p50);
    }
  }

  const CompareResult cmp = perfreport::compare_reports(first, second);
  EXPECT_FALSE(cmp.hard_fail());
  EXPECT_EQ(cmp.counter_regressions, 0);
  EXPECT_EQ(cmp.missing, 0);
  for (const auto& d : cmp.workloads) {
    // Timing may land anywhere (this host's clock is noisy) but the class
    // must never be a gating one.
    EXPECT_NE(d.cls, DeltaClass::kCounterRegression) << d.name;
    EXPECT_NE(d.cls, DeltaClass::kMissing) << d.name;
  }

  // And the artifact itself round-trips byte-identically through disk form.
  std::ostringstream os;
  perfreport::write_perf_report_json(os, first);
  std::istringstream is(os.str());
  const PerfReport loaded = perfreport::load_perf_report(is);
  std::ostringstream os2;
  perfreport::write_perf_report_json(os2, loaded);
  EXPECT_EQ(os.str(), os2.str());
}

// The harvest allowlist: every deterministic counter appears (zero-filled if
// the path never ran), timing-derived metrics stay out, and a live suite
// run populates the execution counters.
TEST(PerfSuite, HarvestCarriesFullDeterministicTaxonomy) {
  const std::vector<bench::BenchWorkload> suite = small_suite();
  const PerfReport report = bench::run_perf_suite(suite, "small", "t", 1);
  for (const WorkloadResult& w : report.workloads) {
    ASSERT_EQ(w.counters.size(),
              perfreport::deterministic_counter_names().size());
    for (std::size_t i = 0; i < w.counters.size(); ++i)
      EXPECT_EQ(w.counters[i].name,
                perfreport::deterministic_counter_names()[i]);
    for (const auto& c : w.counters)
      EXPECT_EQ(c.name.find("sim."), std::string::npos) << c.name;
    auto counter = [&](const std::string& name) {
      for (const auto& c : w.counters)
        if (c.name == name) return c.value;
      return std::int64_t{-1};
    };
    // Span durations (the `<name>_ns` histograms) are wall-clock and stay
    // out of the gated harvest.
    for (const auto& h : w.histograms)
      EXPECT_EQ(h.name.find("_ns"), std::string::npos) << h.name;
    EXPECT_EQ(counter("exec.flops"), w.flops * w.repeats) << w.name;
    EXPECT_GT(counter("exec.tiles"), 0) << w.name;
    EXPECT_EQ(counter("exec.fallback"), 0) << w.name;
    if (w.name.rfind("tile/", 0) != 0) {
      // Planner-policy workloads plan through a fresh PlanCache: exactly
      // one miss, repeats-1 hits.
      EXPECT_EQ(counter("cache.miss"), 1) << w.name;
      EXPECT_EQ(counter("cache.hit"), w.repeats - 1) << w.name;
    }
  }
}

}  // namespace
}  // namespace ctb
