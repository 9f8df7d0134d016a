// End-to-end benchmark program: one workload, one process, one client.
//
//   ctb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke] [--flip-bit] [--spans <file>]
//                 [--commit <id>] [--source-digest <hash>]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run (untraced and traced chunks
// alternate, so the tracing overhead is measured in the same run). The last
// line of stdout is one JSON object {correct, attempted, failed, metrics};
// the line before it records the run's provenance. Exit code 0 means every
// checked output matched reference_gemm bit for bit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "kernels/simd.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

// Set-ups per untraced run; setup_s is their median. The host's speed
// drifts over seconds, so the timed phase is split into this many equal
// segments, each preceded by a set-up: set-up time then samples the host
// across the whole run, as the requests do. Every set-up leaves the
// workload in the same state (fresh service, known batches planned).
constexpr int kSetups = 5;
// Calibration: one burst of kCalibBurstUs every kCalibEveryUs of the timed
// phase (about 2.5% of it), excluded from request time. The host's speed
// drifts over seconds, so each request is normalized by the calibration
// interpolated to its midpoint.
constexpr double kCalibEveryUs = 200e3;
constexpr double kCalibBurstUs = 5e3;
// Traced run: this many rounds, each one untraced and one traced chunk of
// equal, fixed request counts, alternating which goes first.
constexpr int kTraceRounds = 12;
// A percentile counts only when this many samples lie beyond it.
constexpr std::int64_t kTailSamples = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  bool flip_bit = false;
  std::string spans_path;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = std::stoi(value());
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--flip-bit") {
      a.flip_bit = true;
    } else if (flag == "--spans") {
      a.spans_path = value();
    } else if (flag == "--commit") {
      a.commit = value();
    } else if (flag == "--source-digest") {
      a.source_digest = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || (a.trace != 0 && a.trace != 1) ||
      (!a.smoke && !(a.seconds > 0)))
    throw std::invalid_argument(
        "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples lying beyond the nearest-rank percentile p.
std::int64_t beyond(std::size_t n, double p) {
  return static_cast<std::int64_t>(n) -
         static_cast<std::int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

/// Interleaves calibration bursts with the timed requests and keeps their
/// timeline.
class Calibrator {
 public:
  /// Runs a burst when one is due; returns the microseconds it took.
  double maybe_run() {
    const double start = now_us();
    if (!mid_us_.empty() && start - last_us_ < kCalibEveryUs) return 0;
    const double gflops = calib_gflops(kCalibBurstUs);
    last_us_ = now_us();
    mid_us_.push_back(0.5 * (start + last_us_));
    gflops_.push_back(gflops);
    return last_us_ - start;
  }
  double gflops() const { return median(gflops_); }
  /// Calibration at time t: linear between the bursts around it.
  double gflops_at(double t_us) const {
    if (mid_us_.empty()) return 0;
    const auto it = std::upper_bound(mid_us_.begin(), mid_us_.end(), t_us);
    if (it == mid_us_.begin()) return gflops_.front();
    if (it == mid_us_.end()) return gflops_.back();
    const std::size_t i = static_cast<std::size_t>(it - mid_us_.begin());
    const double f = (t_us - mid_us_[i - 1]) / (mid_us_[i] - mid_us_[i - 1]);
    return gflops_[i - 1] + f * (gflops_[i] - gflops_[i - 1]);
  }

 private:
  std::vector<double> mid_us_;
  std::vector<double> gflops_;
  double last_us_ = 0;
};

struct Phase {
  std::int64_t attempted = 0;
  std::int64_t exceptions = 0;
  double wall_us = 0;  ///< request time, calibration bursts excluded
  double flops = 0;
  /// Peak FLOPs the host offered while requests ran: each request's time
  /// times the calibration at its midpoint.
  double peak_flops = 0;
  std::vector<double> latency_us;

  double completed_per_s() const {
    return ratio(static_cast<double>(attempted - exceptions), wall_us * 1e-6);
  }
};

/// Runs requests from `next_id` on until `count` more have run (count > 0)
/// or `budget_us` of request time has passed.
void run_requests(Workload& w, Tracer& tracer, Calibrator& calib,
                  std::int64_t& next_id, std::int64_t count, double budget_us,
                  Phase& phase) {
  const double start = now_us();
  double calib_us = 0;
  std::vector<double> mids;  // request midpoints, for the calibration
  for (std::int64_t done = 0;; ++done) {
    if (count > 0 ? done >= count
                  : now_us() - start - calib_us >= budget_us)
      break;
    calib_us += calib.maybe_run();
    const double t0 = now_us();
    try {
      phase.flops += w.request(next_id, tracer);
    } catch (const std::exception& e) {
      ++phase.exceptions;
      std::cerr << "request " << next_id << " failed: " << e.what() << '\n';
    }
    phase.latency_us.push_back(now_us() - t0);
    mids.push_back(t0 + 0.5 * phase.latency_us.back());
    ++phase.attempted;
    ++next_id;
  }
  calib_us += calib.maybe_run();  // closes the timeline after the last request
  phase.wall_us += now_us() - start - calib_us;
  const std::size_t first = phase.latency_us.size() - mids.size();
  for (std::size_t i = 0; i < mids.size(); ++i)
    phase.peak_flops +=
        phase.latency_us[first + i] * 1e3 * calib.gflops_at(mids[i]);
}

std::int64_t counter(const ctb::telemetry::MetricsSnapshot& snap,
                     const char* name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

/// name -> (value, unit), printed in insertion-independent sorted order.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15)
    std::snprintf(buf, sizeof buf, "%.0f", v);
  else
    std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, vu] : m) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": {\"value\": " + number(vu.first) +
           ", \"unit\": " + quoted(vu.second) + "}";
  }
  return out + "}";
}

struct Provenance {
  std::vector<std::pair<std::string, std::string>> fields;  // key, JSON value
  void add(const std::string& k, const std::string& v) {
    fields.emplace_back(k, quoted(v));
  }
  void add(const std::string& k, double v) { fields.emplace_back(k, number(v)); }
  void add_bool(const std::string& k, bool v) {
    fields.emplace_back(k, v ? "true" : "false");
  }
  std::string json() const {
    std::string out = "{";
    for (const auto& [k, v] : fields) {
      if (out.size() > 1) out += ", ";
      out += quoted(k) + ": " + v;
    }
    return out + "}";
  }
};

Provenance provenance(const Args& a) {
  Provenance p;
  p.add("workload", a.workload);
  p.add("seed", std::to_string(a.seed));
  p.add("seconds", a.seconds);
  p.add("trace", a.trace);
  p.add_bool("smoke", a.smoke);
  p.add("isa", ctb::simd_isa_name(ctb::active_simd_isa()));
  p.add("calib_lanes", calib_lanes());
  p.add("worker_threads", ctb::parallel_max_threads());
  p.add("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  p.add_bool("telemetry_compiled_in", ctb::telemetry::snapshot().compiled_in);
  p.add("commit", a.commit);
  p.add("source_digest", a.source_digest);
  return p;
}

std::int64_t smoke_requests(const Workload& w) {
  return std::max<std::int64_t>(2, std::llround(w.nominal_rate() / 50.0));
}

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = false;
  Metrics metrics;
};

/// Adds the check's failures and returns whether every checked output
/// matched and at least one request was checked.
bool apply_check(const CheckResult& check, Outcome& out, Provenance& prov) {
  out.failed += check.requests_failed;
  prov.add("checked_requests", static_cast<double>(check.requests_checked));
  prov.add("values_compared", static_cast<double>(check.values_compared));
  return check.requests_failed == 0 && check.requests_checked > 0;
}

Outcome run_untraced(const Args& a, Workload& w, Provenance& prov) {
  Tracer off;
  std::vector<double> setup_us;
  Calibrator calib;
  Phase phase;
  std::int64_t next_id = 0;
  double rss_mb = 0;
  const int segments = a.smoke ? 1 : kSetups;
  for (int i = 0; i < segments; ++i) {
    const double t0 = now_us();
    w.setup(off);
    setup_us.push_back(now_us() - t0);
    // Peak RSS is read after the first set-up and its warm-up pass, not at
    // exit: serve-churn's plan cache grows with every never-seen batch, so
    // an exit reading would grow with the requests served in fixed time.
    if (i == 0) rss_mb = peak_rss_mb();
    run_requests(w, off, calib, next_id, a.smoke ? smoke_requests(w) : 0,
                 a.seconds * 1e6 / segments, phase);
  }

  Outcome out;
  out.attempted = phase.attempted;
  out.failed = phase.exceptions;
  const CheckResult check = w.check(a.flip_bit);
  out.correct = apply_check(check, out, prov) && phase.exceptions == 0;
  const SimTotals sim = w.simulate();

  std::vector<double> lat = phase.latency_us;
  std::sort(lat.begin(), lat.end());
  std::string samples;
  for (double us : setup_us) {
    if (!samples.empty()) samples += ' ';
    samples += number(us * 1e-6);
  }
  prov.add("setup_samples_s", samples);
  prov.add("req_samples", static_cast<double>(lat.size()));
  // Tail percentiles are recorded here, not gated: p99 is supported only by
  // serve-churn's sample, and p90 follows the host's slow stretches (on a
  // shared VM its ten-run median moved ~30% between a quiet and a busy hour).
  for (const double p : {90.0, 99.0}) {
    const std::string name = "req_p" + number(p);
    prov.add(name + "_us", percentile(lat, p));
    prov.add_bool(name + "_supported", beyond(lat.size(), p) >= kTailSamples);
  }
  prov.add("sim_requests", static_cast<double>(sim.requests));
  prov.add("peak_rss_at_exit_mb", peak_rss_mb());

  Metrics& m = out.metrics;
  m["setup_s"] = {median(setup_us) * 1e-6, "s"};
  m["req_per_s"] = {phase.completed_per_s(), "1/s"};
  m["host_peak_frac"] = {ratio(phase.flops, phase.peak_flops), "ratio"};
  m["req_p50_us"] = {percentile(lat, 50), "us"};
  m["sim_speedup_vs_vbatch"] = {ratio(sim.vbatch_us, sim.plan_us), "x"};
  m["sim_us_per_req"] = {
      ratio(sim.plan_us, static_cast<double>(sim.requests)), "sim_us"};
  m["ok_rate"] = {ratio(static_cast<double>(out.attempted - out.failed),
                        static_cast<double>(out.attempted)),
                  "ratio"};
  m["peak_rss_mb"] = {rss_mb, "MB"};
  return out;
}

void set_tracing(Tracer& tracer, bool on) {
  tracer.enabled = on;
  ctb::telemetry::set_enabled(on);
}

/// Per-layer numbers from the benchmark's own spans: self time is a span's
/// duration minus the part its children cover.
struct LayerTimes {
  std::map<std::string, std::int64_t> calls;
  std::map<std::string, double> self_us;
  std::vector<double> hit_get_us;
  std::vector<double> planned_get_us;
};

LayerTimes layer_times(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  LayerTimes t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.end_us - s.start_us;
    ++t.calls[s.name];
    t.self_us[s.name] += dur - child_us[i];
    if (std::strcmp(s.name, "service.get") == 0)
      (std::strcmp(s.detail, "hit") == 0 ? t.hit_get_us : t.planned_get_us)
          .push_back(dur);
  }
  return t;
}

void write_spans(const std::string& path, const Provenance& prov,
                 const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  const double t0 = spans.empty() ? 0 : spans.front().start_us;
  os << "{\"provenance\": " << prov.json()
     << ",\n\"columns\": [\"name\", \"start_us\", \"end_us\", \"parent\", "
        "\"request\", \"detail\"],\n\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "\n") << "[" << quoted(s.name) << ", "
       << number(s.start_us - t0) << ", " << number(s.end_us - t0) << ", "
       << s.parent << ", " << s.request << ", " << quoted(s.detail) << "]";
  }
  os << "]}\n";
  if (!os) throw std::runtime_error("failed writing span file " + path);
}

Outcome run_traced(const Args& a, Workload& w, Provenance& prov) {
  namespace tel = ctb::telemetry;
  Tracer tracer;
  // The traced window is one set-up plus every traced chunk; library
  // counters move only while telemetry is enabled, so the snapshot delta
  // covers exactly that window.
  const tel::MetricsSnapshot before = tel::snapshot();
  set_tracing(tracer, true);
  w.setup(tracer);
  set_tracing(tracer, false);

  const std::int64_t chunk =
      a.smoke ? smoke_requests(w)
              : std::max<std::int64_t>(
                    1, std::llround(w.nominal_rate() * a.seconds /
                                    (2.0 * kTraceRounds)));
  Calibrator calib;
  Phase untraced, traced;
  std::int64_t next_id = 0;
  const int rounds = a.smoke ? 1 : kTraceRounds;
  for (int r = 0; r < rounds; ++r)
    for (int half = 0; half < 2; ++half) {
      const bool on = (half == 0) == (r % 2 == 1);
      set_tracing(tracer, on);
      run_requests(w, tracer, calib, next_id, chunk, 0, on ? traced : untraced);
      set_tracing(tracer, false);
    }
  const tel::MetricsSnapshot window = tel::delta(before, tel::snapshot());

  Outcome out;
  out.attempted = untraced.attempted + traced.attempted;
  out.failed = untraced.exceptions + traced.exceptions;
  const CheckResult check = w.check(a.flip_bit);
  out.correct = apply_check(check, out, prov) && out.failed == 0;
  const SimTotals sim = w.simulate();
  prov.add("traced_requests", static_cast<double>(traced.attempted));
  prov.add("untraced_requests", static_cast<double>(untraced.attempted));
  prov.add("spans", static_cast<double>(tracer.spans.size()));

  const LayerTimes t = layer_times(tracer.spans);
  auto calls = [&](const char* n) {
    auto it = t.calls.find(n);
    return static_cast<double>(it == t.calls.end() ? 0 : it->second);
  };
  auto self_s = [&](const char* n) {
    auto it = t.self_us.find(n);
    return it == t.self_us.end() ? 0.0 : it->second * 1e-6;
  };
  double planned_us = 0;
  for (double d : t.planned_get_us) planned_us += d;
  const double exec_flops = static_cast<double>(counter(window, "exec.flops"));
  const double exec_gflops = ratio(exec_flops, self_s("kernels.execute") * 1e9);

  Metrics& m = out.metrics;
  m["service.get.calls"] = {calls("service.get"), "count"};
  m["service.get.busy_s"] = {self_s("service.get"), "s"};
  m["service.get.hit_p50_us"] = {median(t.hit_get_us), "us"};
  m["service.hit_ratio"] = {
      ratio(static_cast<double>(t.hit_get_us.size()), calls("service.get")),
      "ratio"};
  m["core.plan.calls"] = {static_cast<double>(t.planned_get_us.size()), "count"};
  m["core.plan.busy_s"] = {planned_us * 1e-6, "s"};
  m["core.plan.p50_us"] = {median(t.planned_get_us), "us"};
  m["core.plan.splitk_chosen"] = {
      static_cast<double>(counter(window, "plan.splitk.chosen")), "count"};
  m["kernels.execute.calls"] = {calls("kernels.execute"), "count"};
  m["kernels.execute.busy_s"] = {self_s("kernels.execute"), "s"};
  m["kernels.execute.gflops"] = {exec_gflops, "GFLOP/s"};
  m["kernels.execute.peak_frac"] = {ratio(exec_gflops, calib.gflops()), "ratio"};
  m["kernels.flops"] = {exec_flops, "count"};
  m["kernels.tiles"] = {static_cast<double>(counter(window, "exec.tiles")),
                        "count"};
  m["kernels.blocks"] = {static_cast<double>(counter(window, "exec.blocks")),
                         "count"};
  m["kernels.splitk_tiles"] = {
      static_cast<double>(counter(window, "exec.splitk.tiles")), "count"};
  m["kernels.pack_bytes"] = {
      static_cast<double>(counter(window, "exec.pack.bytes")), "B"};
  m["kernels.c_passes"] = {
      static_cast<double>(counter(window, "exec.c.passes")), "count"};
  m["kernels.bytes_computed"] = {tracer.bytes_computed, "B"};
  m["dnn.im2col.busy_s"] = {self_s("dnn.im2col"), "s"};
  m["dnn.col2im.busy_s"] = {self_s("dnn.col2im"), "s"};
  m["gpusim.sm_busy_fraction"] = {ratio(sim.busy_weighted, sim.makespan_us),
                                  "ratio"};
  m["gpusim.avg_resident_blocks"] = {
      ratio(sim.resident_weighted, sim.makespan_us), "count"};
  m["baselines.vbatch.bubble_blocks"] = {
      ratio(static_cast<double>(sim.vbatch_bubble_blocks),
            static_cast<double>(sim.requests)),
      "count"};
  m["telemetry.overhead_ratio"] = {
      1.0 - ratio(traced.completed_per_s(), untraced.completed_per_s()),
      "ratio"};
  m["telemetry.spans_dropped"] = {
      static_cast<double>(counter(window, "tel.spans.dropped")), "count"};
  m["host.calib_gflops"] = {calib.gflops(), "GFLOP/s"};

  if (!a.spans_path.empty()) write_spans(a.spans_path, prov, tracer.spans);
  return out;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  ctb::set_parallel_threads(1);
  ctb::telemetry::set_enabled(false);
  const std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  if (!w) throw std::invalid_argument("unknown workload " + a.workload);
  Provenance prov = provenance(a);
  const Outcome out =
      a.trace ? run_traced(a, *w, prov) : run_untraced(a, *w, prov);
  std::cout << "{\"provenance\": " << prov.json() << "}\n";
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics_json(out.metrics) << "}"
            << std::endl;
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ctb_perfbench: " << e.what() << '\n';
    return 2;
  }
}
