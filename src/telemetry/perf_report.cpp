#include "telemetry/perf_report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

namespace ctb::perfreport {

// ---------------------------------------------------------------------------
// Timing statistics
// ---------------------------------------------------------------------------

namespace {

// Nearest-rank percentile of a sorted sample: the ceil(p/100 * n)-th value.
double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<std::int64_t>(sorted.size());
  auto rank = static_cast<std::int64_t>(p / 100.0 * static_cast<double>(n));
  if (static_cast<double>(rank) * 100.0 < p * static_cast<double>(n)) ++rank;
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[static_cast<std::size_t>(rank - 1)];
}

}  // namespace

TimingStats TimingStats::from_samples(std::vector<double> samples_us) {
  TimingStats s;
  if (samples_us.empty()) return s;
  std::sort(samples_us.begin(), samples_us.end());
  s.median_us = nearest_rank(samples_us, 50.0);
  s.iqr_us = nearest_rank(samples_us, 75.0) - nearest_rank(samples_us, 25.0);
  s.min_us = samples_us.front();
  s.max_us = samples_us.back();
  return s;
}

// ---------------------------------------------------------------------------
// Deterministic metric allowlists
// ---------------------------------------------------------------------------
//
// Everything here is a pure function of the workload definitions (dims,
// policy, arch model): planning and the functional executors perform only
// integer and IEEE float arithmetic (no libm), so these deltas are identical
// on every host and thread count. Timing-derived metrics (sim.busy_pct,
// the span-duration <name>_ns histograms) are deliberately excluded.

LatencyStats LatencyStats::from_samples(std::vector<double> samples_us) {
  LatencyStats s;
  if (samples_us.empty()) return s;
  std::sort(samples_us.begin(), samples_us.end());
  s.count = static_cast<std::int64_t>(samples_us.size());
  s.p50_us = nearest_rank(samples_us, 50.0);
  s.p95_us = nearest_rank(samples_us, 95.0);
  s.p99_us = nearest_rank(samples_us, 99.0);
  return s;
}

const std::vector<std::string>& deterministic_counter_names() {
  static const std::vector<std::string> kNames = {
      "cache.evict",
      "cache.hit",
      "cache.miss",
      "exec.blocks",
      // exec.c.passes counts full sweeps over each C (one per GEMM per
      // executor run, plus one per separate bias/activation pass); the
      // fused-epilogue counters count tile stores that applied a chain and
      // the chain ops applied. All are decided by plan + dispatch structure,
      // never by thread count or ISA.
      "exec.c.passes",
      "exec.dispatch.generic",
      "exec.dispatch.specialized",
      "exec.epilogue.fused",
      "exec.epilogue.ops",
      "exec.flops",
      "exec.pack.bytes",
      "exec.pack.panels",
      "exec.pack.reuse",
      "exec.plan_runs",
      // exec.simd.* are deterministic per ISA (the dispatch decision is a
      // pure function of geometry and the active ISA) but host-dependent
      // across machines; compare_reports gates them only when the two
      // reports' simd_isa fields match.
      "exec.simd.avx2",
      "exec.simd.avx512",
      "exec.simd.neon",
      "exec.simd.scalar",
      // exec.splitk.* count partial-K tiles and the split C tiles they
      // cover; both are decided by the plan alone, never by thread count.
      "exec.splitk.groups",
      "exec.splitk.tiles",
      "exec.tiles",
      // plan.auto.* count which of auto-offline's candidates each plan
      // kept; the simulator comparison behind them replays exactly.
      "plan.auto.binary_wins",
      "plan.auto.none_wins",
      "plan.auto.threshold_wins",
      "plan.auto.uniform_wins",
      // plan.grouped.* count fused grouped-GEMM dispatches (dnn layer
      // fusion entry points) — pure functions of the workload definition.
      "plan.grouped.dispatches",
      "plan.grouped.fused_ops",
      "plan.grouped.gemms",
      "plan.heuristic.binary",
      "plan.heuristic.none",
      "plan.heuristic.threshold",
      "plan.policy.auto-offline",
      "plan.policy.binary-only",
      "plan.policy.random-forest",
      "plan.policy.threshold-only",
      "plan.policy.tiling-only",
      "plan.rf.choice.binary",
      "plan.rf.choice.threshold",
      // plan.splitk.* are driven by the deterministic simulator comparison
      // in consider_splitk, so the candidate/chosen counts replay exactly.
      "plan.splitk.chosen",
      "plan.splitk.considered",
      // service.* counters are pure functions of the replayed request
      // sequence (hit/miss mix, state-machine transitions): the service
      // plans inline, on the requesting thread.
      "service.admitted",
      "service.degraded",
      "service.hit",
      "service.miss",
      "service.quarantined",
      "service.retried",
      "service.upgraded",
      "tiling.candidates",
      "tiling.fallback_128",
      "tiling.iterations",
  };
  return kNames;
}

const std::vector<std::string>& deterministic_histogram_names() {
  static const std::vector<std::string> kNames = {
      "batching.sum_k_per_block",
      "batching.tiles_per_block",
      "tiling.tlp",
  };
  return kNames;
}

void harvest_deterministic_metrics(const telemetry::MetricsSnapshot& snap,
                                   WorkloadResult& out) {
  out.counters.clear();
  out.histograms.clear();
  for (const std::string& name : deterministic_counter_names()) {
    telemetry::CounterSample c;
    c.name = name;
    for (const auto& s : snap.counters) {
      if (s.name == name) {
        c.value = s.value;
        break;
      }
    }
    out.counters.push_back(std::move(c));
  }
  for (const std::string& name : deterministic_histogram_names()) {
    HistogramStat h;
    h.name = name;
    for (const auto& s : snap.histograms) {
      if (s.name == name) {
        h.count = s.count;
        h.sum = s.sum;
        h.p50 = static_cast<std::int64_t>(s.p50());
        h.p95 = static_cast<std::int64_t>(s.p95());
        h.p99 = static_cast<std::int64_t>(s.p99());
        break;
      }
    }
    out.histograms.push_back(std::move(h));
  }
  // The allowlists above are sorted; keep that invariant explicit.
  std::sort(out.counters.begin(), out.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(out.histograms.begin(), out.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
}

void sort_workloads(PerfReport& report) {
  std::sort(report.workloads.begin(), report.workloads.end(),
            [](const WorkloadResult& a, const WorkloadResult& b) {
              return a.name < b.name;
            });
  for (auto& w : report.workloads) {
    std::sort(w.counters.begin(), w.counters.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
    std::sort(w.histograms.begin(), w.histograms.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
  }
}

// ---------------------------------------------------------------------------
// Canonical JSON writer
// ---------------------------------------------------------------------------

namespace {

// Fixed three decimals: microsecond timings round-trip byte-identically
// through the parser (%.3f of the parsed value reproduces the bytes).
std::string fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

void write_us(std::ostream& os, double v) { os << fixed3(v); }

}  // namespace

void write_perf_report_json(std::ostream& os, const PerfReport& report) {
  PerfReport sorted = report;
  sort_workloads(sorted);
  os << "{\n";
  os << "  \"schema_version\": " << sorted.schema_version << ",\n";
  os << "  \"tag\": ";
  telemetry::write_json_escaped(os, sorted.tag);
  os << ",\n  \"suite\": ";
  telemetry::write_json_escaped(os, sorted.suite);
  os << ",\n  \"repeats\": " << sorted.repeats << ",\n";
  os << "  \"created_unix\": " << sorted.created_unix << ",\n";
  os << "  \"simd_isa\": ";
  telemetry::write_json_escaped(os, sorted.simd_isa);
  os << ",\n";
  os << "  \"workloads\": [";
  bool first_w = true;
  for (const WorkloadResult& w : sorted.workloads) {
    os << (first_w ? "\n" : ",\n");
    first_w = false;
    os << "    {\n      \"name\": ";
    telemetry::write_json_escaped(os, w.name);
    os << ",\n      \"flops\": " << w.flops;
    os << ",\n      \"repeats\": " << w.repeats;
    os << ",\n      \"timing\": {\"median_us\": ";
    write_us(os, w.timing.median_us);
    os << ", \"iqr_us\": ";
    write_us(os, w.timing.iqr_us);
    os << ", \"min_us\": ";
    write_us(os, w.timing.min_us);
    os << ", \"max_us\": ";
    write_us(os, w.timing.max_us);
    os << "}";
    if (w.lookup.count > 0) {
      os << ",\n      \"lookup\": {\"count\": " << w.lookup.count
         << ", \"p50_us\": ";
      write_us(os, w.lookup.p50_us);
      os << ", \"p95_us\": ";
      write_us(os, w.lookup.p95_us);
      os << ", \"p99_us\": ";
      write_us(os, w.lookup.p99_us);
      os << "}";
    }
    if (w.sim.plan_us > 0.0) {
      os << ",\n      \"sim\": {\"plan_us\": ";
      write_us(os, w.sim.plan_us);
      os << ", \"vbatch_us\": ";
      write_us(os, w.sim.vbatch_us);
      os << ", \"speedup\": ";
      write_us(os, w.sim.speedup);
      os << "}";
    }
    os << ",\n      \"counters\": [";
    bool first = true;
    for (const auto& c : w.counters) {
      os << (first ? "\n" : ",\n");
      first = false;
      os << "        {\"name\": ";
      telemetry::write_json_escaped(os, c.name);
      os << ", \"value\": " << c.value << "}";
    }
    os << (w.counters.empty() ? "]" : "\n      ]");
    os << ",\n      \"histograms\": [";
    first = true;
    for (const auto& h : w.histograms) {
      os << (first ? "\n" : ",\n");
      first = false;
      os << "        {\"name\": ";
      telemetry::write_json_escaped(os, h.name);
      os << ", \"count\": " << h.count << ", \"sum\": " << h.sum
         << ", \"p50\": " << h.p50 << ", \"p95\": " << h.p95
         << ", \"p99\": " << h.p99 << "}";
    }
    os << (w.histograms.empty() ? "]" : "\n      ]");
    os << "\n    }";
  }
  os << (sorted.workloads.empty() ? "]" : "\n  ]");
  os << "\n}\n";
}

// ---------------------------------------------------------------------------
// Minimal JSON parser
// ---------------------------------------------------------------------------
//
// The repo carries no JSON dependency, and a report is a small, known shape;
// a ~150-line recursive-descent parser keeps this module self-contained.
// Numbers keep their source text so 64-bit counters are re-read with strtoll
// (no double round-trip) and timings with strtod.

namespace {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  std::string text;  // number token or decoded string
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw PerfReportError("perf report JSON: " + what + " at byte " +
                          std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.text = parse_string();
        return v;
      }
      case 't': return parse_literal("true", JsonValue::Type::kBool);
      case 'f': return parse_literal("false", JsonValue::Type::kBool);
      case 'n': return parse_literal("null", JsonValue::Type::kNull);
      default: return parse_number();
    }
  }

  JsonValue parse_literal(const char* word, JsonValue::Type type) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
    JsonValue v;
    v.type = type;
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("expected a number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.text = text_.substr(start, pos_ - start);
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned long code =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

const JsonValue& require(const JsonValue& obj, const std::string& key,
                         JsonValue::Type type, const char* what) {
  if (obj.type != JsonValue::Type::kObject)
    throw PerfReportError(std::string("perf report JSON: ") + what +
                          " is not an object");
  const JsonValue* v = obj.find(key);
  if (v == nullptr)
    throw PerfReportError("perf report JSON: missing \"" + key + "\" in " +
                          what);
  if (v->type != type)
    throw PerfReportError("perf report JSON: \"" + key + "\" in " + what +
                          " has the wrong type");
  return *v;
}

std::int64_t as_int(const JsonValue& v, const char* what) {
  errno = 0;
  char* end = nullptr;
  long long out = std::strtoll(v.text.c_str(), &end, 10);
  if (errno != 0 || end == v.text.c_str() || *end != '\0')
    throw PerfReportError(std::string("perf report JSON: \"") + what +
                          "\" is not an integer: " + v.text);
  return out;
}

double as_double(const JsonValue& v, const char* what) {
  char* end = nullptr;
  const double out = std::strtod(v.text.c_str(), &end);
  if (end == v.text.c_str() || *end != '\0')
    throw PerfReportError(std::string("perf report JSON: \"") + what +
                          "\" is not a number: " + v.text);
  return out;
}

}  // namespace

PerfReport load_perf_report(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  JsonParser parser(buf.str());
  JsonValue root = parser.parse();
  if (root.type != JsonValue::Type::kObject)
    throw PerfReportError("perf report JSON: top level is not an object");

  PerfReport report;
  report.schema_version = static_cast<int>(as_int(
      require(root, "schema_version", JsonValue::Type::kNumber, "report"),
      "schema_version"));
  if (report.schema_version != kSchemaVersion)
    throw PerfReportError(
        "perf report JSON: unsupported schema_version " +
        std::to_string(report.schema_version) + " (this build reads " +
        std::to_string(kSchemaVersion) + "); regenerate the baseline");
  report.tag = require(root, "tag", JsonValue::Type::kString, "report").text;
  report.suite =
      require(root, "suite", JsonValue::Type::kString, "report").text;
  report.repeats = static_cast<int>(
      as_int(require(root, "repeats", JsonValue::Type::kNumber, "report"),
             "repeats"));
  report.created_unix = as_int(
      require(root, "created_unix", JsonValue::Type::kNumber, "report"),
      "created_unix");
  report.simd_isa =
      require(root, "simd_isa", JsonValue::Type::kString, "report").text;

  const JsonValue& workloads =
      require(root, "workloads", JsonValue::Type::kArray, "report");
  for (const JsonValue& jw : workloads.array) {
    WorkloadResult w;
    w.name = require(jw, "name", JsonValue::Type::kString, "workload").text;
    w.flops = as_int(
        require(jw, "flops", JsonValue::Type::kNumber, "workload"), "flops");
    w.repeats = static_cast<int>(as_int(
        require(jw, "repeats", JsonValue::Type::kNumber, "workload"),
        "repeats"));
    const JsonValue& jt =
        require(jw, "timing", JsonValue::Type::kObject, "workload");
    w.timing.median_us = as_double(
        require(jt, "median_us", JsonValue::Type::kNumber, "timing"),
        "median_us");
    w.timing.iqr_us = as_double(
        require(jt, "iqr_us", JsonValue::Type::kNumber, "timing"), "iqr_us");
    w.timing.min_us = as_double(
        require(jt, "min_us", JsonValue::Type::kNumber, "timing"), "min_us");
    w.timing.max_us = as_double(
        require(jt, "max_us", JsonValue::Type::kNumber, "timing"), "max_us");
    if (const JsonValue* jl = jw.find("lookup")) {
      if (jl->type != JsonValue::Type::kObject)
        throw PerfReportError("perf report JSON: \"lookup\" must be an object");
      w.lookup.count = as_int(
          require(*jl, "count", JsonValue::Type::kNumber, "lookup"), "count");
      w.lookup.p50_us = as_double(
          require(*jl, "p50_us", JsonValue::Type::kNumber, "lookup"), "p50_us");
      w.lookup.p95_us = as_double(
          require(*jl, "p95_us", JsonValue::Type::kNumber, "lookup"), "p95_us");
      w.lookup.p99_us = as_double(
          require(*jl, "p99_us", JsonValue::Type::kNumber, "lookup"), "p99_us");
    }
    if (const JsonValue* js = jw.find("sim")) {
      if (js->type != JsonValue::Type::kObject)
        throw PerfReportError("perf report JSON: \"sim\" must be an object");
      w.sim.plan_us = as_double(
          require(*js, "plan_us", JsonValue::Type::kNumber, "sim"), "plan_us");
      w.sim.vbatch_us = as_double(
          require(*js, "vbatch_us", JsonValue::Type::kNumber, "sim"),
          "vbatch_us");
      w.sim.speedup = as_double(
          require(*js, "speedup", JsonValue::Type::kNumber, "sim"), "speedup");
    }
    const JsonValue& jc =
        require(jw, "counters", JsonValue::Type::kArray, "workload");
    for (const JsonValue& entry : jc.array) {
      telemetry::CounterSample c;
      c.name = require(entry, "name", JsonValue::Type::kString, "counter").text;
      c.value = as_int(
          require(entry, "value", JsonValue::Type::kNumber, "counter"),
          "value");
      w.counters.push_back(std::move(c));
    }
    const JsonValue& jh =
        require(jw, "histograms", JsonValue::Type::kArray, "workload");
    for (const JsonValue& entry : jh.array) {
      HistogramStat h;
      h.name =
          require(entry, "name", JsonValue::Type::kString, "histogram").text;
      h.count = as_int(
          require(entry, "count", JsonValue::Type::kNumber, "histogram"),
          "count");
      h.sum = as_int(
          require(entry, "sum", JsonValue::Type::kNumber, "histogram"), "sum");
      h.p50 = as_int(
          require(entry, "p50", JsonValue::Type::kNumber, "histogram"), "p50");
      h.p95 = as_int(
          require(entry, "p95", JsonValue::Type::kNumber, "histogram"), "p95");
      h.p99 = as_int(
          require(entry, "p99", JsonValue::Type::kNumber, "histogram"), "p99");
      w.histograms.push_back(std::move(h));
    }
    report.workloads.push_back(std::move(w));
  }
  sort_workloads(report);
  return report;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

const char* to_string(DeltaClass cls) {
  switch (cls) {
    case DeltaClass::kMatch: return "match";
    case DeltaClass::kNoise: return "noise";
    case DeltaClass::kTimingImprovement: return "timing-improvement";
    case DeltaClass::kTimingRegression: return "timing-regression";
    case DeltaClass::kCounterRegression: return "counter-regression";
    case DeltaClass::kMissing: return "missing";
  }
  return "?";
}

namespace {

bool is_simd_counter(const std::string& name) {
  return name.rfind("exec.simd.", 0) == 0;
}

/// The simulated clock compares at the precision the JSON keeps, so a fresh
/// run gates against a loaded baseline exactly like a counter does.
void diff_sim(const SimTiming& base, const SimTiming& cur,
              std::vector<std::string>& out) {
  const auto text = [](const SimTiming& s, double v) {
    return s.plan_us > 0.0 ? fixed3(v) : std::string("(absent)");
  };
  const std::pair<const char*, double SimTiming::*> fields[] = {
      {"sim.plan_us", &SimTiming::plan_us},
      {"sim.vbatch_us", &SimTiming::vbatch_us},
      {"sim.speedup", &SimTiming::speedup}};
  for (const auto& [name, field] : fields) {
    const std::string b = text(base, base.*field);
    const std::string c = text(cur, cur.*field);
    if (b != c) out.push_back(std::string(name) + ": " + b + " -> " + c);
  }
}

/// With gate_simd false (the reports came from hosts with different vector
/// units), exec.simd.* entries are dropped from the walk on both sides —
/// their values are ISA-dependent by construction, not a regression.
void diff_counters(const WorkloadResult& base, const WorkloadResult& cur,
                   bool gate_simd, std::vector<std::string>& out) {
  if (base.flops != cur.flops)
    out.push_back("flops: " + std::to_string(base.flops) + " -> " +
                  std::to_string(cur.flops));
  if (base.repeats != cur.repeats)
    out.push_back("repeats: " + std::to_string(base.repeats) + " -> " +
                  std::to_string(cur.repeats));
  // Both sides are sorted by name; walk the union so a counter present in
  // only one report (taxonomy drift) is itself a mismatch.
  std::size_t i = 0, j = 0;
  while (i < base.counters.size() || j < cur.counters.size()) {
    const bool take_base =
        j >= cur.counters.size() ||
        (i < base.counters.size() &&
         base.counters[i].name < cur.counters[j].name);
    const bool take_cur =
        i >= base.counters.size() ||
        (j < cur.counters.size() &&
         cur.counters[j].name < base.counters[i].name);
    if (take_base) {
      if (gate_simd || !is_simd_counter(base.counters[i].name))
        out.push_back(base.counters[i].name + ": " +
                      std::to_string(base.counters[i].value) +
                      " -> (absent)");
      ++i;
    } else if (take_cur) {
      if (gate_simd || !is_simd_counter(cur.counters[j].name))
        out.push_back(cur.counters[j].name + ": (absent) -> " +
                      std::to_string(cur.counters[j].value));
      ++j;
    } else {
      if (base.counters[i].value != cur.counters[j].value &&
          (gate_simd || !is_simd_counter(base.counters[i].name)))
        out.push_back(base.counters[i].name + ": " +
                      std::to_string(base.counters[i].value) + " -> " +
                      std::to_string(cur.counters[j].value));
      ++i;
      ++j;
    }
  }
  for (const auto& hb : base.histograms) {
    for (const auto& hc : cur.histograms) {
      if (hb.name != hc.name) continue;
      if (hb.count != hc.count || hb.sum != hc.sum || hb.p50 != hc.p50 ||
          hb.p95 != hc.p95 || hb.p99 != hc.p99)
        out.push_back(hb.name + ": {count " + std::to_string(hb.count) +
                      ", sum " + std::to_string(hb.sum) + "} -> {count " +
                      std::to_string(hc.count) + ", sum " +
                      std::to_string(hc.sum) + "}");
      break;
    }
  }
}

}  // namespace

CompareResult compare_reports(const PerfReport& baseline,
                              const PerfReport& current,
                              const CompareOptions& opts) {
  CompareResult res;
  res.baseline_simd_isa = baseline.simd_isa;
  res.current_simd_isa = current.simd_isa;
  const bool gate_simd = res.simd_isa_matches();

  double log_sum = 0.0;
  int log_count = 0;

  // Both reports arrive sorted (loader and writer canonicalize); merge-walk
  // the union of workload names.
  std::size_t i = 0, j = 0;
  while (i < baseline.workloads.size() || j < current.workloads.size()) {
    const WorkloadResult* base =
        i < baseline.workloads.size() ? &baseline.workloads[i] : nullptr;
    const WorkloadResult* cur =
        j < current.workloads.size() ? &current.workloads[j] : nullptr;
    if (base != nullptr && cur != nullptr) {
      if (base->name < cur->name)
        cur = nullptr;
      else if (cur->name < base->name)
        base = nullptr;
    }

    WorkloadDelta d;
    if (base == nullptr || cur == nullptr) {
      d.name = base != nullptr ? base->name : cur->name;
      d.cls = DeltaClass::kMissing;
      d.counter_mismatches.push_back(
          base != nullptr ? "present only in baseline"
                          : "present only in current report");
      ++res.missing;
      if (base != nullptr) ++i;
      if (cur != nullptr) ++j;
      res.workloads.push_back(std::move(d));
      continue;
    }

    d.name = base->name;
    diff_counters(*base, *cur, gate_simd, d.counter_mismatches);
    diff_sim(base->sim, cur->sim, d.counter_mismatches);
    if (base->timing.median_us > 0.0 && cur->timing.median_us > 0.0) {
      d.time_ratio = cur->timing.median_us / base->timing.median_us;
      log_sum += std::log(d.time_ratio);
      ++log_count;
    }

    if (!d.counter_mismatches.empty()) {
      d.cls = DeltaClass::kCounterRegression;
      ++res.counter_regressions;
    } else if (d.time_ratio == 1.0 || d.time_ratio == 0.0) {
      d.cls = DeltaClass::kMatch;
    } else if (d.time_ratio > 1.0 + opts.noise_band) {
      d.cls = DeltaClass::kTimingRegression;
      ++res.timing_regressions;
    } else if (d.time_ratio < 1.0 / (1.0 + opts.noise_band)) {
      d.cls = DeltaClass::kTimingImprovement;
      ++res.timing_improvements;
    } else {
      d.cls = DeltaClass::kNoise;
    }
    res.workloads.push_back(std::move(d));
    ++i;
    ++j;
  }

  if (log_count > 0)
    res.geomean_time_ratio = std::exp(log_sum / log_count);
  return res;
}

void print_comparison(std::ostream& os, const CompareResult& cmp,
                      const CompareOptions& opts) {
  os << "comparison vs baseline (noise band +/-"
     << static_cast<int>(opts.noise_band * 100.0) << "% on timing):\n";
  if (!cmp.simd_isa_matches())
    os << "  note: simd_isa differs (baseline " << cmp.baseline_simd_isa
       << ", current " << cmp.current_simd_isa
       << ") — exec.simd.* counters excluded from gating\n";
  for (const WorkloadDelta& d : cmp.workloads) {
    char ratio[32];
    if (d.time_ratio > 0.0)
      std::snprintf(ratio, sizeof(ratio), "%6.3fx", d.time_ratio);
    else
      std::snprintf(ratio, sizeof(ratio), "      -");
    os << "  " << std::left << std::setw(40) << d.name << std::right << " "
       << ratio << "  " << to_string(d.cls) << "\n";
    for (const std::string& m : d.counter_mismatches)
      os << "      " << m << "\n";
  }
  char geo[32];
  std::snprintf(geo, sizeof(geo), "%.3f", cmp.geomean_time_ratio);
  os << "geomean time ratio: " << geo << "x (advisory)\n";
  os << "counter regressions: " << cmp.counter_regressions
     << "  timing regressions: " << cmp.timing_regressions
     << "  timing improvements: " << cmp.timing_improvements
     << "  missing: " << cmp.missing << "\n";
  os << (cmp.hard_fail()
             ? "RESULT: FAIL (deterministic counter or sim regression)\n"
             : "RESULT: OK (no deterministic regressions; timing deltas are "
               "advisory on this host)\n");
}

}  // namespace ctb::perfreport
