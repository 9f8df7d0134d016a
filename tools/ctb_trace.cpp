// ctb_trace — offline reader for the observability artifacts the rest of
// the stack emits (DESIGN.md §13): flight-recorder dumps (flight.json /
// ctb_flight_*.json) and metrics.json (schema v4, with histogram
// exemplars). Input files are positional and autodetected by content, so a
// whole --trace-dir can be passed at once:
//
//   ctb_trace trace/flight.json trace/metrics.json       # per-trace summary
//   ctb_trace --trace 9e3779b97f4a7c15 trace/*.json      # one trace's trail
//   ctb_trace --only degraded trace/flight.json          # flagged traces
//   ctb_trace --top-latency 3 trace/metrics.json trace/flight.json
//
// --top-latency ranks the lookup-latency histogram's exemplars by value and
// resolves each one's trace id against the loaded flight events, which is
// exactly the "why was p99 slow" workflow: the exemplar names the outlier
// request, the flight trail shows what it did.
//
// The parsers are deliberately tolerant line scanners over the formats our
// own exporters write (one event / histogram per line) — they skip
// anything they do not recognize instead of aborting, so a dump truncated
// by a crash still yields its intact prefix.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/trace.hpp"
#include "util/cli.hpp"

namespace {

struct Event {
  double t_us = 0.0;
  std::uint64_t trace = 0;
  std::string kind;
  std::string detail;
  int tid = 0;
  long long a0 = 0;
  long long a1 = 0;
};

struct Exemplar {
  std::string hist;
  long long value = 0;
  std::uint64_t trace = 0;
};

struct Loaded {
  std::vector<Event> events;
  std::vector<Exemplar> exemplars;
};

/// Extracts the value of `"key":"..."` from a line. Returns false when the
/// key is absent; never throws.
bool string_field(const std::string& line, const std::string& key,
                  std::string& out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  out = line.substr(begin, end - begin);
  return true;
}

/// Extracts the value of `"key":<number>` from a line (integer or float).
bool number_field(const std::string& line, const std::string& key,
                  double& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  try {
    out = std::stod(line.substr(at + needle.size()));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// One flight-dump event line:
/// {"t_us":12.3,"trace":"<hex>","kind":"serve","detail":"hit","tid":1,...}
bool parse_flight_line(const std::string& line, Event& ev) {
  double t = 0;
  std::string trace_hex;
  if (!number_field(line, "t_us", t)) return false;
  if (!string_field(line, "trace", trace_hex)) return false;
  if (!string_field(line, "kind", ev.kind)) return false;
  ev.t_us = t;
  ev.trace = ctb::telemetry::parse_trace_id(trace_hex);
  string_field(line, "detail", ev.detail);
  double num = 0;
  if (number_field(line, "tid", num)) ev.tid = static_cast<int>(num);
  if (number_field(line, "a0", num)) ev.a0 = static_cast<long long>(num);
  if (number_field(line, "a1", num)) ev.a1 = static_cast<long long>(num);
  return true;
}

/// metrics.json histograms are one line each:
/// "service.lookup_us":{...,"exemplars":[{"bucket":7,"value":97,"trace":"x"}]}
void parse_metrics_json_line(const std::string& line, Loaded& out) {
  const std::size_t ex_at = line.find("\"exemplars\":[");
  if (ex_at == std::string::npos) return;
  // Histogram name: the first quoted string on the line.
  const std::size_t n0 = line.find('"');
  if (n0 == std::string::npos) return;
  const std::size_t n1 = line.find('"', n0 + 1);
  if (n1 == std::string::npos) return;
  const std::string hist = line.substr(n0 + 1, n1 - n0 - 1);
  std::size_t at = ex_at;
  while ((at = line.find("{\"bucket\":", at)) != std::string::npos) {
    const std::size_t close = line.find('}', at);
    if (close == std::string::npos) break;
    const std::string obj = line.substr(at, close - at + 1);
    double value = 0;
    std::string trace_hex;
    if (number_field(obj, "value", value) &&
        string_field(obj, "trace", trace_hex)) {
      const std::uint64_t trace = ctb::telemetry::parse_trace_id(trace_hex);
      if (trace != 0)
        out.exemplars.push_back(
            {hist, static_cast<long long>(value), trace});
    }
    at = close;
  }
}

/// Reads one artifact, autodetecting its format per line. A file yielding
/// neither events nor exemplars is reported (it is probably not ours).
bool load_file(const std::string& path, Loaded& out, std::ostream& err) {
  std::ifstream is(path);
  if (!is.good()) {
    err << "error: cannot read " << path << "\n";
    return false;
  }
  std::size_t events0 = out.events.size();
  std::size_t exemplars0 = out.exemplars.size();
  std::string line;
  while (std::getline(is, line)) {
    Event ev;
    if (line.find("\"t_us\":") != std::string::npos &&
        parse_flight_line(line, ev)) {
      out.events.push_back(std::move(ev));
    } else {
      parse_metrics_json_line(line, out);
    }
  }
  if (out.events.size() == events0 && out.exemplars.size() == exemplars0)
    err << "warning: " << path
        << " holds no flight events or exemplars (wrong file?)\n";
  return true;
}

/// The two --only predicates, over one trace's events.
bool is_degraded(const std::vector<const Event*>& trail) {
  for (const Event* e : trail) {
    if (e->kind == "quarantine") return true;
    if (e->kind == "serve" &&
        (e->detail == "degraded" || e->detail == "quarantined"))
      return true;
  }
  return false;
}

bool is_rejected(const std::vector<const Event*>& trail) {
  for (const Event* e : trail)
    if (e->kind == "guard.reject" || e->kind == "fallback") return true;
  return false;
}

void print_timeline(std::ostream& os, const std::vector<const Event*>& trail,
                    const char* indent) {
  for (const Event* e : trail) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%12.1f us  ", e->t_us);
    os << indent << buf << e->kind;
    if (!e->detail.empty()) os << " (" << e->detail << ")";
    os << "  a0=" << e->a0 << " a1=" << e->a1 << " tid=" << e->tid << "\n";
  }
}

/// Events of one trace, in time order (the map groups, this sorts).
using TraceMap = std::map<std::uint64_t, std::vector<const Event*>>;

TraceMap group_by_trace(const std::vector<Event>& events) {
  TraceMap traces;
  for (const Event& e : events) traces[e.trace].push_back(&e);
  for (auto& [id, trail] : traces)
    std::sort(trail.begin(), trail.end(), [](const Event* a, const Event* b) {
      return a->t_us < b->t_us;
    });
  return traces;
}

int run(int argc, char** argv) {
  ctb::CliFlags flags;
  flags.define("trace", "", "print the full event trail of one trace id");
  flags.define("only", "",
               "restrict the summary to flagged traces: degraded "
               "(quarantine / degraded serve) | rejected (guard rejection / "
               "fallback)");
  flags.define("top-latency", "0",
               "rank the lookup-latency exemplars by value and resolve each "
               "one's flight trail (needs metrics.json and ideally "
               "flight.json)");
  const std::vector<std::string> inputs = flags.parse(argc, argv);

  if (inputs.empty()) {
    std::cerr << "error: no input files\n"
              << flags.usage("ctb_trace")
              << "  positional: flight dumps, metrics.json\n";
    return 2;
  }
  const std::string only = flags.get("only");
  if (!only.empty() && only != "degraded" && only != "rejected") {
    std::cerr << "error: --only must be 'degraded' or 'rejected', got '"
              << only << "'\n";
    return 2;
  }

  Loaded data;
  for (const std::string& path : inputs)
    if (!load_file(path, data, std::cerr)) return 2;

  // Exemplars indexed by trace for the --trace and summary views.
  std::map<std::uint64_t, std::vector<const Exemplar*>> ex_of;
  for (const Exemplar& ex : data.exemplars) ex_of[ex.trace].push_back(&ex);

  const TraceMap traces = group_by_trace(data.events);

  const std::string trace_arg = flags.get("trace");
  if (!trace_arg.empty()) {
    const std::uint64_t id = ctb::telemetry::parse_trace_id(trace_arg);
    if (id == 0) {
      std::cerr << "error: '" << trace_arg
                << "' is not a trace id (16 hex digits)\n";
      return 2;
    }
    const auto it = traces.find(id);
    const bool have_events = it != traces.end() && !it->second.empty();
    const bool have_ex = ex_of.count(id) > 0;
    if (!have_events && !have_ex) {
      std::cerr << "error: trace " << ctb::telemetry::trace_id_hex(id)
                << " not present in the loaded artifacts\n";
      return 1;
    }
    std::cout << "trace " << ctb::telemetry::trace_id_hex(id) << "\n";
    if (have_events) print_timeline(std::cout, it->second, "  ");
    if (have_ex)
      for (const Exemplar* ex : ex_of[id])
        std::cout << "  exemplar: " << ex->hist << " = " << ex->value
                  << "\n";
    return 0;
  }

  const int top_n = static_cast<int>(flags.get_int("top-latency"));
  if (top_n > 0) {
    std::vector<const Exemplar*> ranked;
    for (const Exemplar& ex : data.exemplars)
      if (ex.hist.find("lookup") != std::string::npos)
        ranked.push_back(&ex);
    if (ranked.empty()) {
      std::cerr << "error: no lookup-latency exemplars loaded (pass "
                   "metrics.json from a replay run)\n";
      return 1;
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Exemplar* a, const Exemplar* b) {
                       return a->value > b->value;
                     });
    if (static_cast<int>(ranked.size()) > top_n) ranked.resize(top_n);
    std::cout << ranked.size() << " slowest lookup exemplars:\n";
    for (const Exemplar* ex : ranked) {
      std::cout << "  " << ex->hist << " = " << ex->value << " us  trace "
                << ctb::telemetry::trace_id_hex(ex->trace) << "\n";
      const auto it = traces.find(ex->trace);
      if (it != traces.end()) print_timeline(std::cout, it->second, "    ");
    }
    return 0;
  }

  // Default: one summary line per trace, in first-event time order.
  std::vector<std::pair<double, std::uint64_t>> order;
  for (const auto& [id, trail] : traces)
    if (id != 0) order.emplace_back(trail.front()->t_us, id);
  std::sort(order.begin(), order.end());
  int shown = 0;
  for (const auto& [t0, id] : order) {
    const std::vector<const Event*>& trail = traces.at(id);
    const bool degraded = is_degraded(trail);
    const bool rejected = is_rejected(trail);
    if (only == "degraded" && !degraded) continue;
    if (only == "rejected" && !rejected) continue;
    ++shown;
    std::cout << ctb::telemetry::trace_id_hex(id) << "  " << trail.size()
              << " events  " << trail.front()->kind << " -> "
              << trail.back()->kind;
    if (degraded) std::cout << "  [degraded]";
    if (rejected) std::cout << "  [rejected]";
    if (ex_of.count(id) > 0)
      std::cout << "  [" << ex_of[id].size() << " exemplars]";
    std::cout << "\n";
  }
  const std::size_t untraced = traces.count(0) > 0 ? traces.at(0).size() : 0;
  std::cout << shown << " traces";
  if (!only.empty()) std::cout << " (--only " << only << ")";
  std::cout << ", " << data.events.size() << " events ("
            << untraced << " untraced), " << data.exemplars.size()
            << " exemplars\n";
  return 0;
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
