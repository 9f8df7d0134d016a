#include "service/failpoint.hpp"

#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>

namespace ctb::service {

const char* to_string(FailAction action) {
  switch (action) {
    case FailAction::kOff:
      return "off";
    case FailAction::kThrow:
      return "throw";
    case FailAction::kBadAlloc:
      return "badalloc";
    case FailAction::kCorrupt:
      return "corrupt";
  }
  return "?";
}

namespace {

bool parse_action(const std::string& token, FailAction& out) {
  if (token == "off") out = FailAction::kOff;
  else if (token == "throw") out = FailAction::kThrow;
  else if (token == "badalloc") out = FailAction::kBadAlloc;
  else if (token == "corrupt") out = FailAction::kCorrupt;
  else return false;
  return true;
}

bool parse_int64(const std::string& token, std::int64_t& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) return false;
  out = v;
  return true;
}

/// One entry of the spec grammar: name=action[:count].
bool parse_entry(const std::string& entry, std::string& name,
                 FailpointSpec& spec) {
  const std::size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  name = entry.substr(0, eq);
  const std::size_t colon = entry.find(':', eq + 1);
  spec = FailpointSpec{};
  // Without a colon the length wraps past the end: the action runs to it.
  if (!parse_action(entry.substr(eq + 1, colon - eq - 1), spec.action))
    return false;
  if (colon == std::string::npos) return true;
  std::int64_t count = 0;
  if (!parse_int64(entry.substr(colon + 1), count)) return false;
  spec.remaining = static_cast<int>(count);
  return true;
}

int arm_from_string(const std::string& spec,
                    std::map<std::string, std::pair<FailpointSpec,
                                                    std::int64_t>>& points) {
  int armed = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t sep = spec.find_first_of(",;", pos);
    if (sep == std::string::npos) sep = spec.size();
    const std::string entry = spec.substr(pos, sep - pos);
    pos = sep + 1;
    if (entry.empty()) continue;
    std::string name;
    FailpointSpec parsed;
    if (!parse_entry(entry, name, parsed)) continue;
    points[name].first = parsed;
    ++armed;
  }
  return armed;
}

struct Registry {
  std::mutex mu;
  // name -> (armed spec, hit count)
  std::map<std::string, std::pair<FailpointSpec, std::int64_t>> points;

  Registry() {
    // Env arming happens in the constructor, before the registry is
    // reachable from any other thread — no lock, no reentrancy.
    if (const char* env = std::getenv("CTB_FAILPOINTS"))
      arm_from_string(env, points);
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

void set_failpoint(const std::string& name, FailpointSpec spec) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.points[name].first = spec;
}

void clear_failpoint(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.points.find(name);
  if (it != r.points.end()) it->second.first = FailpointSpec{};
}

void clear_failpoints() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.points.clear();
}

FailAction consume_failpoint(const char* name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.points.find(name);
  if (it == r.points.end()) return FailAction::kOff;
  FailpointSpec& spec = it->second.first;
  if (spec.action == FailAction::kOff || spec.remaining == 0)
    return FailAction::kOff;
  ++it->second.second;
  if (spec.remaining > 0) --spec.remaining;
  return spec.action;
}

std::int64_t failpoint_hits(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.points.find(name);
  return it == r.points.end() ? 0 : it->second.second;
}

int load_failpoints_from_string(const std::string& spec) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return arm_from_string(spec, r.points);
}

}  // namespace ctb::service
