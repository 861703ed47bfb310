#include "util/fault.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dqma::util::fault {

namespace {

enum class Action { kCrashAfter, kStall, kTornWrite };

struct Rule {
  unsigned site_mask = 0;  // bit per Site; all bits when no site prefix
  Action action = Action::kCrashAfter;
  long long arg = 0;  // crash_after: probe count; stall: milliseconds
};

constexpr unsigned kAllSites = 0x3u;

std::atomic<bool> g_armed{false};
std::vector<Rule> g_rules;                 // written only while disarmed
std::atomic<long long> g_probe_hits{0};    // crash_after counter
std::atomic<bool> g_tear_pending{false};   // torn_write fires once
std::once_flag g_env_once;

bool parse_site(const std::string& token, unsigned* mask) {
  if (token == "checkpoint") *mask = 1u << static_cast<int>(Site::kCheckpoint);
  else if (token == "serve") *mask = 1u << static_cast<int>(Site::kServe);
  else return false;
  return true;
}

void parse_clause(const std::string& clause, std::vector<Rule>* out) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= clause.size()) {
    const std::size_t colon = clause.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(clause.substr(start));
      break;
    }
    parts.push_back(clause.substr(start, colon - start));
    start = colon + 1;
  }
  Rule rule;
  std::size_t at = 0;
  if (!parts.empty() && parse_site(parts[0], &rule.site_mask)) {
    at = 1;
  } else {
    rule.site_mask = kAllSites;
  }
  if (at >= parts.size()) {
    std::fprintf(stderr, "dqma: DQMA_FAULT clause '%s' has no action\n",
                 clause.c_str());
    return;
  }
  const std::string& action = parts[at];
  const bool has_arg = at + 1 < parts.size();
  if (action == "crash_after") {
    rule.action = Action::kCrashAfter;
    rule.arg = has_arg ? std::atoll(parts[at + 1].c_str()) : 1;
    if (rule.arg <= 0) rule.arg = 1;
  } else if (action == "stall") {
    rule.action = Action::kStall;
    rule.arg = has_arg ? std::atoll(parts[at + 1].c_str()) : 1;
    if (rule.arg < 0) rule.arg = 0;
  } else if (action == "torn_write") {
    rule.action = Action::kTornWrite;
  } else {
    std::fprintf(stderr, "dqma: unknown DQMA_FAULT action '%s'\n",
                 action.c_str());
    return;
  }
  out->push_back(rule);
}

void arm_from_spec(const char* spec) {
  g_armed.store(false, std::memory_order_release);
  g_rules.clear();
  g_probe_hits.store(0, std::memory_order_relaxed);
  g_tear_pending.store(false, std::memory_order_relaxed);
  if (spec == nullptr || *spec == '\0') {
    return;
  }
  const std::string all(spec);
  std::size_t start = 0;
  while (start <= all.size()) {
    const std::size_t comma = all.find(',', start);
    const std::string clause =
        comma == std::string::npos ? all.substr(start)
                                   : all.substr(start, comma - start);
    if (!clause.empty()) {
      parse_clause(clause, &g_rules);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  for (const Rule& rule : g_rules) {
    if (rule.action == Action::kTornWrite) {
      g_tear_pending.store(true, std::memory_order_relaxed);
    }
  }
  g_armed.store(!g_rules.empty(), std::memory_order_release);
}

void ensure_parsed() {
  std::call_once(g_env_once, [] { arm_from_spec(std::getenv("DQMA_FAULT")); });
}

bool site_matches(const Rule& rule, Site site) {
  return (rule.site_mask & (1u << static_cast<int>(site))) != 0;
}

}  // namespace

void point(Site site) {
  ensure_parsed();
  if (!g_armed.load(std::memory_order_acquire)) {
    return;
  }
  for (const Rule& rule : g_rules) {
    if (!site_matches(rule, site)) {
      continue;
    }
    if (rule.action == Action::kCrashAfter) {
      const long long hit = g_probe_hits.fetch_add(1) + 1;
      if (hit >= rule.arg) {
        crash_now();
      }
    } else if (rule.action == Action::kStall) {
      std::this_thread::sleep_for(std::chrono::milliseconds(rule.arg));
    }
  }
}

bool should_tear(Site site) {
  ensure_parsed();
  if (!g_armed.load(std::memory_order_acquire)) {
    return false;
  }
  for (const Rule& rule : g_rules) {
    if (rule.action == Action::kTornWrite && site_matches(rule, site)) {
      bool expected = true;
      if (g_tear_pending.compare_exchange_strong(expected, false)) {
        return true;
      }
    }
  }
  return false;
}

void crash_now() { ::_exit(137); }

void reset_for_test(const char* spec) {
  ensure_parsed();  // make sure the env parse is consumed first
  arm_from_spec(spec);
}

}  // namespace dqma::util::fault
