#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace omxbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t process_wchar() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

SampleSummary summarize(const std::vector<Sample>& samples) {
  SampleSummary sum;
  for (const Sample& s : samples) {
    for (std::uint64_t k = 0; k < s.trials; ++k) {
      sum.trial_s.push_back(s.wall_s / static_cast<double>(s.trials));
    }
    if (s.rounds > 0) {
      sum.round_ms.push_back(1e3 * s.wall_s / static_cast<double>(s.rounds));
    }
    sum.wall_s += s.wall_s;
    sum.cpu_s += s.cpu_s;
    sum.trials += s.trials;
    sum.rounds += s.rounds;
    sum.messages += s.messages;
  }
  return sum;
}

int Spans::open(std::string name, int parent) {
  spans_.push_back(
      {std::move(name), parent, Clock::now(), Clock::time_point{}});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

std::string Spans::to_json() const {
  // Self time: a span's duration minus the union of its children's
  // intervals (children of one parent never overlap here: they run on the
  // benchmark's single driving thread).
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start, s.end);
    }
  }
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = seconds_between(s.start, s.end);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                  "\"start_s\":%.9f,\"dur_s\":%.9f,\"self_s\":%.9f}",
                  i ? "," : "", i, s.parent, s.name.c_str(),
                  seconds_between(origin, s.start), dur, dur - child_s[i]);
    os << buf;
  }
  os << "\n]\n";
  return os.str();
}

bool OutcomeLedger::record(std::uint64_t key,
                           const std::vector<std::uint64_t>& outcome,
                           bool digest, WorkloadResult* result) {
  const auto [it, fresh] = seen_.emplace(key, Entry{outcome, digest});
  it->second.digest = it->second.digest || digest;
  if (fresh || it->second.outcome == outcome) return true;
  if (result->check_failures.size() < 16) {
    result->check_failures.push_back("trial " + std::to_string(key) +
                                     ": outcome differs from its first run");
  }
  return false;
}

void OutcomeLedger::finish(WorkloadResult* result) const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  result->digest_entries = 0;
  for (const auto& [key, entry] : seen_) {
    if (!entry.digest) continue;
    mix(key);
    for (std::uint64_t v : entry.outcome) mix(v);
    result->digest_entries += 1;
  }
  result->digest = h;
}

std::vector<std::uint64_t> outcome_of(const omx::sim::Metrics& m,
                                      std::uint8_t decision) {
  return {m.rounds,      m.messages, m.comm_bits, m.random_calls,
          m.random_bits, m.omitted,  m.corrupted, decision};
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace omxbench
