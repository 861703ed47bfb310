#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace perfbench {

long long Tracer::record(const char* name, Clock::time_point start,
                         Clock::time_point end, long long parent,
                         long long request) {
  if (!enabled_) {
    return -1;
  }
  const Span span{name, 1000.0 * ms_between(origin_, start),
                  1000.0 * ms_between(origin_, end), parent, request};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<long long>(spans_.size()) - 1;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << (span.request >= 0 ? span.request : 0)
        << ",\"ts\":" << span.start_us
        << ",\"dur\":" << span.end_us - span.start_us
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Outcome::fail(const std::string& message) {
  ++failed;
  if (errors.size() < 8) {
    errors.push_back(message);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
