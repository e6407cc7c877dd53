#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace ssebench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string Keyword(const char* prefix, size_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

double UnitFromBits(uint64_t bits) {
  return static_cast<double>(bits >> 11) / static_cast<double>(1ull << 53);
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfSampler::RankAt(double u) const {
  const size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(rank, cdf_.size() - 1);
}

std::vector<size_t> StratifiedDraws(const ZipfSampler& zipf, size_t n,
                                    uint64_t seed) {
  std::vector<size_t> draws(n);
  for (size_t i = 0; i < n; ++i) {
    draws[i] = zipf.RankAt((static_cast<double>(i) + 0.5) /
                           static_cast<double>(n));
  }
  SeededShuffle(&draws, seed);
  return draws;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t lo = values.size() / 10;
  const size_t hi = std::max(lo + 1, values.size() - values.size() / 10);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

sse::obs::LatencyHistogram::Snapshot SnapDelta(
    const sse::obs::LatencyHistogram::Snapshot& before,
    const sse::obs::LatencyHistogram::Snapshot& after) {
  sse::obs::LatencyHistogram::Snapshot d;
  d.count = after.count - before.count;
  d.total_nanos = after.total_nanos - before.total_nanos;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

sse::obs::LatencyHistogram::Snapshot ScrapeHistogram(const std::string& text,
                                                     const std::string& name) {
  using Snap = sse::obs::LatencyHistogram::Snapshot;
  Snap snap;
  const std::string prefix = name + "_bucket{le=\"";
  std::istringstream in(text);
  std::string line;
  uint64_t previous = 0;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const size_t quote = line.find('"', prefix.size());
    if (quote == std::string::npos) continue;
    const std::string le = line.substr(prefix.size(), quote - prefix.size());
    const uint64_t cumulative =
        std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
    if (le == "+Inf") {
      snap.count = cumulative;
      continue;
    }
    // le is the bucket's upper edge in seconds: 2 << i nanoseconds.
    const double edge_ns = std::strtod(le.c_str(), nullptr) * 1e9;
    size_t index = 0;
    while (index + 1 < snap.buckets.size() &&
           static_cast<double>(Snap::upper_edge_nanos(index)) < edge_ns * 0.999) {
      ++index;
    }
    snap.buckets[index] = cumulative - previous;
    previous = cumulative;
  }
  return snap;
}

double ScrapeValue(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void Die(const std::string& what, const sse::Status& status) {
  std::fprintf(stderr, "ssebench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(3);
}

void MustOk(const sse::Status& status, const char* what) {
  if (!status.ok()) Die(what, status);
}

void Oracle::Add(const std::string& keyword, uint64_t id) {
  std::vector<uint64_t>& ids = ids_[keyword];
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) ids.insert(it, id);
}

const std::vector<uint64_t>& Oracle::Expected(
    const std::string& keyword) const {
  static const std::vector<uint64_t> kEmpty;
  auto it = ids_.find(keyword);
  return it == ids_.end() ? kEmpty : it->second;
}

void RunReport::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void RunReport::EndSlice(uint64_t ok_from, size_t search_from,
                         size_t update_from, double wall_s, double op_s) {
  timed_s += wall_s;
  const std::vector<double>& search = host_adjusted ? search_adj_us : search_us;
  const std::vector<double>& update = host_adjusted ? update_adj_us : update_us;
  slice_goodput.push_back(static_cast<double>(ok_ops - ok_from) /
                          (host_adjusted ? op_s : wall_s));
  slice_search_us.push_back(TrimmedMean(std::vector<double>(
      search.begin() + static_cast<long>(search_from), search.end())));
  slice_update_us.push_back(TrimmedMean(std::vector<double>(
      update.begin() + static_cast<long>(update_from), update.end())));
}

}  // namespace ssebench
