// Shared helpers for the end-to-end benchmark: deterministic per-op
// randomness, the Zipf sampler, exact quantiles, histogram deltas and the
// small amount of process introspection the report needs.
#ifndef SSEBENCH_COMMON_H_
#define SSEBENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sse/obs/histogram.h"
#include "sse/util/result.h"

namespace ssebench {

uint64_t NowNs();

/// SplitMix64. Every per-op choice is Mix64(seed ^ op_index), so the set of
/// operations a run performs does not depend on thread interleaving.
uint64_t Mix64(uint64_t x);

/// `prefix` followed by the decimal `n`, e.g. Keyword("w", 7) == "w7".
std::string Keyword(const char* prefix, size_t n);

/// Uniform double in [0, 1) from 64 random bits.
double UnitFromBits(uint64_t bits);

/// Zipf(s) over ranks [0, n) via a precomputed CDF; rank 0 is the most
/// popular.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(uint64_t bits) const { return RankAt(UnitFromBits(bits)); }
  /// The rank whose CDF interval holds `u` in [0, 1).
  size_t RankAt(double u) const;

 private:
  std::vector<double> cdf_;
};

/// `n` draws from `zipf` whose multiset is fixed (the ranks at quantiles
/// (i + 0.5) / n) in an order shuffled by `seed`: the seed decides which op
/// gets which keyword, not how often each keyword occurs, so different
/// seeds give equally heavy runs.
std::vector<size_t> StratifiedDraws(const ZipfSampler& zipf, size_t n,
                                    uint64_t seed);

/// Fisher-Yates shuffle driven by Mix64(seed ^ i).
template <typename T>
void SeededShuffle(std::vector<T>* items, uint64_t seed) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[Mix64(seed ^ i) % i]);
  }
}

/// Exact quantile of `values` (copied; q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Mean of the middle 80% of the samples (10% trimmed off each end).
/// Robust to tails like a median, but where the host alternates between a
/// fast and a slow speed it moves in proportion to the share of time spent
/// in each, instead of jumping from one mode to the other.
double TrimmedMean(std::vector<double> values);

/// `after` minus `before`, bucket by bucket (both from one histogram).
sse::obs::LatencyHistogram::Snapshot SnapDelta(
    const sse::obs::LatencyHistogram::Snapshot& before,
    const sse::obs::LatencyHistogram::Snapshot& after);

/// Reads one histogram series out of Prometheus text (as rendered by
/// obs::MetricsRegistry) back into bucket form. Missing series -> empty.
sse::obs::LatencyHistogram::Snapshot ScrapeHistogram(const std::string& text,
                                                     const std::string& name);
/// A counter or gauge sample `name value` at line start; 0 when absent.
double ScrapeValue(const std::string& text, const std::string& name);

/// Sum of regular-file sizes directly inside `dir`.
uint64_t DirBytes(const std::string& dir);

/// Process peak resident set size (VmHWM), in MB.
double PeakRssMb();

/// Aborts the run (exit 3, no result line) on a set-up failure: a broken
/// stack is not a measurement.
[[noreturn]] void Die(const std::string& what, const sse::Status& status);

template <typename T>
T Must(sse::Result<T> result, const char* what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}
void MustOk(const sse::Status& status, const char* what);

/// Keyword -> document ids, built from the benchmark's own generated
/// documents; every search result is compared against it.
class Oracle {
 public:
  /// Keeps each list sorted and free of duplicates.
  void Add(const std::string& keyword, uint64_t id);
  /// Ascending ids for `keyword` (empty when never stored).
  const std::vector<uint64_t>& Expected(const std::string& keyword) const;

 private:
  std::map<std::string, std::vector<uint64_t>> ids_;
};

/// Everything one workload run measured, before it is turned into the
/// result line.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failed ops
  /// Run-level checks that failed (trace integrity, in-run determinism,
  /// final oracle sweep); any entry makes the run incorrect.
  std::vector<std::string> check_errors;

  std::vector<double> setup_s;        // one per set-up, host-adjusted
  std::vector<double> setup_wall_s;   // the same set-ups, wall clock
  double timed_s = 0;                 // wall time of the measured phases
  uint64_t ok_ops = 0;                // OK, oracle-verified ops in them
  std::vector<double> search_us;      // client-observed, per op
  std::vector<double> update_us;
  /// True when the measured ops run on one thread of an otherwise idle
  /// stack (the in-process workloads): then each op is also kept at the
  /// reference host speed (see HostHashNs) in search_adj_us and
  /// update_adj_us, and the slices use those.
  bool host_adjusted = false;
  std::vector<double> search_adj_us;
  std::vector<double> update_adj_us;
  /// Per measured slice (a fixed share of the run over TCP, an episode
  /// in-process): goodput and trimmed-mean latencies. The end-to-end
  /// figures are their medians, so a host stall that spans a minority of
  /// the slices does not move the run's result.
  std::vector<double> slice_goodput;
  std::vector<double> slice_search_us;
  std::vector<double> slice_update_us;
  double index_bytes_per_posting = 0;  // exact for a seed
  double wire_bytes_per_op = 0;        // exact for a seed
  /// Peak RSS at a point of the run that does not depend on how many ops
  /// the measured time allowed (0 = read at the end).
  double peak_rss_mb = 0;

  std::map<std::string, double> layer;          // per-layer metrics
  std::map<std::string, double> exact;          // counts that must repeat
  std::map<std::string, double> info;           // diagnostics for the log
  std::map<std::string, uint64_t> phase_ops;    // op counts per phase
  std::map<std::string, std::string> config;    // stated configuration

  void Fail(const std::string& why);
  /// Closes a measured slice that began when ok_ops and the latency
  /// vectors had the given sizes. `wall_s` is its wall time; `op_s` the
  /// time its ops took at the reference host speed, used for goodput when
  /// host_adjusted.
  void EndSlice(uint64_t ok_from, size_t search_from, size_t update_from,
                double wall_s, double op_s);
};

}  // namespace ssebench

#endif  // SSEBENCH_COMMON_H_
