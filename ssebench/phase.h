// Pieces the three workloads share: document synthesis, verification of
// search outcomes, layer metrics from counter deltas, and the traced-run
// bookkeeping (alternating traced/untraced blocks, span analysis).
#ifndef SSEBENCH_PHASE_H_
#define SSEBENCH_PHASE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "sse/core/types.h"
#include "stack.h"
#include "tracing.h"

namespace ssebench {

/// Per-layer medians must add up to the client-observed median of each op
/// class within this share (medians do not add exactly; every op's own
/// self times add up to its client span by construction).
inline constexpr double kSelfTimeSumTolerance = 0.15;

/// Deterministic document body for `id` (64 bytes).
std::string DocumentContent(uint64_t seed, uint64_t id);

/// Checks a client Search outcome against the oracle: ids, and every
/// returned document decrypts to the content stored under its id.
bool VerifyOutcome(const sse::core::SearchOutcome& outcome,
                   const std::vector<uint64_t>& expected, uint64_t seed,
                   std::string* why);

/// Records, for blocks of ops, when the first op of each block started;
/// consecutive starts give block durations, which split goodput into the
/// traced and untraced halves of a traced run.
class BlockClock {
 public:
  BlockClock(uint64_t first_op, uint64_t block, size_t capacity)
      : first_op_(first_op), block_(block), starts_(capacity, 0) {}
  /// Call with every op as it starts; only block heads are kept. Distinct
  /// threads write distinct slots.
  void OpStarted(uint64_t op, uint64_t now_ns) {
    if (op < first_op_ || (op - first_op_) % block_ != 0) return;
    const uint64_t b = (op - first_op_) / block_;
    if (b < starts_.size()) starts_[b] = now_ns;
  }
  /// Adds whole blocks' ops and time to the per-mode sums: index 1 for
  /// traced (odd) blocks, 0 for untraced.
  void Accumulate(double ops[2], double seconds[2]) const;

 private:
  uint64_t first_op_;
  uint64_t block_;
  std::vector<uint64_t> starts_;
};

/// Layer metrics computed from counters read before and after a phase
/// that ran `searches` searches and `updates` updates. Counts go into
/// both report.layer and report.exact.
void AddCounterLayers(RunReport* report, const Stack::Counters& before,
                      const Stack::Counters& after, uint64_t searches,
                      uint64_t updates);

/// Turns the traced run's spans into self-time metrics, checks trace
/// integrity, writes the Chrome trace and the trace-overhead metric.
void AddTraceLayers(RunReport* report, const std::vector<Span>& spans,
                    const std::vector<Layer>& layers, const double ops[2],
                    const double seconds[2], const std::string& trace_path);

/// Host speed, measured with code the program under test does not own:
/// nanoseconds per 32-byte SHA-256 over `n` direct OpenSSL EVP calls. The
/// host this benchmark was written on drifts between about 420 and 950 ns
/// within seconds and over minutes (see README.md, "Host noise").
double HostHashNs(int n);

/// The speed the host-adjusted figures are expressed at: a time t measured
/// while HostHashNs read r is reported as t * kReferenceHashNs / r.
inline constexpr double kReferenceHashNs = 500;
/// Hashes per calibration: after every in-process op (a few percent of the
/// cheapest op), and at each set-up checkpoint.
inline constexpr int kOpCalibrationHashes = 16;
inline constexpr int kSetupCalibrationHashes = 256;

/// Single-threaded wall time re-expressed at the reference host speed,
/// piecewise: each Mark() calibrates and charges the interval since the
/// previous mark at the mean of the calibrations at its two ends. The
/// calibrations themselves are not charged. Valid only for work that runs
/// on the calling thread of an otherwise idle process, like the
/// calibration does.
class HostClock {
 public:
  explicit HostClock(int hashes);
  /// Closes the interval since the last mark; returns the factor it was
  /// charged at (reference speed / host speed).
  double Mark();
  double wall_s() const { return wall_s_; }
  double adjusted_s() const { return adjusted_s_; }

 private:
  int hashes_;
  double host_ns_;
  uint64_t since_ns_;
  double wall_s_ = 0;
  double adjusted_s_ = 0;
};

/// Runs one single-threaded set-up `fn(HostClock&)`, which marks the clock
/// between its steps, and records its wall and host-adjusted times.
template <typename Fn>
void TimeSetup(RunReport* report, Fn&& fn) {
  HostClock clock(kSetupCalibrationHashes);
  fn(clock);
  clock.Mark();
  report->setup_wall_s.push_back(clock.wall_s());
  report->setup_s.push_back(clock.adjusted_s());
}

/// The crypto micro-loops timed around each measured phase.
std::map<std::string, double> TimeCryptoPrimitives();

}  // namespace ssebench

#endif  // SSEBENCH_PHASE_H_
