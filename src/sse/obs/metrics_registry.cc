#include "sse/obs/metrics_registry.h"

#include <cstdio>

namespace sse::obs {

namespace {

std::atomic<bool> g_crypto_timing{false};

void AppendHelpType(std::string* out, const std::string& name,
                    const std::string& help, const char* type) {
  if (!help.empty()) {
    *out += "# HELP " + name + " " + help + "\n";
  }
  *out += "# TYPE " + name + " " + std::string(type) + "\n";
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

}  // namespace

MetricsRegistry::Registration& MetricsRegistry::Registration::operator=(
    Registration&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void MetricsRegistry::Registration::Release() {
  if (registry_ != nullptr) {
    registry_->Unregister(id_);
    registry_ = nullptr;
    id_ = 0;
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: counters may be bumped from detached threads during shutdown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Counter* MetricsRegistry::GetCounter(const std::string& name,
                                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot.second == nullptr) {
    slot.second = std::make_unique<Counter>();
  }
  if (slot.first.empty()) slot.first = help;
  return slot.second.get();
}

MetricsRegistry::Registration MetricsRegistry::RegisterGauge(
    const std::string& name, std::function<double()> fn,
    const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  gauges_[id] = GaugeEntry{name, help, std::move(fn)};
  return Registration(this, id);
}

MetricsRegistry::Registration MetricsRegistry::RegisterHistogram(
    const std::string& name, std::function<LatencyHistogram::Snapshot()> fn,
    const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  histograms_[id] = HistogramEntry{name, help, std::move(fn)};
  return Registration(this, id);
}

void MetricsRegistry::Unregister(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_.erase(id);
  histograms_.erase(id);
}

std::string MetricsRegistry::RenderPrometheus() const {
  // Copy the callback lists out under the lock, then invoke them unlocked:
  // a provider is free to call back into GetCounter() while being scraped.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::map<std::string, std::string> counter_help;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : counters_) {
      counters.emplace_back(name, entry.second->Value());
      counter_help[name] = entry.first;
    }
    for (const auto& [id, entry] : gauges_) gauges.push_back(entry);
    for (const auto& [id, entry] : histograms_) histograms.push_back(entry);
  }

  std::string out;

  for (const auto& [name, value] : counters) {
    AppendHelpType(&out, name, counter_help[name], "counter");
    out += name + " " + std::to_string(value) + "\n";
  }

  // Same-name gauges (one per registered instance) sum into one sample.
  std::map<std::string, std::pair<std::string, double>> gauge_totals;
  for (const GaugeEntry& g : gauges) {
    auto& slot = gauge_totals[g.name];
    if (slot.first.empty()) slot.first = g.help;
    slot.second += g.fn();
  }
  for (const auto& [name, help_value] : gauge_totals) {
    AppendHelpType(&out, name, help_value.first, "gauge");
    out += name + " ";
    AppendDouble(&out, help_value.second);
    out += "\n";
  }

  // Same-name histograms merge into one distribution before rendering.
  std::map<std::string, std::pair<std::string, LatencyHistogram::Snapshot>>
      merged;
  for (const HistogramEntry& h : histograms) {
    auto& slot = merged[h.name];
    if (slot.first.empty()) slot.first = h.help;
    slot.second.Merge(h.fn());
  }
  for (const auto& [name, help_snap] : merged) {
    const LatencyHistogram::Snapshot& snap = help_snap.second;
    AppendHelpType(&out, name, help_snap.first, "histogram");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < snap.buckets.size(); ++i) {
      cumulative += snap.buckets[i];
      if (snap.buckets[i] == 0 && i + 1 < snap.buckets.size()) {
        continue;  // keep the output compact: skip interior empty buckets
      }
      out += name + "_bucket{le=\"";
      AppendDouble(&out, static_cast<double>(
                             LatencyHistogram::Snapshot::upper_edge_nanos(i)) /
                             1e9);
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(snap.count) + "\n";
    out += name + "_sum ";
    AppendDouble(&out, static_cast<double>(snap.total_nanos) / 1e9);
    out += "\n";
    out += name + "_count " + std::to_string(snap.count) + "\n";
  }

  return out;
}

CryptoTimers& CryptoTimers::Global() {
  static CryptoTimers* timers = [] {
    auto* t = new CryptoTimers();
    // Process-lifetime registrations; a function-local static keeps them
    // alive (and reachable, so leak checkers stay quiet).
    static MetricsRegistry::Registration keep[4];
    auto& reg = MetricsRegistry::Global();
    keep[0] = reg.RegisterHistogram(
        "sse_crypto_prf_seconds", [t] { return t->prf.Snap(); },
        "Per-call HMAC-SHA-256 latency: PRF evaluations, HKDF blocks and "
        "stream-cipher MACs (gated, off by default)");
    keep[1] = reg.RegisterHistogram(
        "sse_crypto_prg_seconds", [t] { return t->prg.Snap(); },
        "Per-call PRG expansion latency (gated, off by default)");
    keep[2] = reg.RegisterHistogram(
        "sse_crypto_elgamal_encrypt_seconds",
        [t] { return t->elgamal_encrypt.Snap(); },
        "Per-call ElGamal encryption latency (gated, off by default)");
    keep[3] = reg.RegisterHistogram(
        "sse_crypto_elgamal_decrypt_seconds",
        [t] { return t->elgamal_decrypt.Snap(); },
        "Per-call ElGamal decryption latency (gated, off by default)");
    return t;
  }();
  return *timers;
}

bool CryptoTimingEnabled() {
  return g_crypto_timing.load(std::memory_order_relaxed);
}

void SetCryptoTimingEnabled(bool enabled) {
  g_crypto_timing.store(enabled, std::memory_order_relaxed);
}

}  // namespace sse::obs
