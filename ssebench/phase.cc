#include "phase.h"

#include <cmath>
#include <cstdio>

#include <openssl/evp.h>

#include "sse/crypto/hash_chain.h"
#include "sse/crypto/prf.h"
#include "sse/crypto/sha256.h"
#include "sse/crypto/stream_cipher.h"
#include "sse/util/random.h"

namespace ssebench {

std::string DocumentContent(uint64_t seed, uint64_t id) {
  char head[48];
  std::snprintf(head, sizeof(head), "doc-%llu-%016llx-",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(Mix64(seed ^ id)));
  std::string body = head;
  while (body.size() < 64) body += body;
  body.resize(64);
  return body;
}

bool VerifyOutcome(const sse::core::SearchOutcome& outcome,
                   const std::vector<uint64_t>& expected, uint64_t seed,
                   std::string* why) {
  if (outcome.ids != expected) {
    *why = "ids differ from the oracle (got " +
           std::to_string(outcome.ids.size()) + ", expected " +
           std::to_string(expected.size()) + ")";
    return false;
  }
  if (outcome.documents.size() != expected.size()) {
    *why = "document count differs from the oracle";
    return false;
  }
  for (const auto& [id, plain] : outcome.documents) {
    const std::string want = DocumentContent(seed, id);
    if (plain.size() != want.size() ||
        !std::equal(plain.begin(), plain.end(), want.begin())) {
      *why = "document " + std::to_string(id) + " content differs";
      return false;
    }
  }
  return true;
}

void BlockClock::Accumulate(double ops[2], double seconds[2]) const {
  for (size_t b = 0; b + 1 < starts_.size(); ++b) {
    if (starts_[b] == 0 || starts_[b + 1] <= starts_[b]) continue;
    ops[b % 2] += static_cast<double>(block_);
    seconds[b % 2] += static_cast<double>(starts_[b + 1] - starts_[b]) / 1e9;
  }
}

void AddCounterLayers(RunReport* report, const Stack::Counters& before,
                      const Stack::Counters& after, uint64_t searches,
                      uint64_t updates) {
  const double s = static_cast<double>(std::max<uint64_t>(searches, 1));
  const double u = static_cast<double>(std::max<uint64_t>(updates, 1));
  auto exact = [&](const char* name, double value) {
    report->layer[name] = value;
    report->exact[name] = value;
  };
  const Stack::ShardTotals& b = before.shards;
  const Stack::ShardTotals& a = after.shards;
  exact("core.scheme2.walk_steps_per_search",
        static_cast<double>(a.s2_chain_steps - b.s2_chain_steps) / s);
  exact("core.scheme2.segments_decrypted_per_search",
        static_cast<double>(a.s2_segments_decrypted - b.s2_segments_decrypted) /
            s);
  exact("core.scheme3.walk_steps_per_search",
        static_cast<double>(a.s3_chain_steps - b.s3_chain_steps) / s);
  exact("core.scheme3.entries_decrypted_per_search",
        static_cast<double>(a.s3_entries_decrypted - b.s3_entries_decrypted) /
            s);
  exact("index.comparisons_per_search",
        static_cast<double>(a.index_comparisons - b.index_comparisons) / s);
  exact("engine.doc_fetches_per_search",
        static_cast<double>(after.engine.doc_fetches -
                            before.engine.doc_fetches) /
            s);
  exact("storage.wal_bytes_per_update",
        static_cast<double>(after.wal_bytes - before.wal_bytes) / u);
  report->layer["storage.wal_syncs_per_update"] =
      static_cast<double>(after.wal_syncs - before.wal_syncs) / u;
}

void AddTraceLayers(RunReport* report, const std::vector<Span>& spans,
                    const std::vector<Layer>& layers, const double ops[2],
                    const double seconds[2], const std::string& trace_path) {
  const TraceAnalysis a = AnalyzeSpans(spans, layers);
  std::map<std::string, double>& l = report->layer;
  l["core.client.search_self_us"] = a.SelfMedian(kClientLayer, kSearchOp);
  l["core.client.update_self_us"] = a.SelfMedian(kClientLayer, kUpdateOp);
  l["net.search_self_us"] = a.SelfMedian(kNetLayer, kSearchOp);
  l["net.update_self_us"] = a.SelfMedian(kNetLayer, kUpdateOp);
  l["core.durable.update_self_us"] = a.SelfMedian(kDurableLayer, kUpdateOp);
  l["engine.search_us"] = a.SpanMedian(kEngineLayer, kSearchOp);
  l["engine.update_us"] = a.SpanMedian(kEngineLayer, kUpdateOp);

  report->info["trace.ops"] = static_cast<double>(a.ops);
  if (a.ops == 0) report->check_errors.push_back("trace: no complete op");
  if (a.incomplete_ops + a.nesting_violations + a.duplicate_spans > 0) {
    report->check_errors.push_back(
        "trace: " + std::to_string(a.incomplete_ops) + " incomplete ops, " +
        std::to_string(a.nesting_violations) + " nesting violations, " +
        std::to_string(a.duplicate_spans) + " duplicate spans");
  }
  for (int cls : {kSearchOp, kUpdateOp}) {
    const double total = a.SpanMedian(kClientLayer, cls);
    if (total <= 0) continue;
    double sum = 0;
    for (Layer layer : layers) sum += a.SelfMedian(layer, cls);
    const char* name = cls == kSearchOp ? "search" : "update";
    report->info[std::string("trace.") + name + ".client_p50_us"] = total;
    report->info[std::string("trace.") + name + ".self_sum_p50_us"] = sum;
    if (std::fabs(sum - total) > kSelfTimeSumTolerance * total) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "trace: %s self times sum to %.1f us, client median %.1f "
                    "us (tolerance %.0f%%)",
                    name, sum, total, kSelfTimeSumTolerance * 100);
      report->check_errors.push_back(buf);
    }
  }

  const double untraced = seconds[0] > 0 ? ops[0] / seconds[0] : 0;
  const double traced = seconds[1] > 0 ? ops[1] / seconds[1] : 0;
  l["obs.trace_overhead_pct"] =
      untraced > 0 ? (untraced - traced) / untraced * 100.0 : 0;
  report->info["trace.untraced_goodput_ops_s"] = untraced;
  report->info["trace.traced_goodput_ops_s"] = traced;
  if (!WriteChromeTrace(spans, 2000, trace_path)) {
    report->check_errors.push_back("trace: cannot write " + trace_path);
  }
}

double HostHashNs(int n) {
  unsigned char buf[32] = {0x5a};
  unsigned int len = 0;
  const uint64_t t0 = NowNs();
  for (int i = 0; i < n; ++i) {
    EVP_Digest(buf, sizeof(buf), buf, &len, EVP_sha256(), nullptr);
  }
  return static_cast<double>(NowNs() - t0) / n;
}

HostClock::HostClock(int hashes)
    : hashes_(hashes), host_ns_(HostHashNs(hashes)), since_ns_(NowNs()) {}

double HostClock::Mark() {
  const double interval_s = static_cast<double>(NowNs() - since_ns_) / 1e9;
  const double host_ns = HostHashNs(hashes_);
  const double factor = kReferenceHashNs / ((host_ns_ + host_ns) / 2);
  wall_s_ += interval_s;
  adjusted_s_ += interval_s * factor;
  host_ns_ = host_ns;
  since_ns_ = NowNs();
  return factor;
}

std::map<std::string, double> TimeCryptoPrimitives() {
  using sse::Bytes;
  std::map<std::string, double> out;
  Bytes x(32, 0x5a);
  auto per_call_ns = [](uint64_t t0, int n) {
    return static_cast<double>(NowNs() - t0) / n;
  };

  constexpr int kHashes = 20000;
  uint64_t t0 = NowNs();
  for (int i = 0; i < kHashes; ++i) x = sse::crypto::Sha256(x).value();
  out["crypto.sha256_ns"] = per_call_ns(t0, kHashes);

  t0 = NowNs();
  for (int i = 0; i < kHashes; ++i) {
    x = sse::crypto::HashChain::Step(x).value();
  }
  out["crypto.hash_chain_step_ns"] = per_call_ns(t0, kHashes);

  const sse::crypto::Prf prf = sse::crypto::Prf::Create(Bytes(32, 7)).value();
  constexpr int kPrfs = 10000;
  t0 = NowNs();
  for (int i = 0; i < kPrfs; ++i) x = prf.Eval(sse::BytesView(x)).value();
  out["crypto.prf_eval_ns"] = per_call_ns(t0, kPrfs);

  constexpr int kCreates = 2000;
  size_t sink = 0;
  t0 = NowNs();
  for (int i = 0; i < kCreates; ++i) {
    x[0] = static_cast<uint8_t>(i);
    sink += sse::crypto::StreamCipher::Create(x).ok() ? 1 : 0;
  }
  out["crypto.stream_cipher_create_ns"] = per_call_ns(t0, kCreates);

  sse::DeterministicRandom rng(sink);
  const sse::crypto::StreamCipher cipher =
      sse::crypto::StreamCipher::Create(x).value();
  const Bytes segment = cipher.Encrypt(Bytes(64, 1), rng).value();
  constexpr int kDecrypts = 5000;
  t0 = NowNs();
  for (int i = 0; i < kDecrypts; ++i) {
    sink += cipher.Decrypt(segment).value().size();
  }
  out["crypto.stream_cipher_decrypt_ns"] = per_call_ns(t0, kDecrypts);
  if (sink == 0) std::fprintf(stderr, "crypto loops produced nothing\n");
  return out;
}

}  // namespace ssebench
