// s2_zipf_tcp: the read-mostly Scheme 2 serving path over real TCP.
//
// Two generator threads, each with one connection and 8 pipelined calls in
// flight (closed loop: a thread reaps its oldest call before submitting the
// next). 95% of ops are searches drawn Zipf(0.99) over 1024 keywords from
// trapdoors minted at set-up; 5% replay genuine single-keyword update
// messages captured from Scheme2Client, on keywords outside the search set.
// Every keyword is searched once before timing, so Optimization 1's cache
// holds the whole working set and searches walk no chain steps.

#include <algorithm>
#include <atomic>
#include <thread>

#include "phase.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme2_messages.h"
#include "sse/crypto/keys.h"
#include "sse/net/tcp.h"
#include "sse/obs/metrics_registry.h"
#include "sse/util/random.h"
#include "workloads.h"

namespace ssebench {
namespace {

// Each keyword's chain element at counter 1 costs l - 1 = 4095 chain steps
// at set-up (derived by the seed Store; its trapdoor reuses it), so the
// vocabulary sets the set-up's SHA-256 work (about 4.2M steps).
constexpr size_t kKeywords = 1024;
constexpr size_t kDocs = 512;
constexpr size_t kKeywordsPerDoc = 8;
constexpr size_t kSeedBatch = 32;  // documents per seed Store
constexpr size_t kUpdatePool = 64;
constexpr double kUpdateShare = 0.05;
constexpr double kZipfS = 0.99;
constexpr size_t kGenerators = 2;
constexpr size_t kWindow = 8;
constexpr uint64_t kExactOps = 20000;  // fixed prefix the exact counts use
constexpr size_t kSetups = 3;
constexpr size_t kSlices = 10;  // the measured time is cut into these
constexpr uint64_t kTraceBlock = 2048;
constexpr uint64_t kTracePeriod = 8;
constexpr uint64_t kWarmupClientBase = 1ull << 39;  // below kOpClientBase

std::string SearchKeyword(size_t rank) { return Keyword("w", rank); }
std::string UpdateKeyword(size_t j) { return Keyword("u", j); }

/// Answers the client's update messages locally and keeps them, so a pool
/// of genuine S2UpdateRequest payloads can be minted without the server.
class CaptureChannel : public sse::net::Channel {
 public:
  sse::Result<sse::net::Message> Call(
      const sse::net::Message& request) override {
    if (request.type != sse::core::kMsgS2UpdateRequest) {
      return sse::Status::InvalidArgument("capture takes updates only");
    }
    captured.push_back(request);
    sse::core::S2UpdateAck ack;
    ack.keywords_updated = 1;
    return ack.ToMessage();
  }
  const sse::net::ChannelStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Clear(); }

  std::vector<sse::net::Message> captured;

 private:
  sse::net::ChannelStats stats_;
};

/// One seeded vault served over TCP, with its pre-minted traffic.
struct Vault {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<sse::net::TcpServer> tcp;
  std::unique_ptr<sse::DeterministicRandom> rng;
  std::unique_ptr<sse::net::InProcessChannel> seed_channel;
  std::unique_ptr<sse::core::Scheme2Client> client;
  std::vector<sse::net::Message> searches;  // by keyword rank
  std::vector<sse::net::Message> updates;
  Oracle oracle;
  uint64_t postings = 0;

  ~Vault() {
    if (tcp) tcp->Stop();
  }
};

/// Builds the vault, marking `clock` between steps.
std::unique_ptr<Vault> BuildVault(const RunOptions& options,
                                  const std::string& dir, HostClock& clock) {
  auto v = std::make_unique<Vault>();
  v->stack = Stack::Open(sse::core::SystemKind::kScheme2, dir, options.corrupt);
  sse::net::TcpServer::Options server_options;
  server_options.serialize_handler = false;  // the engine is thread-safe
  v->tcp = Must(sse::net::TcpServer::Start(v->stack->front(), 0,
                                           server_options),
                "tcp server start");
  v->rng = std::make_unique<sse::DeterministicRandom>(Mix64(options.seed));
  const sse::crypto::MasterKey key =
      Must(sse::crypto::MasterKey::Generate(*v->rng), "keygen");
  v->seed_channel =
      std::make_unique<sse::net::InProcessChannel>(v->stack->front());
  v->client = Must(sse::core::Scheme2Client::Create(
                       key, sse::core::SchemeOptions{}, v->seed_channel.get(),
                       v->rng.get()),
                   "scheme2 client");

  clock.Mark();

  // Documents: every keyword is in exactly kDocs * kKeywordsPerDoc /
  // kKeywords (= 4) documents, which ones shuffled by the seed, so every
  // seed serves replies of the same size.
  std::vector<size_t> slots;
  for (size_t k = 0; k < kDocs * kKeywordsPerDoc; ++k) {
    slots.push_back(k % kKeywords);
  }
  SeededShuffle(&slots, Mix64(options.seed ^ 0xd0c5));
  std::vector<sse::core::Document> docs;
  docs.reserve(kDocs);
  for (uint64_t d = 0; d < kDocs; ++d) {
    std::vector<std::string> kws;
    for (size_t s = d * kKeywordsPerDoc; s < (d + 1) * kKeywordsPerDoc; ++s) {
      // A keyword already in this document swaps with a later slot.
      for (size_t t = s + 1; t < slots.size() &&
                             std::find(kws.begin(), kws.end(),
                                       SearchKeyword(slots[s])) != kws.end();
           ++t) {
        std::swap(slots[s], slots[t]);
      }
      kws.push_back(SearchKeyword(slots[s]));
    }
    for (const std::string& kw : kws) v->oracle.Add(kw, d);
    v->postings += kws.size();
    docs.push_back(sse::core::Document::Make(
        d, DocumentContent(options.seed, d), std::move(kws)));
  }
  // Stored in batches so the set-up clock can calibrate between them; with
  // no search in between, every batch shares counter 1 (Optimization 2).
  for (size_t b = 0; b < kDocs; b += kSeedBatch) {
    MustOk(v->client->Store(std::vector<sse::core::Document>(
               docs.begin() + static_cast<long>(b),
               docs.begin() + static_cast<long>(b + kSeedBatch))),
           "seed store");
    clock.Mark();
  }

  v->searches.reserve(kKeywords);
  for (size_t k = 0; k < kKeywords; ++k) {
    auto trapdoor = Must(v->client->MakeTrapdoor(SearchKeyword(k)), "trapdoor");
    sse::core::S2SearchRequest request;
    request.token = std::move(trapdoor.token);
    request.chain_element = std::move(trapdoor.chain_element);
    v->searches.push_back(request.ToMessage());
    if (k % 256 == 255) clock.Mark();
  }

  CaptureChannel capture;
  v->client->set_channel(&capture);
  for (size_t j = 0; j < kUpdatePool; ++j) {
    const uint64_t id = kDocs + j;
    MustOk(v->client->Store({sse::core::Document::Make(
               id, DocumentContent(options.seed, id), {UpdateKeyword(j)})}),
           "capture update");
    if (j % 8 == 7) clock.Mark();
  }
  v->client->set_channel(v->seed_channel.get());
  v->updates = std::move(capture.captured);
  return v;
}

struct Pending {
  sse::net::Channel::CallId id = 0;
  uint64_t op = 0;
  uint64_t start_ns = 0;
  bool update = false;
  size_t rank = 0;
};

/// What one generator thread saw in one phase.
struct Tally {
  std::vector<double> search_us;
  std::vector<double> update_us;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t updates = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few
};

/// Checks one reply; returns false (with `why`) on a failed op.
bool CheckReply(const sse::Result<sse::net::Message>& reply, const Pending& p,
                const Oracle& oracle, std::string* why) {
  if (!reply.ok()) {
    *why = reply.status().ToString();
    return false;
  }
  if (p.update) {
    auto ack = sse::core::S2UpdateAck::FromMessage(*reply);
    if (!ack.ok() || ack->keywords_updated != 1) {
      *why = "bad update ack";
      return false;
    }
    return true;
  }
  auto result = sse::core::S2SearchResult::FromMessage(*reply);
  if (!result.ok()) {
    *why = "bad search reply: " + result.status().ToString();
    return false;
  }
  std::vector<uint64_t> ids = result->ids;
  std::sort(ids.begin(), ids.end());
  if (!result->found || ids != oracle.Expected(SearchKeyword(p.rank))) {
    *why = "search ids differ from the oracle for " + SearchKeyword(p.rank);
    return false;
  }
  return true;
}

/// Runs ops from the shared counter until `end_op` or `stop_ns`, keeping
/// kWindow calls in flight on `channel`.
void Generate(const Vault& v, const RunOptions& options,
              const ZipfSampler& zipf, sse::net::Channel* channel,
              std::atomic<uint64_t>* next_op, uint64_t end_op,
              uint64_t stop_ns, BlockClock* clock, Tally* tally) {
  std::vector<Pending> window;
  window.reserve(kWindow);
  size_t head = 0;
  auto reap = [&](const Pending& p) {
    sse::Result<sse::net::Message> reply = channel->Await(p.id);
    std::string why;
    const bool good = CheckReply(reply, p, v.oracle, &why);
    const uint64_t end = NowNs();
    const OpClass cls = p.update ? kUpdateOp : kSearchOp;
    if (Tracer::Get().plan().Sampled(p.op)) {
      RecordSpan(p.op, kClientLayer, static_cast<Layer>(0), cls, p.start_ns,
                 end);
    }
    if (good) {
      ++tally->ok;
      (p.update ? tally->update_us : tally->search_us)
          .push_back(static_cast<double>(end - p.start_ns) / 1e3);
    } else if (++tally->failed <= 4) {
      tally->errors.push_back("op " + std::to_string(p.op) + ": " + why);
    }
  };
  while (true) {
    if (window.size() - head == kWindow) reap(window[head++]);
    if (head > 1024) {
      window.erase(window.begin(), window.begin() + static_cast<long>(head));
      head = 0;
    }
    if (NowNs() >= stop_ns) break;
    const uint64_t op = next_op->fetch_add(1, std::memory_order_relaxed);
    if (op >= end_op) break;
    const uint64_t bits = Mix64(options.seed ^ Mix64(op));
    Pending p;
    p.op = op;
    p.update = UnitFromBits(bits) < kUpdateShare;
    sse::net::Message msg;
    if (p.update) {
      msg = v.updates[Mix64(bits) % v.updates.size()];
      ++tally->updates;
    } else {
      p.rank = zipf.Sample(Mix64(bits + 1));
      msg = v.searches[p.rank];
    }
    msg.StampSession(kOpClientBase + op, 1);
    ++tally->attempted;
    p.start_ns = NowNs();
    clock->OpStarted(op, p.start_ns);
    p.id = channel->Submit(msg);
    window.push_back(p);
  }
  while (head < window.size()) reap(window[head++]);
}

/// One phase across both generator threads; returns its wall time.
double RunPhase(const Vault& v, const RunOptions& options,
                const ZipfSampler& zipf,
                std::vector<std::unique_ptr<TracedChannel>>& channels,
                std::atomic<uint64_t>* next_op, uint64_t end_op,
                uint64_t stop_ns, BlockClock* clock, RunReport* report,
                uint64_t* updates) {
  std::vector<Tally> tallies(kGenerators);
  const uint64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t g = 0; g < kGenerators; ++g) {
    threads.emplace_back(Generate, std::cref(v), std::cref(options),
                         std::cref(zipf), channels[g].get(), next_op, end_op,
                         stop_ns, clock, &tallies[g]);
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (Tally& t : tallies) {
    report->attempted += t.attempted;
    report->ok_ops += t.ok;
    *updates += t.updates;
    report->search_us.insert(report->search_us.end(), t.search_us.begin(),
                             t.search_us.end());
    report->update_us.insert(report->update_us.end(), t.update_us.begin(),
                             t.update_us.end());
    report->failed += t.failed;
    for (std::string& e : t.errors) {
      if (report->errors.size() < 8) report->errors.push_back(std::move(e));
    }
  }
  return wall_s;
}

}  // namespace

RunReport RunS2ZipfTcp(const RunOptions& options) {
  RunReport report;
  report.config = {
      {"scheme", "scheme2, SchemeOptions{} (chain_length 4096, max_documents "
                 "65536, unbounded plaintext cache)"},
      {"stack", "TcpChannel -> TcpServer (reactor) -> DurableServer "
                "(Options{}: fsync every mutating append, group commit) -> "
                "ServerEngine (4 shards) -> Scheme2Server"},
      {"load", "closed loop, 2 generator threads x 1 connection x 8 "
               "pipelined calls"},
      {"mix", "95% searches Zipf(0.99) over 1024 keywords, 5% replayed "
              "single-keyword updates (pool of 64) outside the search set"},
      {"vault", "512 documents x 8 keywords, 4 documents per keyword"},
      {"measure", "median over 10 equal slices of the measured time"},
  };
  Tracer::Get().SetPlan(TracePlan{options.trace, kExactOps, kTraceBlock,
                                  kTracePeriod});

  // Set-up is repeated (setup_s is the median); the last vault is the one
  // measured.
  std::unique_ptr<Vault> v;
  for (size_t s = 0; s < kSetups; ++s) {
    v.reset();
    TimeSetup(&report, [&](HostClock& clock) {
      v = BuildVault(options,
                     options.work_dir + "/vault-zipf-" + std::to_string(s),
                     clock);
    });
  }
  report.phase_ops["setup_trapdoors"] = v->searches.size();
  report.phase_ops["setup_update_pool"] = v->updates.size();

  const ZipfSampler zipf(kKeywords, kZipfS);
  std::vector<std::unique_ptr<sse::net::TcpChannel>> tcp;
  std::vector<std::unique_ptr<TracedChannel>> channels;
  for (size_t g = 0; g < kGenerators; ++g) {
    tcp.push_back(Must(sse::net::TcpChannel::Connect(v->tcp->port()),
                       "connect"));
    channels.push_back(std::make_unique<TracedChannel>(tcp.back().get()));
  }

  // Warm-up: every keyword once, pipelined on one connection.
  {
    std::vector<Pending> window;
    uint64_t warm_failures = 0;
    auto reap = [&](const Pending& p) {
      std::string why;
      if (!CheckReply(channels[0]->Await(p.id), p, v->oracle, &why)) {
        ++warm_failures;
      }
    };
    for (size_t k = 0; k < kKeywords; ++k) {
      sse::net::Message msg = v->searches[k];
      msg.StampSession(kWarmupClientBase + k, 1);
      Pending p;
      p.rank = k;
      p.id = channels[0]->Submit(msg);
      window.push_back(p);
      if (window.size() == kWindow) {
        reap(window.front());
        window.erase(window.begin());
      }
    }
    for (const Pending& p : window) reap(p);
    if (warm_failures > 0) {
      report.check_errors.push_back("warm-up: " +
                                    std::to_string(warm_failures) +
                                    " searches disagreed with the oracle");
    }
    report.phase_ops["warmup_searches"] = kKeywords;
  }
  v->stack->ArmCorruption();

  const std::string metrics_before =
      sse::obs::MetricsRegistry::Global().RenderPrometheus();
  std::atomic<uint64_t> next_op{0};
  BlockClock clock(kExactOps, kTraceBlock, 1 << 14);
  uint64_t updates = 0;

  // Phase 1: the fixed prefix of kExactOps ops; exact counts come from it.
  // It is not part of the measured time.
  for (auto& c : channels) c->ResetStats();
  const Stack::Counters before = v->stack->Read();
  RunReport prefix;
  RunPhase(*v, options, zipf, channels, &next_op, kExactOps, ~0ull, &clock,
           &prefix, &updates);
  report.attempted += prefix.attempted;
  report.failed += prefix.failed;
  report.errors = prefix.errors;
  const Stack::Counters after = v->stack->Read();
  const uint64_t exact_updates = updates;
  uint64_t wire = 0, frames = 0;
  for (auto& c : channels) {
    wire += c->stats().TotalBytes();
    frames += c->stats().frames_sent + c->stats().frames_received;
  }
  report.wire_bytes_per_op = static_cast<double>(wire) / kExactOps;
  report.index_bytes_per_posting =
      static_cast<double>(v->stack->engine().stored_index_bytes()) /
      static_cast<double>(v->postings + exact_updates);
  report.exact["index_bytes_per_posting"] = report.index_bytes_per_posting;
  report.exact["wire_bytes_per_op"] = report.wire_bytes_per_op;
  report.layer["net.frames_per_op"] = static_cast<double>(frames) / kExactOps;
  report.exact["net.frames_per_op"] = report.layer["net.frames_per_op"];
  AddCounterLayers(&report, before, after, kExactOps - exact_updates,
                   exact_updates);
  // Past the prefix the replayed updates grow the index with the op count,
  // i.e. with host speed; the peak through set-up and the prefix does not.
  report.peak_rss_mb = PeakRssMb();
  report.phase_ops["exact_prefix_ops"] = kExactOps;
  report.phase_ops["exact_prefix_updates"] = exact_updates;

  // Phase 2: the measured time, in kSlices equal slices, continuing the op
  // sequence.
  const double slice_s = options.seconds / kSlices;
  for (size_t s = 0; s < kSlices; ++s) {
    const uint64_t ok_from = report.ok_ops;
    const size_t search_from = report.search_us.size();
    const size_t update_from = report.update_us.size();
    const double wall_s = RunPhase(
        *v, options, zipf, channels, &next_op, ~0ull,
        NowNs() + static_cast<uint64_t>(slice_s * 1e9), &clock, &report,
        &updates);
    report.EndSlice(ok_from, search_from, update_from, wall_s, wall_s);
  }
  report.phase_ops["measured_ops"] = report.attempted - kExactOps;
  report.phase_ops["measured_updates"] = updates - exact_updates;

  const Stack::Counters end = v->stack->Read();
  const std::string metrics_after =
      sse::obs::MetricsRegistry::Global().RenderPrometheus();
  report.layer["storage.fsync_p50_us"] =
      SnapDelta(before.fsync, end.fsync).quantile_micros(0.5);
  report.layer["engine.lock_wait_p50_us"] =
      SnapDelta(before.engine.lock_wait, end.engine.lock_wait)
          .quantile_micros(0.5);
  report.layer["storage.wal_syncs_per_update"] =
      static_cast<double>(end.wal_syncs - before.wal_syncs) /
      static_cast<double>(std::max<uint64_t>(updates, 1));
  // This series records microseconds in the histogram's nanosecond slots,
  // so its "micros" quantile is in milliseconds.
  report.layer["net.dispatch_wait_p50_us"] =
      1e3 * SnapDelta(ScrapeHistogram(metrics_before,
                                      "sse_net_dispatch_queue_wait_us"),
                      ScrapeHistogram(metrics_after,
                                      "sse_net_dispatch_queue_wait_us"))
                .quantile_micros(0.5);
  report.layer["net.shed_ops"] =
      ScrapeValue(metrics_after, "sse_admission_shed_total") -
      ScrapeValue(metrics_before, "sse_admission_shed_total") +
      ScrapeValue(metrics_after, "sse_admission_queue_full_total") -
      ScrapeValue(metrics_before, "sse_admission_queue_full_total");

  if (options.trace) {
    double ops[2] = {0, 0}, seconds[2] = {0, 0};
    clock.Accumulate(ops, seconds);
    AddTraceLayers(&report, Tracer::Get().Drain(),
                   {kClientLayer, kNetLayer, kDurableLayer, kEngineLayer}, ops,
                   seconds,
                   options.work_dir + "/trace-s2_zipf_tcp-" +
                       std::to_string(options.seed) + ".json");
  }

  // Final sweep: the scheme client searches every keyword over the same
  // TCP stack and must match the model, documents included.
  v->client->set_channel(channels[0].get());
  uint64_t sweep_failures = 0;
  std::string first_why;
  for (size_t k = 0; k < kKeywords; ++k) {
    auto outcome = v->client->Search(SearchKeyword(k));
    std::string why;
    if (!outcome.ok()) {
      why = outcome.status().ToString();
    } else if (VerifyOutcome(*outcome, v->oracle.Expected(SearchKeyword(k)),
                             options.seed, &why)) {
      continue;
    }
    if (sweep_failures++ == 0) first_why = SearchKeyword(k) + ": " + why;
  }
  report.phase_ops["final_sweep_searches"] = kKeywords;
  if (sweep_failures > 0) {
    report.check_errors.push_back("final sweep: " +
                                  std::to_string(sweep_failures) +
                                  " keywords disagree, first " + first_why);
  }
  channels.clear();
  tcp.clear();
  v.reset();
  return report;
}

}  // namespace ssebench
