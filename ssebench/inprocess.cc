// The two in-process workloads. A run is a series of episodes: a fresh
// vault is set up and seeded, then a fixed number of ops runs against it
// from one client thread. Episodes repeat until the measured time reaches
// --seconds (at least kMinEpisodes, so set-up time has several samples).
// Each episode draws its op plan from a fixed multiset shuffled by the seed
// and the episode number (StratifiedDraws), so seeds differ in order, not
// in weight. Exact counts are the mean over the first kMinEpisodes
// episodes, which every run completes, so they depend on the seed alone.
// Each episode is one measured slice. Ops and set-ups run on one thread of
// an otherwise idle process, so their times are also host-adjusted
// (HostClock): a calibration after every op, and between set-up steps.
//
// s2_ingest: one Scheme 2 data owner writing beside reading. Each round is
//   a Store of 4 documents x 8 Zipf-drawn keywords, then 2 Zipf-drawn
//   searches. The vault has lived through kIngestHistory counter steps, so
//   searches walk hundreds of chain steps past Optimization 1's cache and
//   every Store re-derives l - ctr chain steps per keyword.
// s3_hot_churn: forward-private Scheme 3 under update-heavy hot keywords:
//   16 hot keywords receive single-document updates and searches at 4:1;
//   search cost grows with the updates since each chain started.

#include <algorithm>

#include "phase.h"
#include "sse/core/scheme_descriptor.h"
#include "sse/crypto/keys.h"
#include "sse/util/random.h"
#include "workloads.h"

namespace ssebench {
namespace {

constexpr size_t kMinEpisodes = 3;
constexpr size_t kMaxEpisodes = 64;
constexpr uint64_t kTraceBlock = 16;

/// One fresh vault, the scheme client that owns it, and the episode's plan.
struct Episode {
  uint64_t seed = 0;       // the run's --seed
  uint64_t plan_seed = 0;  // seed ^ episode number
  std::unique_ptr<Stack> stack;
  std::unique_ptr<sse::DeterministicRandom> rng;
  std::unique_ptr<sse::net::InProcessChannel> channel;
  std::unique_ptr<sse::core::SseClientInterface> client;
  Oracle oracle;
  uint64_t postings = 0;
  uint64_t searches = 0;
  uint64_t updates = 0;
  HostClock* setup_clock = nullptr;  // marked between set-up steps
  std::vector<size_t> plan;         // workload-specific op choices
  std::vector<size_t> search_plan;  // s2_ingest: search keywords
  size_t cursor = 0;                // next unused entry of `plan`

  /// Stores `docs` and, on success, records them in the oracle.
  sse::Status Store(std::vector<sse::core::Document> docs) {
    sse::Status status = client->Store(docs);
    if (!status.ok()) return status;
    for (const sse::core::Document& doc : docs) {
      for (const std::string& kw : doc.keywords) oracle.Add(kw, doc.id);
      postings += doc.keywords.size();
    }
    return status;
  }
};

struct Workload {
  sse::core::SystemKind kind;
  uint64_t ops_per_episode;
  void (*seed_vault)(Episode*);
  void (*make_plan)(Episode*);
  /// Runs and verifies op `index` of the episode; false (with `why`) on a
  /// failed op.
  bool (*run_op)(Episode*, uint64_t index, uint64_t op_id, bool* update,
                 double* latency_us, std::string* why);
};

/// Times one client call plus its verification, as the client.op span.
template <typename Fn>
double TimedOp(uint64_t op_id, OpClass cls, Fn&& fn) {
  ClientOpScope scope(op_id, cls);
  const uint64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0) / 1e3;
}

bool CheckedSearch(Episode* e, const std::string& keyword, uint64_t op_id,
                   double* latency_us, std::string* why) {
  bool good = false;
  *latency_us = TimedOp(op_id, kSearchOp, [&] {
    auto outcome = e->client->Search(keyword);
    if (!outcome.ok()) {
      *why = outcome.status().ToString();
      return;
    }
    good = VerifyOutcome(*outcome, e->oracle.Expected(keyword), e->seed, why);
  });
  if (!good) *why = keyword + ": " + *why;
  ++e->searches;
  return good;
}

bool CheckedStore(Episode* e, std::vector<sse::core::Document> docs,
                  uint64_t op_id, double* latency_us, std::string* why) {
  sse::Status status;
  *latency_us = TimedOp(op_id, kUpdateOp,
                        [&] { status = e->Store(std::move(docs)); });
  ++e->updates;
  if (!status.ok()) *why = status.ToString();
  return status.ok();
}

RunReport RunEpisodes(const RunOptions& options, const std::string& name,
                      const Workload& w) {
  RunReport report;
  report.host_adjusted = true;
  Tracer::Get().SetPlan(TracePlan{options.trace, 0, kTraceBlock, 1});
  const sse::core::SchemeDescriptor* scheme = sse::core::FindScheme(w.kind);
  sse::obs::LatencyHistogram::Snapshot fsync, lock_wait;
  double trace_ops[2] = {0, 0}, trace_seconds[2] = {0, 0};

  for (size_t n = 0; n < kMaxEpisodes; ++n) {
    if (n >= kMinEpisodes && report.timed_s >= options.seconds) break;
    Episode e;
    TimeSetup(&report, [&](HostClock& clock) {
      e.setup_clock = &clock;
      e.seed = options.seed;
      e.plan_seed = Mix64(options.seed ^ (n << 32));
      e.stack = Stack::Open(w.kind,
                            options.work_dir + "/vault-" + name + "-" +
                                std::to_string(n),
                            options.corrupt);
      e.rng = std::make_unique<sse::DeterministicRandom>(Mix64(options.seed));
      const sse::crypto::MasterKey key =
          Must(sse::crypto::MasterKey::Generate(*e.rng), "keygen");
      e.channel =
          std::make_unique<sse::net::InProcessChannel>(e.stack->front());
      e.client = Must(scheme->make_client(key, sse::core::SystemConfig{},
                                          e.channel.get(), e.rng.get()),
                      "client create");
      clock.Mark();
      w.seed_vault(&e);
      w.make_plan(&e);
    });
    e.setup_clock = nullptr;
    e.stack->ArmCorruption();

    e.channel->ResetStats();
    e.searches = e.updates = 0;
    const Stack::Counters before = e.stack->Read();
    BlockClock clock(0, kTraceBlock, w.ops_per_episode / kTraceBlock + 1);
    const uint64_t ok_from = report.ok_ops;
    const size_t search_from = report.search_us.size();
    const size_t update_from = report.update_us.size();
    const uint64_t phase_start = NowNs();
    HostClock op_clock(kOpCalibrationHashes);
    for (uint64_t i = 0; i < w.ops_per_episode; ++i) {
      const uint64_t op_id = (static_cast<uint64_t>(n) << 32) | i;
      clock.OpStarted(i, NowNs());
      bool update = false;
      double latency_us = 0;
      std::string why;
      ++report.attempted;
      const bool good = w.run_op(&e, i, op_id, &update, &latency_us, &why);
      const double factor = op_clock.Mark();
      if (good) {
        ++report.ok_ops;
        (update ? report.update_us : report.search_us).push_back(latency_us);
        (update ? report.update_adj_us : report.search_adj_us)
            .push_back(latency_us * factor);
      } else {
        report.Fail("episode " + std::to_string(n) + " op " +
                    std::to_string(i) + ": " + why);
      }
    }
    const uint64_t phase_end = NowNs();
    clock.OpStarted(w.ops_per_episode, phase_end);
    clock.Accumulate(trace_ops, trace_seconds);
    report.EndSlice(ok_from, search_from, update_from,
                    static_cast<double>(phase_end - phase_start) / 1e9,
                    op_clock.adjusted_s());
    const Stack::Counters after = e.stack->Read();
    fsync.Merge(SnapDelta(before.fsync, after.fsync));
    lock_wait.Merge(SnapDelta(before.engine.lock_wait, after.engine.lock_wait));

    // Exact counts: the mean over the first kMinEpisodes episodes, which
    // every run completes, so they depend on the seed alone.
    if (n < kMinEpisodes) {
      RunReport counts;
      AddCounterLayers(&counts, before, after, e.searches, e.updates);
      counts.exact["wire_bytes_per_op"] =
          static_cast<double>(e.channel->stats().TotalBytes()) /
          static_cast<double>(w.ops_per_episode);
      counts.exact["index_bytes_per_posting"] =
          static_cast<double>(e.stack->engine().stored_index_bytes()) /
          static_cast<double>(e.postings);
      for (const auto& [metric, value] : counts.exact) {
        report.exact[metric] += value / kMinEpisodes;
      }
      report.layer["storage.wal_syncs_per_update"] +=
          counts.layer["storage.wal_syncs_per_update"] / kMinEpisodes;
      report.phase_ops["episode_searches"] = e.searches;
      report.phase_ops["episode_updates"] = e.updates;
    }
  }
  for (const auto& [metric, value] : report.exact) report.layer[metric] = value;
  report.wire_bytes_per_op = report.exact["wire_bytes_per_op"];
  report.index_bytes_per_posting = report.exact["index_bytes_per_posting"];
  report.layer.erase("wire_bytes_per_op");
  report.layer.erase("index_bytes_per_posting");
  report.phase_ops["episodes"] = report.setup_s.size();
  report.phase_ops["measured_ops"] = report.attempted;
  report.layer["storage.fsync_p50_us"] = fsync.quantile_micros(0.5);
  report.layer["engine.lock_wait_p50_us"] = lock_wait.quantile_micros(0.5);
  // No network layer in-process.
  report.layer["net.dispatch_wait_p50_us"] = 0;
  report.layer["net.frames_per_op"] = 0;
  report.layer["net.shed_ops"] = 0;
  if (options.trace) {
    AddTraceLayers(&report, Tracer::Get().Drain(),
                   {kClientLayer, kDurableLayer, kEngineLayer}, trace_ops,
                   trace_seconds,
                   options.work_dir + "/trace-" + name + "-" +
                       std::to_string(options.seed) + ".json");
  }
  return report;
}

/// The next keywords from `e->plan` (a pool of ranks) that are not yet in
/// `keywords`, until it holds `count`; a rank repeating inside one
/// document is skipped.
std::vector<std::string> TakeDistinct(Episode* e, size_t count,
                                      std::vector<std::string> keywords,
                                      std::string (*name)(size_t)) {
  while (keywords.size() < count) {
    const std::string kw = name(e->plan[e->cursor++ % e->plan.size()]);
    if (std::find(keywords.begin(), keywords.end(), kw) == keywords.end()) {
      keywords.push_back(kw);
    }
  }
  return keywords;
}

// ------------------------------------------------------------ s2_ingest --

constexpr size_t kIngestVocabulary = 256;
constexpr size_t kIngestBaseDocs = 128;
constexpr uint32_t kIngestHistory = 384;  // counter steps before timing
constexpr uint64_t kIngestRounds = 64;     // per episode
constexpr size_t kIngestDocsPerStore = 4;
constexpr size_t kIngestKeywordsPerDoc = 8;
constexpr uint64_t kIngestSearchesPerRound = 2;
constexpr uint64_t kIngestOpsPerRound = 1 + kIngestSearchesPerRound;
constexpr uint64_t kIngestDocBase = 1'000'000;
// Search popularity is Zipf too, over an unrelated ranking of the same
// vocabulary (what an owner looks for is not what it writes most).
constexpr size_t kSearchRankStride = 167;  // coprime with the vocabulary

std::string IngestKeyword(size_t index) { return Keyword("v", index); }

const ZipfSampler& IngestZipf() {
  static const ZipfSampler zipf(kIngestVocabulary, 0.99);
  return zipf;
}

void SeedIngest(Episode* e) {
  // Base documents: keywords 2d and 2d+1 (every keyword has a posting)
  // plus six Zipf-drawn ones.
  e->plan = StratifiedDraws(IngestZipf(), kIngestBaseDocs * 8, Mix64(e->seed));
  e->cursor = 0;
  std::vector<sse::core::Document> base;
  for (uint64_t d = 0; d < kIngestBaseDocs; ++d) {
    base.push_back(sse::core::Document::Make(
        d, DocumentContent(e->seed, d),
        TakeDistinct(e, kIngestKeywordsPerDoc,
                     {IngestKeyword((2 * d) % kIngestVocabulary),
                      IngestKeyword((2 * d + 1) % kIngestVocabulary)},
                     IngestKeyword)));
  }
  MustOk(e->Store(std::move(base)), "ingest base store");
  // History: the owner has since searched and (fake-)updated one private
  // keyword kIngestHistory times, so the global counter stands there and
  // the base segments sit that many chain steps behind it.
  e->setup_clock->Mark();
  for (uint32_t h = 0; h < kIngestHistory; ++h) {
    MustOk(e->client->Search("history").status(), "history search");
    MustOk(e->client->FakeUpdate({"history"}), "history update");
    if (h % 16 == 15) e->setup_clock->Mark();
  }
}

void PlanIngest(Episode* e) {
  const size_t slots =
      kIngestRounds * kIngestDocsPerStore * kIngestKeywordsPerDoc;
  // Half again as many draws as slots: repeats inside a document are
  // skipped.
  e->plan = StratifiedDraws(IngestZipf(), slots + slots / 2, e->plan_seed);
  e->cursor = 0;
  e->search_plan = StratifiedDraws(
      IngestZipf(), kIngestRounds * kIngestSearchesPerRound,
      Mix64(e->plan_seed));
  for (size_t& rank : e->search_plan) {
    rank = (rank * kSearchRankStride) % kIngestVocabulary;
  }
}

bool IngestOp(Episode* e, uint64_t index, uint64_t op_id, bool* update,
              double* latency_us, std::string* why) {
  const uint64_t round = index / kIngestOpsPerRound;
  const uint64_t slot = index % kIngestOpsPerRound;
  *update = slot == 0;
  if (*update) {
    std::vector<sse::core::Document> docs;
    for (uint64_t j = 0; j < kIngestDocsPerStore; ++j) {
      const uint64_t id = kIngestDocBase + round * kIngestDocsPerStore + j;
      docs.push_back(sse::core::Document::Make(
          id, DocumentContent(e->seed, id),
          TakeDistinct(e, kIngestKeywordsPerDoc, {}, IngestKeyword)));
    }
    return CheckedStore(e, std::move(docs), op_id, latency_us, why);
  }
  const size_t keyword =
      e->search_plan[round * kIngestSearchesPerRound + slot - 1];
  return CheckedSearch(e, IngestKeyword(keyword), op_id, latency_us, why);
}

// --------------------------------------------------------- s3_hot_churn --

constexpr size_t kHotKeywords = 16;
constexpr size_t kColdVocabulary = 128;
constexpr size_t kChurnBaseDocs = 64;
constexpr size_t kChurnHistoryRounds = 16;  // hot counters start here
constexpr size_t kChurnUpdatesPerHot = 80;  // per episode, and
constexpr size_t kChurnSearchesPerHot = 20;  // updates : searches = 4 : 1
constexpr uint64_t kChurnOps =
    kHotKeywords * (kChurnUpdatesPerHot + kChurnSearchesPerHot);
constexpr uint64_t kChurnDocBase = 2'000'000;

std::string HotKeyword(size_t i) { return Keyword("hot", i); }
std::string ColdKeyword(size_t i) { return Keyword("cold", i); }

void SeedChurn(Episode* e) {
  // Round 0: documents with one hot and two cold keywords each.
  std::vector<sse::core::Document> base;
  for (uint64_t d = 0; d < kChurnBaseDocs; ++d) {
    base.push_back(sse::core::Document::Make(
        d, DocumentContent(e->seed, d),
        {HotKeyword(d % kHotKeywords), ColdKeyword((2 * d) % kColdVocabulary),
         ColdKeyword((2 * d + 1) % kColdVocabulary)}));
  }
  MustOk(e->Store(std::move(base)), "churn base store");
  e->setup_clock->Mark();
  // Further rounds: one document per hot keyword, so every hot chain has
  // kChurnHistoryRounds updates before timing starts.
  uint64_t id = kChurnBaseDocs;
  for (size_t r = 1; r < kChurnHistoryRounds; ++r) {
    std::vector<sse::core::Document> round;
    for (size_t h = 0; h < kHotKeywords; ++h, ++id) {
      round.push_back(sse::core::Document::Make(
          id, DocumentContent(e->seed, id), {HotKeyword(h)}));
    }
    MustOk(e->Store(std::move(round)), "churn history store");
    e->setup_clock->Mark();
  }
}

/// Every hot keyword gets the same number of updates and searches; the
/// plan entry is 2 * keyword + (1 for an update).
void PlanChurn(Episode* e) {
  e->plan.clear();
  for (size_t h = 0; h < kHotKeywords; ++h) {
    e->plan.insert(e->plan.end(), kChurnUpdatesPerHot, 2 * h + 1);
    e->plan.insert(e->plan.end(), kChurnSearchesPerHot, 2 * h);
  }
  SeededShuffle(&e->plan, e->plan_seed);
}

bool ChurnOp(Episode* e, uint64_t index, uint64_t op_id, bool* update,
             double* latency_us, std::string* why) {
  const std::string keyword = HotKeyword(e->plan[index] / 2);
  *update = e->plan[index] % 2 == 1;
  if (*update) {
    const uint64_t id = kChurnDocBase + index;
    return CheckedStore(e,
                        {sse::core::Document::Make(
                            id, DocumentContent(e->seed, id), {keyword})},
                        op_id, latency_us, why);
  }
  return CheckedSearch(e, keyword, op_id, latency_us, why);
}

}  // namespace

RunReport RunS2Ingest(const RunOptions& options) {
  RunReport report = RunEpisodes(
      options, "s2_ingest",
      Workload{sse::core::SystemKind::kScheme2,
               kIngestRounds * kIngestOpsPerRound, SeedIngest, PlanIngest,
               IngestOp});
  report.config = {
      {"scheme", "scheme2, SchemeOptions{} (chain_length 4096, unbounded "
                 "plaintext cache)"},
      {"stack", "Scheme2Client -> InProcessChannel -> DurableServer "
                "(Options{}) -> ServerEngine (4 shards) -> Scheme2Server"},
      {"episode", "base 128 docs x 8 keywords over 256 (Zipf 0.99), 384 "
                  "history counter steps, then 64 rounds of Store(4 docs x 8 "
                  "keywords) + 2 searches (Zipf 0.99 over a second ranking)"},
  };
  return report;
}

RunReport RunS3HotChurn(const RunOptions& options) {
  RunReport report = RunEpisodes(
      options, "s3_hot_churn",
      Workload{sse::core::SystemKind::kScheme3, kChurnOps, SeedChurn,
               PlanChurn, ChurnOp});
  report.config = {
      {"scheme", "scheme3, SchemeOptions{} (chain_length 4096)"},
      {"stack", "Scheme3Client -> InProcessChannel -> DurableServer "
                "(Options{}) -> ServerEngine (4 shards) -> Scheme3Server"},
      {"episode", "base 64 docs + 15 rounds of one doc per hot keyword, then "
                  "1600 ops: 80 single-document updates and 20 searches per "
                  "hot keyword (16), shuffled"},
  };
  return report;
}

}  // namespace ssebench
