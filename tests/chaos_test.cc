// The chaos suite: the exactly-once stack (session stamps + RetryingChannel
// + core::ReplyCache) against a seeded probabilistic fault injector, with
// every search checked against a plaintext in-memory oracle.
//
// The property under test is strong: with faults injected on BOTH
// directions at rates up to 20%, a client driving non-idempotent Scheme 1
// updates through the retry layer must never observe a search result that
// differs from the oracle — no posting toggled off by a double-applied
// XOR delta, no stale reply handed to the protocol layer, no corrupt
// payload parsed. A negative control with the reply cache disabled proves
// the suite can actually detect the poison it hunts.

#include "sse/net/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sse/core/durable_server.h"
#include "sse/core/registry.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme1_messages.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme3_client.h"
#include "sse/net/batch.h"
#include "sse/net/retry.h"
#include "sse/net/tcp.h"
#include "test_util.h"

namespace sse {
namespace {

using core::Document;
using core::SystemKind;
using net::ChaosChannel;
using net::ChaosOptions;
using net::RetryingChannel;
using net::RetryOptions;
using sse::testing::EchoHandler;
using sse::testing::FastTestConfig;
using sse::testing::TempDir;
using sse::testing::TestMasterKey;

/// Plaintext mirror of everything the client stored: keyword -> ids and
/// id -> content. A search diverging from this mirror is the failure the
/// whole exactly-once stack exists to prevent.
struct Oracle {
  std::map<std::string, std::set<uint64_t>> postings;
  std::map<uint64_t, std::string> contents;

  void Add(const Document& doc, std::string_view text) {
    contents[doc.id] = std::string(text);
    for (const std::string& kw : doc.keywords) postings[kw].insert(doc.id);
  }

  std::vector<uint64_t> Expected(const std::string& keyword) const {
    auto it = postings.find(keyword);
    if (it == postings.end()) return {};
    return std::vector<uint64_t>(it->second.begin(), it->second.end());
  }
};

core::SystemConfig ChaosConfig() {
  core::SystemConfig config = FastTestConfig();
  // The workload interleaves searches and updates, so Scheme 2's counter
  // advances nearly once per store; the chain must outlast the run.
  config.scheme.chain_length = 4096;
  config.engine_shards = 2;  // engine-backed servers carry the reply cache
  return config;
}

/// Equal fault pressure on both directions of the link. `rate` is the
/// per-call probability of each drop; duplicates and corruptions run at
/// half that so every fault family stays active without making the
/// expected attempt count explode.
ChaosOptions SymmetricChaos(uint64_t seed, double rate) {
  ChaosOptions opts;
  opts.seed = seed;
  opts.p_request_drop = rate;
  opts.p_reply_drop = rate;
  opts.p_request_duplicate = rate / 2;
  opts.p_reply_duplicate = rate / 2;
  opts.p_request_corrupt = rate / 2;
  opts.p_reply_corrupt = rate / 2;
  opts.p_delay = rate;
  opts.delay_max_ms = 1.0;
  return opts;
}

/// At 20% drops per direction an attempt fails roughly half the time, so
/// the budget must be deep enough that a full Call failing is effectively
/// impossible (0.5^64); a failed Call would abort the run, not corrupt it.
RetryOptions ChaosRetryOptions() {
  RetryOptions opts;
  opts.max_attempts = 64;
  opts.initial_backoff_ms = 0.01;
  opts.max_backoff_ms = 0.1;
  return opts;
}

/// Same retry budget, but multi-op rounds ride kMsgBatch envelopes with a
/// pipelined in-flight window — the configuration the batched clients use.
RetryOptions BatchedChaosRetryOptions() {
  RetryOptions opts = ChaosRetryOptions();
  opts.batch_size = 8;
  opts.max_inflight = 4;
  return opts;
}

/// Runs `ops` mixed operations (stores of fresh docs + searches) against
/// `client`, mirroring every successful store into `oracle` and checking
/// every search against it. Returns the number of divergent searches —
/// zero unless the exactly-once guarantee broke.
size_t RunMixedOps(core::SseClientInterface* client, DeterministicRandom* rng,
                   Oracle* oracle, uint64_t* next_id, size_t ops,
                   uint64_t max_docs, const std::string& ns = "",
                   bool tolerate_errors = false) {
  const size_t kVocab = 24;
  size_t divergences = 0;
  auto keyword = [&](uint64_t i) { return ns + "kw" + std::to_string(i); };
  for (size_t op = 0; op < ops; ++op) {
    const bool can_store = *next_id + 1 < max_docs;
    if (can_store && rng->Next() % 4 == 0) {
      const uint64_t id = (*next_id)++;
      std::vector<std::string> kws;
      const size_t nkw = 1 + rng->Next() % 3;
      for (size_t k = 0; k < nkw; ++k) {
        const std::string kw = keyword(rng->Next() % kVocab);
        if (std::find(kws.begin(), kws.end(), kw) == kws.end())
          kws.push_back(kw);
      }
      const std::string text = ns + "doc-" + std::to_string(id);
      const Document doc = Document::Make(id, text, kws);
      const Status stored = client->Store({doc});
      if (!tolerate_errors) {
        EXPECT_TRUE(stored.ok()) << "op " << op << ": " << stored.ToString();
      }
      if (stored.ok()) oracle->Add(doc, text);
    } else {
      const std::string kw = keyword(rng->Next() % kVocab);
      auto outcome = client->Search(kw);
      if (!tolerate_errors) {
        EXPECT_TRUE(outcome.ok())
            << "op " << op << ": " << outcome.status().ToString();
      }
      if (!outcome.ok()) continue;
      const std::vector<uint64_t> expected = oracle->Expected(kw);
      if (outcome->ids != expected) {
        ++divergences;
        continue;
      }
      for (const auto& [id, content] : outcome->documents) {
        if (BytesToString(content) != oracle->contents[id]) ++divergences;
      }
    }
  }
  return divergences;
}

/// Client stack for one chaotic run: engine-backed server (reply cache on)
/// behind InProcess -> Chaos -> Retrying, driven by a scheme client.
template <typename ClientT>
struct ChaosRig {
  ChaosRig(SystemKind kind, const core::SystemConfig& config,
           const ChaosOptions& chaos_opts, uint64_t seed,
           const RetryOptions& retry_opts = ChaosRetryOptions())
      : rng(seed),
        sys(sse::testing::MakeTestSystem(kind, &rng, config)),
        chaos(sys.channel.get(), chaos_opts),
        retry(&chaos, retry_opts, &rng) {
    chaos.set_sleep_fn([](double) {});  // virtual delays: no wall-clock cost
    retry.set_sleep_fn([](double) {});
    auto created =
        ClientT::Create(TestMasterKey(), config.scheme, &retry, &rng);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    client = std::move(created).value();
  }

  DeterministicRandom rng;
  core::SseSystem sys;  // provides the engine server + inner channel
  ChaosChannel chaos;
  RetryingChannel retry;
  std::unique_ptr<ClientT> client;
};

TEST(ChaosTest, Scheme1SurvivesHeavyChaosWithZeroDivergence) {
  // Scheme 1 is the dangerous one: its XOR-delta update is its own inverse,
  // so any blind re-application erases the posting it meant to add.
  const core::SystemConfig config = ChaosConfig();
  ChaosRig<core::Scheme1Client> rig(SystemKind::kScheme1, config,
                                    SymmetricChaos(/*seed=*/11, 0.20),
                                    /*seed=*/11);
  Oracle oracle;
  uint64_t next_id = 0;
  DeterministicRandom workload(42);
  const size_t divergences =
      RunMixedOps(rig.client.get(), &workload, &oracle, &next_id,
                  /*ops=*/1000, config.scheme.max_documents);
  EXPECT_EQ(divergences, 0u);
  // The run actually exercised the machinery it certifies.
  EXPECT_GT(rig.chaos.chaos_stats().total_injected(), 100u);
  EXPECT_GT(rig.retry.retry_stats().retries, 50u);
  ASSERT_NE(rig.sys.server, nullptr);
}

TEST(ChaosTest, Scheme2SurvivesHeavyChaosWithZeroDivergence) {
  const core::SystemConfig config = ChaosConfig();
  ChaosRig<core::Scheme2Client> rig(SystemKind::kScheme2, config,
                                    SymmetricChaos(/*seed=*/13, 0.20),
                                    /*seed=*/13);
  Oracle oracle;
  uint64_t next_id = 0;
  DeterministicRandom workload(43);
  const size_t divergences =
      RunMixedOps(rig.client.get(), &workload, &oracle, &next_id,
                  /*ops=*/1000, config.scheme.max_documents);
  EXPECT_EQ(divergences, 0u);
  EXPECT_GT(rig.chaos.chaos_stats().total_injected(), 100u);
}

TEST(ChaosTest, Scheme3SurvivesHeavyChaosWithZeroDivergence) {
  // Scheme 3's hazard is the duplicated update: a chain key addresses
  // exactly one entry, so a re-delivered update must overwrite in place
  // (same bytes) rather than shadow or double-count a posting.
  const core::SystemConfig config = ChaosConfig();
  ChaosRig<core::Scheme3Client> rig(SystemKind::kScheme3, config,
                                    SymmetricChaos(/*seed=*/31, 0.20),
                                    /*seed=*/31);
  Oracle oracle;
  uint64_t next_id = 0;
  DeterministicRandom workload(44);
  const size_t divergences =
      RunMixedOps(rig.client.get(), &workload, &oracle, &next_id,
                  /*ops=*/1000, config.scheme.max_documents);
  EXPECT_EQ(divergences, 0u);
  EXPECT_GT(rig.chaos.chaos_stats().total_injected(), 100u);
  EXPECT_GT(rig.retry.retry_stats().retries, 50u);
}

TEST(ChaosTest, Scheme1BatchedPipelineSurvivesHeavyChaos) {
  // Same 20% fault pressure, but with batch_ops on: multi-keyword rounds
  // travel as kMsgBatch envelopes through MultiCall's pipelined window, so
  // chaos now hits envelopes (retried per sub-op with stable seqs) instead
  // of monolithic frames. Exactly-once must hold at sub-op granularity.
  core::SystemConfig config = ChaosConfig();
  config.scheme.batch_ops = true;
  ChaosRig<core::Scheme1Client> rig(SystemKind::kScheme1, config,
                                    SymmetricChaos(/*seed=*/23, 0.20),
                                    /*seed=*/23, BatchedChaosRetryOptions());
  Oracle oracle;
  uint64_t next_id = 0;
  DeterministicRandom workload(46);
  const size_t divergences =
      RunMixedOps(rig.client.get(), &workload, &oracle, &next_id,
                  /*ops=*/600, config.scheme.max_documents);
  EXPECT_EQ(divergences, 0u);
  // The batch path actually carried the run.
  EXPECT_GT(rig.retry.retry_stats().batches, 0u);
  EXPECT_GT(rig.chaos.chaos_stats().total_injected(), 100u);
  // A pipelined multi-keyword search over the chaotic link agrees with the
  // oracle keyword by keyword.
  std::vector<std::string> kws;
  for (uint64_t i = 0; i < 8; ++i) kws.push_back("kw" + std::to_string(i));
  auto multi = rig.client->MultiSearch(kws);
  SSE_ASSERT_OK_RESULT(multi);
  ASSERT_EQ(multi->size(), kws.size());
  for (size_t i = 0; i < kws.size(); ++i) {
    EXPECT_EQ((*multi)[i].ids, oracle.Expected(kws[i])) << kws[i];
  }
}

TEST(ChaosTest, Scheme2BatchedPipelineSurvivesHeavyChaos) {
  core::SystemConfig config = ChaosConfig();
  config.scheme.batch_ops = true;
  ChaosRig<core::Scheme2Client> rig(SystemKind::kScheme2, config,
                                    SymmetricChaos(/*seed=*/27, 0.20),
                                    /*seed=*/27, BatchedChaosRetryOptions());
  Oracle oracle;
  uint64_t next_id = 0;
  DeterministicRandom workload(47);
  const size_t divergences =
      RunMixedOps(rig.client.get(), &workload, &oracle, &next_id,
                  /*ops=*/600, config.scheme.max_documents);
  EXPECT_EQ(divergences, 0u);
  EXPECT_GT(rig.retry.retry_stats().batches, 0u);
  EXPECT_GT(rig.chaos.chaos_stats().total_injected(), 100u);
}

TEST(ChaosTest, Scheme3BatchedPipelineSurvivesHeavyChaos) {
  core::SystemConfig config = ChaosConfig();
  config.scheme.batch_ops = true;
  ChaosRig<core::Scheme3Client> rig(SystemKind::kScheme3, config,
                                    SymmetricChaos(/*seed=*/37, 0.20),
                                    /*seed=*/37, BatchedChaosRetryOptions());
  Oracle oracle;
  uint64_t next_id = 0;
  DeterministicRandom workload(48);
  const size_t divergences =
      RunMixedOps(rig.client.get(), &workload, &oracle, &next_id,
                  /*ops=*/600, config.scheme.max_documents);
  EXPECT_EQ(divergences, 0u);
  EXPECT_GT(rig.retry.retry_stats().batches, 0u);
  EXPECT_GT(rig.chaos.chaos_stats().total_injected(), 100u);
}

TEST(ChaosTest, SeedSweepStaysCleanAtModerateRates) {
  // Several independent fault schedules at varied rates; any one seed
  // reproducing a divergence replays exactly from this table.
  const core::SystemConfig config = ChaosConfig();
  for (uint64_t seed : {101u, 202u, 303u}) {
    const double rate = 0.05 * static_cast<double>(1 + seed % 3);
    ChaosRig<core::Scheme2Client> rig(SystemKind::kScheme2, config,
                                      SymmetricChaos(seed, rate), seed);
    Oracle oracle;
    uint64_t next_id = 0;
    DeterministicRandom workload(seed ^ 0xabcd);
    const size_t divergences =
        RunMixedOps(rig.client.get(), &workload, &oracle, &next_id,
                    /*ops=*/200, config.scheme.max_documents);
    EXPECT_EQ(divergences, 0u) << "seed " << seed << " rate " << rate;
  }
}

TEST(ChaosTest, NegativeControlDedupOffScheme1Diverges) {
  // Same machinery, reply cache disabled, reply drops only: the retry
  // layer re-sends an already-applied update. For a keyword's first update
  // the server rejects the replay ("token already exists") and the store
  // errors out; for later updates it silently re-applies the XOR delta and
  // postings toggle off. Either way searches drift from the oracle. If
  // this control ever stops diverging the suite has lost its teeth.
  core::SystemConfig config = ChaosConfig();
  config.engine_reply_cache = false;
  ChaosOptions chaos_opts;
  chaos_opts.seed = 7;
  chaos_opts.p_reply_drop = 0.3;  // ambiguous acks on updates, nothing else
  ChaosRig<core::Scheme1Client> rig(SystemKind::kScheme1, config, chaos_opts,
                                    /*seed=*/7);
  Oracle oracle;
  uint64_t next_id = 0;
  DeterministicRandom workload(99);
  const size_t divergences =
      RunMixedOps(rig.client.get(), &workload, &oracle, &next_id,
                  /*ops=*/300, config.scheme.max_documents, /*ns=*/"",
                  /*tolerate_errors=*/true);
  EXPECT_GT(divergences, 0u);
}

/// Engine + DurableServer pair that can be crash-recovered in place: Crash()
/// drops both objects without a checkpoint and reopens from snapshot + WAL,
/// exactly as a process restart would.
struct CrashableServer {
  explicit CrashableServer(const core::SystemConfig& config)
      : config(config) {
    Boot();
  }

  void Boot() {
    core::SystemConfig cfg = config;
    auto built = core::CreateSystem(SystemKind::kScheme1, TestMasterKey(),
                                    cfg, &boot_rng);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    engine_owner = std::move(built->server);
    auto opened = core::DurableServer::Open(dir.path(), engine_owner.get());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    durable = std::move(opened).value();
  }

  void Crash() {
    durable.reset();
    engine_owner.reset();
    Boot();
  }

  TempDir dir;
  core::SystemConfig config;
  DeterministicRandom boot_rng{1};
  std::unique_ptr<core::PersistableHandler> engine_owner;
  std::unique_ptr<core::DurableServer> durable;
};

/// Handler indirection so channels built once keep working across Crash().
class RedirectingHandler : public net::MessageHandler {
 public:
  explicit RedirectingHandler(CrashableServer* server) : server_(server) {}
  Result<net::Message> Handle(const net::Message& request) override {
    return server_->durable->Handle(request);
  }

 private:
  CrashableServer* server_;
};

/// Forwards to the inner channel; on the first request of the armed type it
/// lets the server process the call, then crash-recovers the server and
/// reports the reply lost — the tightest version of "crash mid-update".
class CrashAfterApplyChannel : public net::Channel {
 public:
  CrashAfterApplyChannel(net::Channel* inner, CrashableServer* server)
      : inner_(inner), server_(server) {}

  void ArmForType(uint16_t type) { armed_type_ = type; }

  /// Arms on the first request matching `pred` — for targeting a batch
  /// envelope by its sub-op contents rather than the envelope type alone.
  void ArmWhen(std::function<bool(const net::Message&)> pred) {
    armed_pred_ = std::move(pred);
  }

  Result<net::Message> Call(const net::Message& request) override {
    Result<net::Message> reply = inner_->Call(request);
    const bool hit = (armed_type_ != 0 && request.type == armed_type_) ||
                     (armed_pred_ && armed_pred_(request));
    if (hit) {
      armed_type_ = 0;
      armed_pred_ = nullptr;
      server_->Crash();
      return Status::IoError("crash: server failed over before the reply");
    }
    return reply;
  }

  void Reset() override { inner_->Reset(); }
  const net::ChannelStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  net::Channel* inner_;
  CrashableServer* server_;
  uint16_t armed_type_ = 0;
  std::function<bool(const net::Message&)> armed_pred_;
};

TEST(ChaosTest, CrashRecoveryMidUpdateDedupsTheRetry) {
  // The update is applied and journaled, the server dies before replying,
  // and the client's automatic retry lands on the recovered server. The
  // WAL replay must have rebuilt the reply cache so the retry is served
  // the recorded reply instead of re-toggling the posting.
  core::SystemConfig config = ChaosConfig();
  CrashableServer server(config);
  RedirectingHandler redirect(&server);
  net::InProcessChannel base(&redirect);
  CrashAfterApplyChannel crasher(&base, &server);
  DeterministicRandom rng(3);
  RetryingChannel retry(&crasher, ChaosRetryOptions(), &rng);
  retry.set_sleep_fn([](double) {});
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), config.scheme, &retry, &rng);
  SSE_ASSERT_OK_RESULT(client);

  crasher.ArmForType(core::kMsgS1UpdateRequest);
  SSE_ASSERT_OK((*client)->Store({Document::Make(0, "survivor", {"kw"})}));
  // Exactly one application: the posting is present, not toggled back off.
  auto outcome = (*client)->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
  EXPECT_EQ(BytesToString(outcome->documents[0].second), "survivor");
  // The recovered cache, not a fresh execution, answered the retry.
  ASSERT_NE(server.durable->reply_cache(), nullptr);
  EXPECT_GE(server.durable->reply_cache()->hits(), 1u);
}

TEST(ChaosTest, CrashRecoveryMidBatchDedupsEverySubOp) {
  // Crash-mid-batch: the server applies and journals every sub-op of a
  // multi-keyword update envelope, dies before replying, and the client's
  // retry re-sends the same op seqs in a fresh envelope against the
  // recovered server. WAL replay rebuilt the reply cache per sub-op, so
  // each retried op is served its recorded reply — applied exactly once,
  // no XOR delta toggled back off.
  core::SystemConfig config = ChaosConfig();
  config.scheme.batch_ops = true;
  CrashableServer server(config);
  RedirectingHandler redirect(&server);
  net::InProcessChannel base(&redirect);
  CrashAfterApplyChannel crasher(&base, &server);
  DeterministicRandom rng(5);
  RetryingChannel retry(&crasher, BatchedChaosRetryOptions(), &rng);
  retry.set_sleep_fn([](double) {});
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), config.scheme, &retry, &rng);
  SSE_ASSERT_OK_RESULT(client);

  // Target the update-round envelope (mutating sub-ops), not the read-only
  // nonce round that precedes it.
  crasher.ArmWhen([](const net::Message& request) {
    if (request.type != net::kMsgBatch) return false;
    auto batch = net::BatchRequest::FromMessage(request);
    return batch.ok() && !batch->ops.empty() &&
           batch->ops[0].type == core::kMsgS1UpdateRequest;
  });
  SSE_ASSERT_OK((*client)->Store(
      {Document::Make(0, "batch-survivor", {"ka", "kb", "kc"})}));
  // Every posting present exactly once across all three sub-ops.
  for (const char* kw : {"ka", "kb", "kc"}) {
    auto outcome = (*client)->Search(kw);
    SSE_ASSERT_OK_RESULT(outcome);
    EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0}) << kw;
  }
  EXPECT_EQ(BytesToString((*client)->Search("ka")->documents[0].second),
            "batch-survivor");
  // The recovered cache — not a fresh execution — answered each retried
  // sub-op in the envelope.
  ASSERT_NE(server.durable->reply_cache(), nullptr);
  EXPECT_GE(server.durable->reply_cache()->hits(), 3u);
}

TEST(ChaosTest, ChaosWithPeriodicCrashRecoveryStaysConsistent) {
  // Full stack under fire: chaotic link AND a server that loses its
  // process every 100 operations, recovering from snapshot + WAL. The
  // oracle must never notice.
  core::SystemConfig config = ChaosConfig();
  CrashableServer server(config);
  RedirectingHandler redirect(&server);
  net::InProcessChannel base(&redirect);
  ChaosChannel chaos(&base, SymmetricChaos(/*seed=*/17, 0.10));
  chaos.set_sleep_fn([](double) {});
  DeterministicRandom rng(17);
  RetryingChannel retry(&chaos, ChaosRetryOptions(), &rng);
  retry.set_sleep_fn([](double) {});
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), config.scheme, &retry, &rng);
  SSE_ASSERT_OK_RESULT(client);

  Oracle oracle;
  uint64_t next_id = 0;
  DeterministicRandom workload(55);
  size_t divergences = 0;
  for (int round = 0; round < 4; ++round) {
    divergences +=
        RunMixedOps(client->get(), &workload, &oracle, &next_id,
                    /*ops=*/100, config.scheme.max_documents);
    if (round == 1) SSE_ASSERT_OK(server.durable->Checkpoint());
    server.Crash();       // recover from snapshot + WAL, no checkpoint
    chaos.Reset();        // a restart also drops in-flight frames
  }
  EXPECT_EQ(divergences, 0u);
  EXPECT_GT(chaos.chaos_stats().total_injected(), 20u);
}

TEST(ChaosTest, ConcurrentClientsOverTcpUnderChaos) {
  // TSan target: several client threads, each with its own chaotic link
  // and retry layer, hammering one sharded engine over real sockets. The
  // per-thread oracles use disjoint ids and keyword namespaces, so any
  // cross-thread interference shows up as a divergence.
  core::SystemConfig config = ChaosConfig();
  config.engine_shards = 4;
  DeterministicRandom rng(29);
  core::SseSystem sys =
      sse::testing::MakeTestSystem(SystemKind::kScheme2, &rng, config);
  net::TcpServer::Options server_opts;
  server_opts.serialize_handler = false;  // the engine is thread-safe
  auto server = net::TcpServer::Start(sys.server.get(), 0, server_opts);
  SSE_ASSERT_OK_RESULT(server);

  constexpr int kThreads = 3;
  constexpr size_t kOpsEach = 120;
  constexpr uint64_t kIdsEach = 64;
  std::vector<std::thread> threads;
  std::vector<size_t> divergences(kThreads, size_t{0});
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto tcp = net::TcpChannel::Connect((*server)->port());
      ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
      ChaosChannel chaos(tcp->get(),
                         SymmetricChaos(100 + static_cast<uint64_t>(t), 0.15));
      DeterministicRandom thread_rng(200 + static_cast<uint64_t>(t));
      RetryingChannel retry(&chaos, ChaosRetryOptions(), &thread_rng);
      auto client = core::Scheme2Client::Create(TestMasterKey(), config.scheme,
                                                &retry, &thread_rng);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      Oracle oracle;
      uint64_t next_id = static_cast<uint64_t>(t) * kIdsEach;
      DeterministicRandom workload(300 + static_cast<uint64_t>(t));
      divergences[static_cast<size_t>(t)] = RunMixedOps(
          client->get(), &workload, &oracle, &next_id, kOpsEach,
          static_cast<uint64_t>(t) * kIdsEach + kIdsEach,
          /*ns=*/"t" + std::to_string(t) + ".");
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(divergences[static_cast<size_t>(t)], 0u) << "thread " << t;
  }
}

TEST(ChaosTest, SeededDrawOrderIsPinned) {
  // Every chaos soak replays from its seed only while ChaosChannel draws
  // its random numbers in the same order. These counts fingerprint that
  // order; a roll site that moves, or draws when it should not, changes
  // them.
  EchoHandler echo;
  net::InProcessChannel inner(&echo);
  ChaosChannel chaos(&inner, SymmetricChaos(/*seed=*/2024, 0.20));
  chaos.set_sleep_fn([](double) {});
  uint64_t failed = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    const net::Message request{5, Bytes(8, static_cast<uint8_t>(i))};
    if (!chaos.Call(request).ok()) ++failed;
  }
  const net::ChaosStats& s = chaos.chaos_stats();
  EXPECT_EQ(s.calls, 1000u);
  EXPECT_EQ(s.delays, 216u);
  EXPECT_EQ(s.request_corruptions, 96u);
  EXPECT_EQ(s.request_drops, 224u);
  EXPECT_EQ(s.request_duplicates, 68u);
  EXPECT_EQ(s.reply_drops, 169u);
  EXPECT_EQ(s.reply_duplicates, 53u);
  EXPECT_EQ(s.reply_corruptions, 69u);
  EXPECT_EQ(s.stale_served, 601u);
  EXPECT_EQ(failed, 393u);
}

}  // namespace
}  // namespace sse
