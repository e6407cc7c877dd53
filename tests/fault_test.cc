// Failure injection: clients must surface transport faults as clean
// errors, leave consistent state behind, and recover on retry.

#include "sse/net/chaos.h"

#include <gtest/gtest.h>

#include <tuple>

#include "sse/core/registry.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme2_client.h"
#include "test_util.h"

namespace sse {
namespace {

using core::Document;
using core::SystemKind;
using net::ChaosChannel;
using net::ChaosFault;
using sse::testing::EchoHandler;
using sse::testing::FastTestConfig;
using sse::testing::TestMasterKey;

template <typename ClientT>
struct Harness {
  explicit Harness(SystemKind kind)
      : rng(1),
        sys(sse::testing::MakeTestSystem(kind, &rng)),
        faulty(sys.channel.get(), net::ChaosOptions{}) {
    auto created = ClientT::Create(TestMasterKey(), FastTestConfig().scheme,
                                   &faulty, &rng);
    EXPECT_TRUE(created.ok());
    client = std::move(created).value();
  }
  DeterministicRandom rng;
  core::SseSystem sys;  // provides the server + inner channel
  ChaosChannel faulty;  // every probability zero: only FailCall fires
  std::unique_ptr<ClientT> client;
};

TEST(FaultTest, Scheme1RequestLostDuringUpdateLeavesServerUntouched) {
  Harness<core::Scheme1Client> h(SystemKind::kScheme1);
  // Fail the very first call (round 1 of the update).
  h.faulty.FailCall(0, ChaosFault::kRequestDrop);
  Status s = h.client->Store({Document::Make(0, "a", {"kw"})});
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // Retry succeeds and the data is correct.
  SSE_ASSERT_OK(h.client->Store({Document::Make(0, "a", {"kw"})}));
  auto outcome = h.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
}

TEST(FaultTest, Scheme1ReplyLostAfterApplyIsThePoisonCase) {
  // The apply message (call 1) is processed but unacknowledged. A naive
  // retry of the WHOLE Store would fetch fresh nonces and apply a correct
  // second delta — but the client-side used_ids guard was never set, and
  // the XOR delta for the same ids toggles them OFF again. The client must
  // therefore not blindly re-run Store after an ambiguous failure; the
  // test pins this documented behavior.
  Harness<core::Scheme1Client> h(SystemKind::kScheme1);
  h.faulty.FailCall(1, ChaosFault::kReplyDrop);
  Status s = h.client->Store({Document::Make(0, "a", {"kw"})});
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // The update WAS applied server-side despite the error:
  // a fresh search (calls 2,3) finds the document.
  auto outcome = h.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
  // Blind retry toggles the posting off — ambiguous-ack retries need
  // idempotence checks above this layer (e.g. search-before-retry).
  SSE_ASSERT_OK(h.client->Store({Document::Make(0, "a", {"kw"})}));
  auto after_retry = h.client->Search("kw");
  SSE_ASSERT_OK_RESULT(after_retry);
  EXPECT_TRUE(after_retry->ids.empty());
}

TEST(FaultTest, Scheme2RetryAfterLostRequestIsSafe) {
  Harness<core::Scheme2Client> h(SystemKind::kScheme2);
  h.faulty.FailCall(0, ChaosFault::kRequestDrop);
  Status s = h.client->Store({Document::Make(0, "a", {"kw"})});
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  SSE_ASSERT_OK(h.client->Store({Document::Make(0, "a", {"kw"})}));
  auto outcome = h.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
}

TEST(FaultTest, Scheme2RetryAfterLostReplyIsIdempotent) {
  // Scheme 2's append-only segments make the ambiguous case benign: the
  // retry appends a duplicate segment with the same ids; the union is
  // unchanged. This asymmetry vs Scheme 1 is a real deployment
  // consideration the paper's comparison table does not mention.
  Harness<core::Scheme2Client> h(SystemKind::kScheme2);
  h.faulty.FailCall(0, ChaosFault::kReplyDrop);
  Status s = h.client->Store({Document::Make(0, "a", {"kw"})});
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  SSE_ASSERT_OK(h.client->Store({Document::Make(0, "a", {"kw"})}));
  auto outcome = h.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
}

TEST(FaultTest, SearchFailuresAreTransient) {
  Harness<core::Scheme2Client> h(SystemKind::kScheme2);
  SSE_ASSERT_OK(h.client->Store({Document::Make(0, "a", {"kw"})}));
  h.faulty.FailCall(1, ChaosFault::kReplyDrop);
  EXPECT_FALSE(h.client->Search("kw").ok());
  auto retry = h.client->Search("kw");
  SSE_ASSERT_OK_RESULT(retry);
  EXPECT_EQ(retry->ids, std::vector<uint64_t>{0});
  EXPECT_EQ(h.faulty.chaos_stats().total_injected(), 1u);
}

TEST(FaultTest, ReplyDuplicatedShiftsTheStreamOffByOne) {
  // After a duplicated reply, every later call is answered with the
  // buffered stale reply while its own queues behind — the protocol layer
  // receives answers to the WRONG questions until the stream is flushed.
  Harness<core::Scheme2Client> h(SystemKind::kScheme2);
  SSE_ASSERT_OK(h.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK(h.client->Store({Document::Make(1, "b", {"other"})}));
  h.faulty.FailCall(2, ChaosFault::kReplyDuplicate);
  // Call 2: the search gets its own reply (plus a buffered duplicate), so
  // it still succeeds.
  auto first = h.client->Search("kw");
  SSE_ASSERT_OK_RESULT(first);
  EXPECT_EQ(first->ids, std::vector<uint64_t>{0});
  // Call 3: answered with the stale duplicate of call 2 — a search for
  // "other" sees "kw"'s hits. Without session stamps this corruption is
  // silent, which is exactly what RetryingChannel's echo check prevents.
  auto second = h.client->Search("other");
  if (second.ok()) {
    EXPECT_EQ(second->ids, std::vector<uint64_t>{0});  // wrong answer!
  }
  // A reconnect (Reset) flushes the backlog and resynchronizes.
  h.faulty.Reset();
  auto third = h.client->Search("other");
  SSE_ASSERT_OK_RESULT(third);
  EXPECT_EQ(third->ids, std::vector<uint64_t>{1});
  EXPECT_EQ(h.faulty.chaos_stats().total_injected(), 1u);
}

TEST(FaultTest, WrapperKeepsItsOwnStats) {
  // The injector counts traffic (and faults) itself rather than delegating
  // to the inner channel: a dropped request is a round the client paid for
  // even though the server never saw it.
  Harness<core::Scheme2Client> h(SystemKind::kScheme2);
  h.faulty.FailCall(0, ChaosFault::kRequestDrop);
  EXPECT_FALSE(h.client->Store({Document::Make(0, "a", {"kw"})}).ok());
  EXPECT_EQ(h.faulty.stats().rounds, 1u);
  EXPECT_EQ(h.faulty.stats().injected_faults, 1u);
  EXPECT_GT(h.faulty.stats().bytes_sent, 0u);
  EXPECT_EQ(h.faulty.stats().bytes_received, 0u);  // nothing came back
  // The inner channel never carried the dropped round.
  EXPECT_EQ(h.sys.channel->stats().rounds, 0u);

  SSE_ASSERT_OK(h.client->Store({Document::Make(0, "a", {"kw"})}));
  EXPECT_GT(h.faulty.stats().bytes_received, 0u);
  EXPECT_NE(h.faulty.stats().ToString().find("faults=1"), std::string::npos);
}

TEST(FaultTest, EveryFaultKindFiresOnExactlyItsScheduledCall) {
  // {scheduled fault, the counter it bumps, whether the faulted call fails}
  const std::tuple<ChaosFault, uint64_t net::ChaosStats::*, bool> cases[] = {
      {ChaosFault::kDelay, &net::ChaosStats::delays, false},
      {ChaosFault::kRequestCorrupt, &net::ChaosStats::request_corruptions,
       false},
      {ChaosFault::kRequestDrop, &net::ChaosStats::request_drops, true},
      {ChaosFault::kRequestDuplicate, &net::ChaosStats::request_duplicates,
       false},
      {ChaosFault::kReplyDrop, &net::ChaosStats::reply_drops, true},
      {ChaosFault::kReplyDuplicate, &net::ChaosStats::reply_duplicates, false},
      {ChaosFault::kReplyCorrupt, &net::ChaosStats::reply_corruptions, false},
  };
  for (const auto& [fault, counter, fails] : cases) {
    SCOPED_TRACE(static_cast<int>(fault));
    EchoHandler echo;
    net::InProcessChannel inner(&echo);
    ChaosChannel chaos(&inner, net::ChaosOptions{});
    chaos.set_sleep_fn([](double) {});
    chaos.FailCall(2, fault);
    for (uint64_t call = 0; call < 4; ++call) {
      const bool ok = chaos.Call(net::Message{5, Bytes{1, 2, 3}}).ok();
      EXPECT_EQ(ok, call != 2 || !fails);
      const uint64_t fired = call >= 2 ? 1 : 0;
      EXPECT_EQ(chaos.chaos_stats().*counter, fired);
      EXPECT_EQ(chaos.chaos_stats().total_injected(), fired);
    }
  }
}

}  // namespace
}  // namespace sse
