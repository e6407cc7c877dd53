#include "sse/net/channel.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace sse::net {
namespace {

using sse::testing::EchoHandler;

TEST(ChannelTest, CallDeliversAndCounts) {
  EchoHandler handler;
  InProcessChannel channel(&handler);
  Message request{5, Bytes{1, 2, 3}};
  auto reply = channel.Call(request);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, 6);
  EXPECT_EQ(reply->payload, request.payload);
  EXPECT_EQ(handler.calls.load(), 1);

  const ChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.bytes_sent, request.WireSize());
  EXPECT_EQ(stats.bytes_received, reply->WireSize());
  EXPECT_EQ(stats.calls_by_type.at(5), 1u);
}

TEST(ChannelTest, EachCallIsOneRound) {
  EchoHandler handler;
  InProcessChannel channel(&handler);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(channel.Call(Message{1, {}}).ok());
  }
  EXPECT_EQ(channel.stats().rounds, 10u);
}

TEST(ChannelTest, HandlerErrorSurfacesAsStatus) {
  EchoHandler handler;
  InProcessChannel channel(&handler);
  auto reply = channel.Call(Message{99, {}});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInternal);
  // The error reply still counts as traffic.
  EXPECT_EQ(channel.stats().rounds, 1u);
  EXPECT_GT(channel.stats().bytes_received, 0u);
}

TEST(ChannelTest, ResetStatsClears) {
  EchoHandler handler;
  InProcessChannel channel(&handler);
  ASSERT_TRUE(channel.Call(Message{1, Bytes(100, 0)}).ok());
  channel.ResetStats();
  EXPECT_EQ(channel.stats().rounds, 0u);
  EXPECT_EQ(channel.stats().TotalBytes(), 0u);
  EXPECT_EQ(channel.virtual_time_ms(), 0.0);
}

TEST(ChannelTest, TranscriptRecording) {
  EchoHandler handler;
  InProcessChannel::Options options;
  options.record_transcript = true;
  InProcessChannel channel(&handler, options);
  ASSERT_TRUE(channel.Call(Message{1, Bytes{0xaa}}).ok());
  ASSERT_TRUE(channel.Call(Message{2, Bytes{0xbb}}).ok());
  ASSERT_EQ(channel.transcript().size(), 2u);
  EXPECT_EQ(channel.transcript()[0].request.type, 1);
  EXPECT_EQ(channel.transcript()[0].reply.type, 2);
  EXPECT_EQ(channel.transcript()[1].request.payload, Bytes{0xbb});
  channel.ClearTranscript();
  EXPECT_TRUE(channel.transcript().empty());
}

TEST(ChannelTest, TranscriptOffByDefault) {
  EchoHandler handler;
  InProcessChannel channel(&handler);
  ASSERT_TRUE(channel.Call(Message{1, {}}).ok());
  EXPECT_TRUE(channel.transcript().empty());
}

TEST(ChannelTest, VirtualTimeAccumulatesRttAndBandwidth) {
  EchoHandler handler;
  InProcessChannel::Options options;
  options.rtt_ms = 10.0;
  options.bandwidth_bytes_per_sec = 1000.0;  // 1 byte per ms
  InProcessChannel channel(&handler, options);
  Message request{1, Bytes(94, 0)};  // 100 bytes framed
  ASSERT_TRUE(channel.Call(request).ok());
  // 10ms RTT + 200 bytes total / 1000 Bps = 200 ms.
  EXPECT_NEAR(channel.virtual_time_ms(), 210.0, 1.0);
}

TEST(ChannelTest, StatsToStringMentionsRounds) {
  EchoHandler handler;
  InProcessChannel channel(&handler);
  ASSERT_TRUE(channel.Call(Message{1, {}}).ok());
  EXPECT_NE(channel.stats().ToString().find("rounds=1"), std::string::npos);
}

}  // namespace
}  // namespace sse::net
