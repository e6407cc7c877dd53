// Unit tests for the observability metric primitives: the interpolated
// latency histogram (quantiles must fall *inside* the containing bucket,
// not at its upper edge), snapshot merging, the Prometheus render of the
// MetricsRegistry, and the gated crypto timers.

#include "sse/obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "sse/crypto/prf.h"
#include "sse/crypto/stream_cipher.h"
#include "sse/obs/histogram.h"
#include "test_util.h"

namespace sse {
namespace {

using obs::LatencyHistogram;
using obs::MetricsRegistry;

TEST(LatencyHistogramTest, SingleSampleReportsBucketInterior) {
  LatencyHistogram hist;
  hist.Record(700);  // bucket [512, 1024)
  const auto snap = hist.Snap();
  ASSERT_EQ(snap.count, 1u);
  // The old implementation returned the upper edge (1.024us) for every
  // quantile; interpolation must place a lone sample strictly inside.
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const double micros = snap.quantile_micros(q);
    EXPECT_GT(micros, 0.512) << "q=" << q;
    EXPECT_LT(micros, 1.024) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneAndBoundedByBuckets) {
  LatencyHistogram hist;
  // 100 samples in [512, 1024), 10 in [65536, 131072).
  for (int i = 0; i < 100; ++i) hist.Record(600);
  for (int i = 0; i < 10; ++i) hist.Record(100000);
  const auto snap = hist.Snap();
  ASSERT_EQ(snap.count, 110u);
  const double p50 = snap.quantile_micros(0.50);
  const double p95 = snap.quantile_micros(0.95);
  const double p99 = snap.quantile_micros(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // p50 must land in the small bucket, p95/p99 in the large one.
  EXPECT_LT(p50, 1.024);
  EXPECT_GT(p95, 65.536);
  EXPECT_LT(p99, 131.072);
}

TEST(LatencyHistogramTest, MeanMatchesRecordedTotals) {
  LatencyHistogram hist;
  hist.Record(1000);
  hist.Record(3000);
  const auto snap = hist.Snap();
  EXPECT_DOUBLE_EQ(snap.mean_micros(), 2.0);
}

TEST(LatencyHistogramTest, MergeComposesSnapshots) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 50; ++i) a.Record(600);
  for (int i = 0; i < 50; ++i) b.Record(100000);
  auto merged = a.Snap();
  merged.Merge(b.Snap());
  EXPECT_EQ(merged.count, 100u);
  EXPECT_EQ(merged.total_nanos, 50u * 600 + 50u * 100000);
  // The merged distribution sees both modes: the median sits in or below
  // the boundary between them, p99 in the slow mode's bucket.
  EXPECT_LT(merged.quantile_micros(0.25), 1.024);
  EXPECT_GT(merged.quantile_micros(0.99), 65.536);
  // Merging an empty snapshot is a no-op.
  merged.Merge(LatencyHistogram().Snap());
  EXPECT_EQ(merged.count, 100u);
}

TEST(MetricsRegistryTest, CountersRenderAndAreIdempotent) {
  MetricsRegistry registry;
  auto* c1 = registry.GetCounter("test_ops_total", "operations");
  auto* c2 = registry.GetCounter("test_ops_total");
  EXPECT_EQ(c1, c2);  // same name -> same counter
  c1->Add(3);
  c2->Add();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP test_ops_total operations\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_ops_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("test_ops_total 4\n"), std::string::npos);
}

TEST(MetricsRegistryTest, SameNameGaugesSumAndUnregisterOnDrop) {
  MetricsRegistry registry;
  auto r1 = registry.RegisterGauge("test_gauge", [] { return 2.0; });
  std::string text;
  {
    auto r2 = registry.RegisterGauge("test_gauge", [] { return 3.0; });
    text = registry.RenderPrometheus();
    EXPECT_NE(text.find("test_gauge 5\n"), std::string::npos) << text;
  }
  // r2 dropped: its instance stops being scraped.
  text = registry.RenderPrometheus();
  EXPECT_NE(text.find("test_gauge 2\n"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, HistogramsRenderCumulativeSecondsBuckets) {
  MetricsRegistry registry;
  LatencyHistogram hist;
  hist.Record(700);     // [512, 1024) ns -> le="1.024e-06"
  hist.Record(700);
  hist.Record(100000);  // [65536, 131072) ns
  auto reg =
      registry.RegisterHistogram("test_latency_seconds",
                                 [&] { return hist.Snap(); }, "test latency");
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE test_latency_seconds histogram\n"),
            std::string::npos);
  // Bucket edges are seconds; counts are cumulative.
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"1.024e-06\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"0.000131072\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_sum 0.0001014\n"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, SameNameHistogramsMergeAtRender) {
  MetricsRegistry registry;
  LatencyHistogram shard0;
  LatencyHistogram shard1;
  shard0.Record(700);
  shard1.Record(700);
  auto r0 = registry.RegisterHistogram("test_latency_seconds",
                                       [&] { return shard0.Snap(); });
  auto r1 = registry.RegisterHistogram("test_latency_seconds",
                                       [&] { return shard1.Snap(); });
  const std::string text = registry.RenderPrometheus();
  // One merged series, not two.
  EXPECT_NE(text.find("test_latency_seconds_count 2\n"), std::string::npos)
      << text;
  size_t first = text.find("# TYPE test_latency_seconds histogram");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE test_latency_seconds histogram", first + 1),
            std::string::npos);
}

TEST(MetricsRegistryTest, RegistrationIsMovable) {
  MetricsRegistry registry;
  MetricsRegistry::Registration keep;
  {
    auto r = registry.RegisterGauge("test_moved_gauge", [] { return 1.0; });
    keep = std::move(r);
  }
  EXPECT_NE(registry.RenderPrometheus().find("test_moved_gauge 1\n"),
            std::string::npos);
}

TEST(CryptoTimersTest, GateControlsRecording) {
  auto prf = crypto::Prf::Create(Bytes(32, 0x41)).value();
  obs::SetCryptoTimingEnabled(false);
  const uint64_t before = obs::CryptoTimers::Global().prf.Snap().count;
  ASSERT_TRUE(prf.Eval(std::string_view("off")).ok());
  EXPECT_EQ(obs::CryptoTimers::Global().prf.Snap().count, before);

  obs::SetCryptoTimingEnabled(true);
  ASSERT_TRUE(prf.Eval(std::string_view("on")).ok());
  obs::SetCryptoTimingEnabled(false);
  EXPECT_GT(obs::CryptoTimers::Global().prf.Snap().count, before);
  // The gated series is part of the global scrape.
  EXPECT_NE(MetricsRegistry::Global().RenderPrometheus().find(
                "sse_crypto_prf_seconds_count"),
            std::string::npos);
}

TEST(CryptoTimersTest, PrfSeriesCountsEveryHmac) {
  // One sample per HMAC-SHA-256: StreamCipher::Create runs HKDF-Extract
  // plus two Expand blocks, and Encrypt/Decrypt one MAC each.
  auto count = [] { return obs::CryptoTimers::Global().prf.Snap().count; };
  DeterministicRandom rng(7);
  obs::SetCryptoTimingEnabled(true);
  const uint64_t start = count();
  auto cipher = crypto::StreamCipher::Create(Bytes(32, 0x42));
  const uint64_t after_create = count();
  auto ct = cipher.value().Encrypt(StringToBytes("segment"), rng);
  const uint64_t after_encrypt = count();
  auto pt = cipher.value().Decrypt(ct.value());
  const uint64_t after_decrypt = count();
  obs::SetCryptoTimingEnabled(false);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(after_create - start, 3u);
  EXPECT_EQ(after_encrypt - after_create, 1u);
  EXPECT_EQ(after_decrypt - after_encrypt, 1u);
}

}  // namespace
}  // namespace sse
