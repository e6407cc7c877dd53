// Benchmark-owned tracing: four decorators around the public entry points
// of each layer record spans into memory; the analysis turns them into
// per-layer self times after the run. Nothing here touches library code.
//
// Span identity is arithmetic, so no context has to cross a thread or the
// wire: span_id = op * 8 + layer, and a span's parent is the nearest outer
// layer of the same op. In-process, the op travels down the call stack in
// a thread-local; over TCP the server side recovers it from the session
// stamp the generator put on the request (client_id = kOpClientBase + op).
#ifndef SSEBENCH_TRACING_H_
#define SSEBENCH_TRACING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sse/core/persistable.h"
#include "sse/net/channel.h"

namespace ssebench {

enum Layer : uint8_t { kClientLayer = 1, kNetLayer = 2, kDurableLayer = 3,
                       kEngineLayer = 4 };
enum OpClass : uint8_t { kSearchOp = 0, kUpdateOp = 1 };

/// Session client ids the TCP generator stamps: kOpClientBase + op index.
inline constexpr uint64_t kOpClientBase = 1ull << 40;

/// Update requests of either scheme count as updates, all else as searches.
OpClass ClassOf(uint16_t msg_type);

struct Span {
  uint64_t op = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t tid = 0;
  uint8_t layer = 0;
  uint8_t parent_layer = 0;  // 0 = root
  uint8_t cls = 0;
};

/// Which ops are traced. Tracing alternates in blocks of ops so one run
/// measures traced and untraced goodput side by side; inside a traced
/// block every `period`-th op is sampled (all its layers or none).
struct TracePlan {
  bool enabled = false;
  uint64_t first_op = 0;  // ops below this are never traced
  uint64_t block = 16;
  uint64_t period = 1;

  bool InTracedBlock(uint64_t op) const {
    return enabled && op >= first_op && ((op - first_op) / block) % 2 == 1;
  }
  bool Sampled(uint64_t op) const {
    return InTracedBlock(op) && op % period == 0;
  }
};

/// Process-wide plan and span store. Each recording thread appends to its
/// own buffer (uncontended lock), so server workers and generator threads
/// never serialize on one another.
class Tracer {
 public:
  static Tracer& Get();

  /// Set once, before any stack is built; read concurrently afterwards.
  void SetPlan(const TracePlan& plan) { plan_ = plan; }
  const TracePlan& plan() const { return plan_; }

  void Record(const Span& span);
  /// Moves every recorded span out (call only while no op is running).
  std::vector<Span> Drain();

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
    uint32_t tid = 0;
  };
  Buffer& Local();

  TracePlan plan_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// client.op: the benchmark's own call into the scheme client. Opens the
/// op's context on this thread so in-process layers below attach to it.
class ClientOpScope {
 public:
  ClientOpScope(uint64_t op, OpClass cls);
  ~ClientOpScope();
  ClientOpScope(const ClientOpScope&) = delete;
  ClientOpScope& operator=(const ClientOpScope&) = delete;

 private:
  bool active_ = false;
  uint64_t op_ = 0;
  OpClass cls_ = kSearchOp;
  uint64_t start_ns_ = 0;
};

/// Records one span directly (pipelined client ops, whose start and end
/// happen in different calls).
void RecordSpan(uint64_t op, Layer layer, Layer parent, OpClass cls,
                uint64_t start_ns, uint64_t end_ns);

/// net.call: decorator around the client's channel. Times Submit->Await
/// (or Call) of every sampled, session-stamped request.
class TracedChannel : public sse::net::Channel {
 public:
  explicit TracedChannel(sse::net::Channel* inner) : inner_(inner) {}

  sse::Result<sse::net::Message> Call(
      const sse::net::Message& request) override;
  CallId Submit(const sse::net::Message& request) override;
  sse::Result<sse::net::Message> Await(CallId id) override;
  size_t pending_calls() const override { return inner_->pending_calls(); }
  void Reset() override { inner_->Reset(); }
  void SetIoDeadlineMs(double ms) override { inner_->SetIoDeadlineMs(ms); }
  const sse::net::ChannelStats& stats() const override {
    return inner_->stats();
  }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  struct Started {
    uint64_t op = 0;
    OpClass cls = kSearchOp;
    uint64_t start_ns = 0;
  };
  sse::net::Channel* inner_;
  std::map<CallId, Started> started_;
};

/// durable.handle: decorator around DurableServer, handed to TcpServer or
/// InProcessChannel.
class TracedHandler : public sse::net::MessageHandler {
 public:
  explicit TracedHandler(sse::net::MessageHandler* inner) : inner_(inner) {}
  sse::Result<sse::net::Message> Handle(
      const sse::net::Message& request) override;

 private:
  sse::net::MessageHandler* inner_;
};

/// engine.handle: decorator around ServerEngine, handed to
/// DurableServer::Open. Forwards every virtual.
class TracedEngine : public sse::core::PersistableHandler {
 public:
  explicit TracedEngine(sse::core::PersistableHandler* inner)
      : inner_(inner) {}
  sse::Result<sse::net::Message> Handle(
      const sse::net::Message& request) override;
  sse::Result<sse::Bytes> SerializeState() const override {
    return inner_->SerializeState();
  }
  sse::Status RestoreState(sse::BytesView data) override {
    return inner_->RestoreState(data);
  }
  bool IsMutating(uint16_t msg_type) const override {
    return inner_->IsMutating(msg_type);
  }
  void OnStorageDegraded(const sse::Status& cause) override {
    inner_->OnStorageDegraded(cause);
  }

 private:
  sse::core::PersistableHandler* inner_;
};

/// Per-layer self times of the traced ops, and the integrity checks the
/// traced run must pass.
struct TraceAnalysis {
  /// [layer][class] -> self time per op, microseconds.
  std::map<int, std::map<int, std::vector<double>>> self_us;
  /// [layer][class] -> whole span duration per op, microseconds.
  std::map<int, std::map<int, std::vector<double>>> span_us;
  uint64_t ops = 0;
  uint64_t incomplete_ops = 0;     // a sampled op missing an expected layer
  uint64_t nesting_violations = 0;  // a child outside its parent's interval
  uint64_t duplicate_spans = 0;     // two spans with one (op, layer)

  double SelfMedian(int layer, int cls) const;
  double SpanMedian(int layer, int cls) const;
};

/// `layers` lists the layers every sampled op must have.
TraceAnalysis AnalyzeSpans(const std::vector<Span>& spans,
                           const std::vector<Layer>& layers);

/// Writes the spans of at most `max_ops` ops as Chrome trace-event JSON
/// (obs::SpanCollector's export format).
bool WriteChromeTrace(const std::vector<Span>& spans, size_t max_ops,
                      const std::string& path);

}  // namespace ssebench

#endif  // SSEBENCH_TRACING_H_
