#include "tracing.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <unordered_map>

#include "common.h"
#include "sse/core/scheme2_messages.h"
#include "sse/core/scheme3_messages.h"
#include "sse/obs/trace.h"

namespace ssebench {
namespace {

/// The op whose layers are currently executing on this thread.
struct OpContext {
  bool active = false;
  uint64_t op = 0;
  OpClass cls = kSearchOp;
  Layer layer = kClientLayer;  // innermost open layer
};
thread_local OpContext tl_context;

/// Opens `layer` under the current thread context for the duration of one
/// call, recording its span on close.
class LayerScope {
 public:
  LayerScope(const OpContext& parent, Layer layer)
      : saved_(tl_context), parent_(parent), layer_(layer) {
    if (!parent_.active) return;
    tl_context = parent_;
    tl_context.layer = layer_;
    start_ns_ = NowNs();
  }
  ~LayerScope() {
    if (parent_.active) {
      RecordSpan(parent_.op, layer_, parent_.layer, parent_.cls, start_ns_,
                 NowNs());
    }
    tl_context = saved_;
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  OpContext saved_;
  OpContext parent_;
  Layer layer_;
  uint64_t start_ns_ = 0;
};

/// The op a session-stamped request belongs to (TCP generator traffic).
bool OpOfRequest(const sse::net::Message& request, uint64_t* op) {
  if (!request.has_session || request.client_id < kOpClientBase) return false;
  *op = request.client_id - kOpClientBase;
  return true;
}

}  // namespace

OpClass ClassOf(uint16_t msg_type) {
  return msg_type == sse::core::kMsgS2UpdateRequest ||
                 msg_type == sse::core::kMsgS3UpdateRequest
             ? kUpdateOp
             : kSearchOp;
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Buffer& Tracer::Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    local = buffers_.back().get();
    local->tid = static_cast<uint32_t>(buffers_.size());
  }
  return *local;
}

void Tracer::Record(const Span& span) {
  Buffer& buffer = Local();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.spans.push_back(span);
  buffer.spans.back().tid = buffer.tid;
}

std::vector<Span> Tracer::Drain() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return out;
}

void RecordSpan(uint64_t op, Layer layer, Layer parent, OpClass cls,
                uint64_t start_ns, uint64_t end_ns) {
  Span span;
  span.op = op;
  span.layer = layer;
  span.parent_layer = parent;
  span.cls = cls;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  Tracer::Get().Record(span);
}

ClientOpScope::ClientOpScope(uint64_t op, OpClass cls)
    : active_(Tracer::Get().plan().Sampled(op)), op_(op), cls_(cls) {
  if (!active_) return;
  tl_context = OpContext{true, op, cls, kClientLayer};
  start_ns_ = NowNs();
}

ClientOpScope::~ClientOpScope() {
  if (!active_) return;
  Span span;
  span.op = op_;
  span.layer = kClientLayer;
  span.cls = cls_;
  span.start_ns = start_ns_;
  span.end_ns = NowNs();
  tl_context = OpContext{};
  Tracer::Get().Record(span);
}

sse::Result<sse::net::Message> TracedChannel::Call(
    const sse::net::Message& request) {
  uint64_t op = 0;
  if (!OpOfRequest(request, &op) || !Tracer::Get().plan().Sampled(op)) {
    return inner_->Call(request);
  }
  const uint64_t start = NowNs();
  sse::Result<sse::net::Message> reply = inner_->Call(request);
  RecordSpan(op, kNetLayer, kClientLayer, ClassOf(request.type), start,
             NowNs());
  return reply;
}

sse::net::Channel::CallId TracedChannel::Submit(
    const sse::net::Message& request) {
  uint64_t op = 0;
  const bool sampled =
      OpOfRequest(request, &op) && Tracer::Get().plan().Sampled(op);
  const uint64_t start = sampled ? NowNs() : 0;
  const CallId id = inner_->Submit(request);
  if (sampled) started_[id] = Started{op, ClassOf(request.type), start};
  return id;
}

sse::Result<sse::net::Message> TracedChannel::Await(CallId id) {
  sse::Result<sse::net::Message> reply = inner_->Await(id);
  auto it = started_.find(id);
  if (it != started_.end()) {
    RecordSpan(it->second.op, kNetLayer, kClientLayer, it->second.cls,
               it->second.start_ns, NowNs());
    started_.erase(it);
  }
  return reply;
}

sse::Result<sse::net::Message> TracedHandler::Handle(
    const sse::net::Message& request) {
  OpContext parent = tl_context;  // in-process: the client op on this thread
  uint64_t op = 0;
  if (!parent.active && OpOfRequest(request, &op) &&
      Tracer::Get().plan().Sampled(op)) {
    parent = OpContext{true, op, ClassOf(request.type), kNetLayer};
  }
  LayerScope scope(parent, kDurableLayer);
  return inner_->Handle(request);
}

sse::Result<sse::net::Message> TracedEngine::Handle(
    const sse::net::Message& request) {
  LayerScope scope(tl_context, kEngineLayer);
  return inner_->Handle(request);
}

double TraceAnalysis::SelfMedian(int layer, int cls) const {
  auto l = self_us.find(layer);
  if (l == self_us.end()) return 0;
  auto c = l->second.find(cls);
  return c == l->second.end() ? 0 : Median(c->second);
}

double TraceAnalysis::SpanMedian(int layer, int cls) const {
  auto l = span_us.find(layer);
  if (l == span_us.end()) return 0;
  auto c = l->second.find(cls);
  return c == l->second.end() ? 0 : Median(c->second);
}

TraceAnalysis AnalyzeSpans(const std::vector<Span>& spans,
                           const std::vector<Layer>& layers) {
  TraceAnalysis out;
  // op -> span index per layer (-1 = absent).
  std::unordered_map<uint64_t, std::array<int64_t, 5>> by_op;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto [it, inserted] = by_op.try_emplace(spans[i].op);
    if (inserted) it->second.fill(-1);
    int64_t& slot = it->second[spans[i].layer];
    if (slot >= 0) ++out.duplicate_spans;
    slot = static_cast<int64_t>(i);
  }
  for (const auto& [op, slots] : by_op) {
    bool complete = true;
    for (Layer layer : layers) complete = complete && slots[layer] >= 0;
    if (!complete) {
      ++out.incomplete_ops;
      continue;
    }
    ++out.ops;
    for (int layer = kClientLayer; layer <= kEngineLayer; ++layer) {
      if (slots[layer] < 0) continue;
      const Span& span = spans[static_cast<size_t>(slots[layer])];
      uint64_t children_ns = 0;
      for (int child = layer + 1; child <= kEngineLayer; ++child) {
        if (slots[child] < 0) continue;
        const Span& c = spans[static_cast<size_t>(slots[child])];
        if (c.parent_layer != layer) continue;
        if (c.start_ns < span.start_ns || c.end_ns > span.end_ns) {
          ++out.nesting_violations;
        }
        children_ns += c.end_ns - c.start_ns;
      }
      const uint64_t duration = span.end_ns - span.start_ns;
      const uint64_t self = duration > children_ns ? duration - children_ns : 0;
      out.self_us[layer][span.cls].push_back(static_cast<double>(self) / 1e3);
      out.span_us[layer][span.cls].push_back(static_cast<double>(duration) /
                                             1e3);
    }
  }
  return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans, size_t max_ops,
                      const std::string& path) {
  static const char* const kNames[] = {"", "client.op", "net.call",
                                       "durable.handle", "engine.handle"};
  std::vector<Span> sorted = spans;
  std::sort(sorted.begin(), sorted.end(), [](const Span& a, const Span& b) {
    return a.op != b.op ? a.op < b.op : a.layer < b.layer;
  });
  std::vector<sse::obs::SpanRecord> records;
  size_t ops = 0;
  uint64_t last_op = ~0ull;
  for (const Span& span : sorted) {
    if (span.op != last_op) {
      if (++ops > max_ops) break;
      last_op = span.op;
    }
    sse::obs::SpanRecord r;
    r.name = kNames[span.layer];
    r.trace_id = span.op + 1;
    r.span_id = span.op * 8 + span.layer;
    r.parent_id = span.parent_layer == 0 ? 0 : span.op * 8 + span.parent_layer;
    r.start_ns = span.start_ns;
    r.end_ns = span.end_ns;
    r.tid = span.tid;
    r.note_count = 1;
    r.note_keys[0] = "update";
    r.note_values[0] = span.cls;
    records.push_back(r);
  }
  std::ofstream out(path);
  out << sse::obs::SpanCollector::ToChromeTraceJson(records);
  return static_cast<bool>(out);
}

}  // namespace ssebench
