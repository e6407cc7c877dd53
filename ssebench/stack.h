// The production server stack every workload runs through:
//   transport -> [durable.handle] DurableServer (fsync'd WAL, group commit)
//             -> [engine.handle] 4-shard ServerEngine -> scheme servers
// built in a fresh directory inside the checkout, plus read-outs of the
// program's public counters.
#ifndef SSEBENCH_STACK_H_
#define SSEBENCH_STACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "sse/core/durable_server.h"
#include "sse/core/scheme_descriptor.h"
#include "sse/engine/server_engine.h"
#include "tracing.h"

namespace ssebench {

inline constexpr size_t kEngineShards = 4;

/// Drops one id from one search reply once armed: the oracle self-check
/// (a benchmark whose oracle cannot see this corruption proves nothing).
class DropOneIdHandler : public sse::net::MessageHandler {
 public:
  explicit DropOneIdHandler(sse::net::MessageHandler* inner) : inner_(inner) {}
  sse::Result<sse::net::Message> Handle(
      const sse::net::Message& request) override;
  void Arm() { armed_.store(true); }
  bool fired() const { return fired_.load(); }

 private:
  sse::net::MessageHandler* inner_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> fired_{false};
};

class Stack {
 public:
  /// Opens a fresh stack for `kind` in `dir` (created; removed on
  /// destruction). With `corrupt`, replies pass through DropOneIdHandler.
  static std::unique_ptr<Stack> Open(sse::core::SystemKind kind,
                                     const std::string& dir, bool corrupt);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// What transports serve.
  sse::net::MessageHandler* front() {
    return corrupter_ ? static_cast<sse::net::MessageHandler*>(
                            corrupter_.get())
                      : traced_durable_.get();
  }
  sse::engine::ServerEngine& engine() { return *engine_; }
  sse::core::DurableServer& durable() { return *durable_; }
  const std::string& dir() const { return dir_; }
  /// Arms the corrupting decorator, when there is one.
  void ArmCorruption() {
    if (corrupter_) corrupter_->Arm();
  }

  /// Counters summed over the engine's shards (call only while idle).
  struct ShardTotals {
    uint64_t s2_chain_steps = 0;
    uint64_t s2_segments_decrypted = 0;
    uint64_t s3_chain_steps = 0;
    uint64_t s3_entries_decrypted = 0;
    uint64_t index_comparisons = 0;
  };
  ShardTotals Shards();

  /// Everything read before and after a measured phase.
  struct Counters {
    ShardTotals shards;
    sse::engine::MetricsSnapshot engine;
    sse::obs::LatencyHistogram::Snapshot fsync;
    uint64_t wal_syncs = 0;
    uint64_t wal_bytes = 0;
  };
  Counters Read();

 private:
  Stack() = default;

  std::string dir_;
  std::unique_ptr<sse::engine::ServerEngine> engine_;
  std::unique_ptr<TracedEngine> traced_engine_;
  std::unique_ptr<sse::core::DurableServer> durable_;
  std::unique_ptr<TracedHandler> traced_durable_;
  std::unique_ptr<DropOneIdHandler> corrupter_;
};

}  // namespace ssebench

#endif  // SSEBENCH_STACK_H_
