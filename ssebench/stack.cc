#include "stack.h"

#include <filesystem>

#include "common.h"
#include "sse/core/scheme2_messages.h"
#include "sse/core/scheme2_server.h"
#include "sse/core/scheme3_messages.h"
#include "sse/core/scheme3_server.h"
#include "sse/engine/scheme_shard.h"

namespace ssebench {
namespace {

template <typename Result>
bool DropLastId(sse::net::Message* reply) {
  auto parsed = Result::FromMessage(*reply);
  if (!parsed.ok() || parsed->ids.empty()) return false;
  parsed->ids.pop_back();
  sse::net::Message corrupted = parsed->ToMessage();
  corrupted.EchoSession(*reply);
  *reply = std::move(corrupted);
  return true;
}

}  // namespace

sse::Result<sse::net::Message> DropOneIdHandler::Handle(
    const sse::net::Message& request) {
  sse::Result<sse::net::Message> reply = inner_->Handle(request);
  if (!reply.ok() || !armed_.load() || fired_.load()) return reply;
  bool dropped = false;
  if (reply->type == sse::core::kMsgS2SearchResult) {
    dropped = DropLastId<sse::core::S2SearchResult>(&reply.value());
  } else if (reply->type == sse::core::kMsgS3SearchResult) {
    dropped = DropLastId<sse::core::S3SearchResult>(&reply.value());
  }
  if (dropped) fired_.store(true);
  return reply;
}

std::unique_ptr<Stack> Stack::Open(sse::core::SystemKind kind,
                                   const std::string& dir, bool corrupt) {
  std::unique_ptr<Stack> stack(new Stack());
  stack->dir_ = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) Die("create " + dir, sse::Status::IoError(ec.message()));

  const sse::core::SchemeDescriptor* scheme = sse::core::FindScheme(kind);
  sse::core::SystemConfig config;  // SchemeOptions{}: the library defaults
  sse::engine::EngineOptions engine_options;
  engine_options.num_shards = kEngineShards;
  // As in sse_cli: the durable shell's reply cache does the dedup.
  engine_options.enable_reply_cache = false;
  stack->engine_ = Must(sse::engine::ServerEngine::Create(
                            scheme->make_adapter(config), engine_options),
                        "engine create");
  stack->traced_engine_ = std::make_unique<TracedEngine>(stack->engine_.get());
  stack->durable_ = Must(
      sse::core::DurableServer::Open(dir, stack->traced_engine_.get()),
      "durable open");
  stack->traced_durable_ =
      std::make_unique<TracedHandler>(stack->durable_.get());
  if (corrupt) {
    stack->corrupter_ =
        std::make_unique<DropOneIdHandler>(stack->traced_durable_.get());
  }
  return stack;
}

Stack::~Stack() {
  corrupter_.reset();
  traced_durable_.reset();
  durable_.reset();
  traced_engine_.reset();
  engine_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

Stack::ShardTotals Stack::Shards() {
  ShardTotals t;
  for (size_t i = 0; i < engine_->num_shards(); ++i) {
    sse::engine::SchemeShard* shard = engine_->shard(i);
    if (auto* s2 = dynamic_cast<
            sse::engine::ServerShard<sse::core::Scheme2Server>*>(shard)) {
      t.s2_chain_steps += s2->server().total_chain_steps();
      t.s2_segments_decrypted += s2->server().total_segments_decrypted();
      t.index_comparisons += s2->server().index_comparisons();
    } else if (auto* s3 = dynamic_cast<
                   sse::engine::ServerShard<sse::core::Scheme3Server>*>(
                   shard)) {
      t.s3_chain_steps += s3->server().total_chain_steps();
      t.s3_entries_decrypted += s3->server().total_entries_decrypted();
      t.index_comparisons += s3->server().index_comparisons();
    }
  }
  return t;
}

Stack::Counters Stack::Read() {
  Counters c;
  c.shards = Shards();
  c.engine = engine_->Metrics();
  c.fsync = durable_->wal_fsync_latency();
  c.wal_syncs = durable_->wal_syncs();
  c.wal_bytes = DirBytes(dir_);
  return c;
}

}  // namespace ssebench
