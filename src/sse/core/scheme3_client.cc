#include "sse/core/scheme3_client.h"

#include <algorithm>

#include "sse/crypto/hash_chain.h"
#include "sse/crypto/hkdf.h"
#include "sse/crypto/stream_cipher.h"
#include "sse/index/posting.h"
#include "sse/util/serde.h"

namespace sse::core {

namespace {
constexpr const char* kTokenLabel = "s3.token";
constexpr const char* kChainLabel = "s3.chain";
}  // namespace

Scheme3Client::Scheme3Client(crypto::Prf prf, crypto::Aead aead,
                             const SchemeOptions& options,
                             net::Channel* channel, RandomSource* rng)
    : prf_(std::move(prf)),
      aead_(std::move(aead)),
      options_(options),
      channel_(channel),
      rng_(rng) {}

Result<std::unique_ptr<Scheme3Client>> Scheme3Client::Create(
    const crypto::MasterKey& key, const SchemeOptions& options,
    net::Channel* channel, RandomSource* rng) {
  if (channel == nullptr || rng == nullptr) {
    return Status::InvalidArgument("channel and rng must be non-null");
  }
  if (options.chain_length == 0) {
    return Status::InvalidArgument("chain_length must be > 0");
  }
  Result<crypto::Prf> prf = crypto::Prf::Create(key.keyword_key());
  if (!prf.ok()) return prf.status();
  Bytes aead_key;
  SSE_ASSIGN_OR_RETURN(aead_key, crypto::HkdfSha256(key.data_key(), /*salt=*/{},
                                                    "sse.data.aead", 32));
  Result<crypto::Aead> aead = crypto::Aead::Create(aead_key);
  if (!aead.ok()) return aead.status();
  return std::unique_ptr<Scheme3Client>(
      new Scheme3Client(std::move(prf).value(), std::move(aead).value(),
                        options, channel, rng));
}

Result<Bytes> Scheme3Client::Token(std::string_view keyword) const {
  // Never leaves the client: it only seeds the per-keyword chain.
  return prf_.EvalLabeled(kTokenLabel, StringToBytes(keyword));
}

Scheme3Client::KeywordState& Scheme3Client::StateFor(
    const Bytes& token) const {
  KeywordState& state = states_[HexEncode(token)];
  if (state.token.empty()) state.token = token;
  return state;
}

Result<Bytes> Scheme3Client::ChainKeyAt(KeywordState& state,
                                        uint32_t ctr) const {
  if (ctr == 0 || ctr > options_.chain_length) {
    return Status::ResourceExhausted(
        "chain counter " + std::to_string(ctr) + " outside [1, " +
        std::to_string(options_.chain_length) + "]");
  }
  // Element index is l - ctr: a *smaller* counter lies forward (more hash
  // applications) of the memoized element, a larger one lies toward the
  // seed and must be recomputed.
  if (state.memo_ctr != 0) {
    if (state.memo_ctr == ctr) return state.memo_element;
    if (ctr < state.memo_ctr) {
      return crypto::HashChain::StepN(state.memo_element,
                                      state.memo_ctr - ctr);
    }
  }
  BufferWriter w;
  w.PutRaw(state.token);
  Bytes seed;
  SSE_ASSIGN_OR_RETURN(seed, prf_.EvalLabeled(kChainLabel, w.data()));
  crypto::HashChain chain =
      crypto::HashChain::Create(seed, options_.chain_length).value();
  Bytes element;
  SSE_ASSIGN_OR_RETURN(element, chain.KeyForCounter(ctr));
  state.memo_ctr = ctr;
  state.memo_element = element;
  return element;
}

Result<Scheme3Client::Trapdoor> Scheme3Client::MakeTrapdoor(
    std::string_view keyword) const {
  Bytes token;
  SSE_ASSIGN_OR_RETURN(token, Token(keyword));
  KeywordState& state = StateFor(token);
  if (state.ctr == 0) {
    return Status::FailedPrecondition(
        "keyword has no updates; nothing to release");
  }
  Trapdoor t;
  t.counter = state.ctr;
  SSE_ASSIGN_OR_RETURN(t.chain_element, ChainKeyAt(state, state.ctr));
  return t;
}

Result<uint32_t> Scheme3Client::counter(std::string_view keyword) const {
  Bytes token;
  SSE_ASSIGN_OR_RETURN(token, Token(keyword));
  return StateFor(token).ctr;
}

Status Scheme3Client::Store(const std::vector<Document>& docs) {
  if (docs.empty()) return Status::OK();
  for (const Document& doc : docs) {
    if (used_ids_.count(doc.id) > 0) {
      return Status::AlreadyExists("document id " + std::to_string(doc.id) +
                                   " was already stored");
    }
  }
  std::map<std::string, std::vector<uint64_t>> by_keyword;
  for (const Document& doc : docs) {
    for (const std::string& kw : doc.keywords) {
      by_keyword[kw].push_back(doc.id);
    }
  }
  std::vector<PendingUpdate> updates;
  updates.reserve(by_keyword.size());
  for (auto& [kw, ids] : by_keyword) {
    updates.push_back(PendingUpdate{kw, index::Canonicalize(std::move(ids))});
  }
  SSE_RETURN_IF_ERROR(RunUpdateProtocol(updates, docs));
  for (const Document& doc : docs) used_ids_.insert(doc.id);
  return Status::OK();
}

Status Scheme3Client::FakeUpdate(const std::vector<std::string>& keywords) {
  const std::set<std::string> unique(keywords.begin(), keywords.end());
  std::vector<PendingUpdate> updates;
  updates.reserve(unique.size());
  for (const std::string& kw : unique) {
    updates.push_back(PendingUpdate{kw, {}});  // empty delta
  }
  return RunUpdateProtocol(updates, /*documents=*/{});
}

Status Scheme3Client::RunUpdateProtocol(
    const std::vector<PendingUpdate>& updates,
    const std::vector<Document>& documents) {
  const bool batched = options_.batch_ops && !updates.empty();

  std::vector<S3UpdateEntry> entries;
  entries.reserve(updates.size());
  for (const PendingUpdate& u : updates) {
    Bytes token;
    SSE_ASSIGN_OR_RETURN(token, Token(u.keyword));
    KeywordState& state = StateFor(token);
    if (state.ctr >= options_.chain_length) {
      return Status::ResourceExhausted(
          "keyword's forward-private chain exhausted after " +
          std::to_string(state.ctr) + " updates");
    }
    // Burn the counter now: an ambiguous failure below may still have
    // applied server-side, and reusing it with different content would
    // shadow the stored entry.
    ++state.ctr;
    Bytes key;
    SSE_ASSIGN_OR_RETURN(key, ChainKeyAt(state, state.ctr));

    S3UpdateEntry entry;
    SSE_ASSIGN_OR_RETURN(entry.address, crypto::HashChain::Tag(key));
    Bytes plain;
    SSE_ASSIGN_OR_RETURN(plain, index::EncodeIdList(u.ids));
    Result<crypto::StreamCipher> cipher = crypto::StreamCipher::Create(key);
    if (!cipher.ok()) return cipher.status();
    SSE_ASSIGN_OR_RETURN(entry.ciphertext, cipher->Encrypt(plain, *rng_));
    entries.push_back(std::move(entry));
  }

  std::vector<WireDocument> wire_docs;
  wire_docs.reserve(documents.size());
  for (const Document& doc : documents) {
    WireDocument wire;
    wire.id = doc.id;
    SSE_ASSIGN_OR_RETURN(wire.ciphertext,
                         aead_.Seal(doc.content, EncodeDocId(doc.id), *rng_));
    wire_docs.push_back(std::move(wire));
  }

  if (batched) {
    // One op per keyword, pipelined through MultiCall; documents ride with
    // the first op (the server extracts them before routing).
    std::vector<net::Message> round;
    round.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      S3UpdateRequest one;
      one.entries.push_back(std::move(entries[i]));
      if (i == 0) one.documents = std::move(wire_docs);
      round.push_back(one.ToMessage());
    }
    std::vector<Result<net::Message>> replies = channel_->MultiCall(round);
    for (Result<net::Message>& ack_msg : replies) {
      if (!ack_msg.ok()) return ack_msg.status();
      S3UpdateAck ack;
      SSE_ASSIGN_OR_RETURN(ack, S3UpdateAck::FromMessage(*ack_msg));
      if (ack.entries_added != 1) {
        return Status::ProtocolError("server acknowledged wrong entry count");
      }
    }
    return Status::OK();
  }

  S3UpdateRequest req;
  req.entries = std::move(entries);
  req.documents = std::move(wire_docs);
  net::Message ack_msg;
  SSE_ASSIGN_OR_RETURN(ack_msg, channel_->Call(req.ToMessage()));
  S3UpdateAck ack;
  SSE_ASSIGN_OR_RETURN(ack, S3UpdateAck::FromMessage(ack_msg));
  if (ack.entries_added != req.entries.size()) {
    return Status::ProtocolError("server acknowledged wrong entry count");
  }
  return Status::OK();
}

Result<SearchOutcome> Scheme3Client::Search(std::string_view keyword) {
  Bytes token;
  SSE_ASSIGN_OR_RETURN(token, Token(keyword));
  KeywordState& state = StateFor(token);
  if (state.ctr == 0) {
    // Never updated: nothing searchable exists and no trapdoor need be
    // released (a keyword the server has never seen stays unseen).
    last_chain_steps_ = 0;
    last_entries_ = 0;
    return SearchOutcome{};
  }
  S3SearchRequest req;
  req.counter = state.ctr;
  SSE_ASSIGN_OR_RETURN(req.chain_element, ChainKeyAt(state, state.ctr));

  net::Message reply_msg;
  SSE_ASSIGN_OR_RETURN(reply_msg, channel_->Call(req.ToMessage()));
  return ParseSearchResult(reply_msg);
}

Result<SearchOutcome> Scheme3Client::ParseSearchResult(
    const net::Message& msg) {
  S3SearchResult result;
  SSE_ASSIGN_OR_RETURN(result, S3SearchResult::FromMessage(msg));
  last_chain_steps_ = result.chain_steps;
  last_entries_ = result.entries_decrypted;

  SearchOutcome outcome;
  if (!result.found) return outcome;
  outcome.ids = result.ids;
  std::sort(outcome.ids.begin(), outcome.ids.end());
  outcome.documents.reserve(result.documents.size());
  for (const WireDocument& wire : result.documents) {
    Bytes plain;
    SSE_ASSIGN_OR_RETURN(plain,
                         aead_.Open(wire.ciphertext, EncodeDocId(wire.id)));
    outcome.documents.emplace_back(wire.id, std::move(plain));
  }
  return outcome;
}

Result<std::vector<SearchOutcome>> Scheme3Client::MultiSearch(
    const std::vector<std::string>& keywords) {
  if (!options_.batch_ops) return SseClientInterface::MultiSearch(keywords);
  const size_t n = keywords.size();
  std::vector<SearchOutcome> outcomes(n);
  if (n == 0) return outcomes;

  // One round: never-updated keywords resolve locally (empty outcome), the
  // rest pipeline through a single MultiCall.
  std::vector<net::Message> round;
  std::vector<size_t> positions;  // round[i] answers keywords[positions[i]]
  for (size_t i = 0; i < n; ++i) {
    Bytes token;
    SSE_ASSIGN_OR_RETURN(token, Token(keywords[i]));
    KeywordState& state = StateFor(token);
    if (state.ctr == 0) continue;
    S3SearchRequest req;
    req.counter = state.ctr;
    SSE_ASSIGN_OR_RETURN(req.chain_element, ChainKeyAt(state, state.ctr));
    round.push_back(req.ToMessage());
    positions.push_back(i);
  }
  if (round.empty()) return outcomes;
  std::vector<Result<net::Message>> replies = channel_->MultiCall(round);
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].ok()) return replies[i].status();
    SSE_ASSIGN_OR_RETURN(outcomes[positions[i]],
                         ParseSearchResult(*replies[i]));
  }
  return outcomes;
}

Bytes Scheme3Client::SerializeState() const {
  BufferWriter w;
  w.PutVarint(states_.size());
  for (const auto& [hex, state] : states_) {
    w.PutBytes(state.token);
    w.PutU32(state.ctr);
  }
  w.PutVarint(used_ids_.size());
  for (uint64_t id : used_ids_) w.PutVarint(id);
  return w.TakeData();
}

Status Scheme3Client::RestoreState(BytesView data) {
  BufferReader r(data);
  uint64_t keyword_count = 0;
  SSE_ASSIGN_OR_RETURN(keyword_count, r.GetVarint());
  if (keyword_count > data.size()) {
    return Status::Corruption("keyword count exceeds payload");
  }
  std::map<std::string, KeywordState> states;
  for (uint64_t i = 0; i < keyword_count; ++i) {
    KeywordState state;
    SSE_ASSIGN_OR_RETURN(state.token, r.GetBytes());
    SSE_ASSIGN_OR_RETURN(state.ctr, r.GetU32());
    if (state.ctr > options_.chain_length) {
      return Status::Corruption("restored counter exceeds chain length");
    }
    states[HexEncode(state.token)] = std::move(state);
  }
  uint64_t count = 0;
  SSE_ASSIGN_OR_RETURN(count, r.GetVarint());
  if (count > data.size()) {
    return Status::Corruption("used-id count exceeds payload");
  }
  std::set<uint64_t> used_ids;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    SSE_ASSIGN_OR_RETURN(id, r.GetVarint());
    used_ids.insert(id);
  }
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  states_ = std::move(states);  // memos reset with the map
  used_ids_ = std::move(used_ids);
  return Status::OK();
}

}  // namespace sse::core
