#include "sse/core/scheme2_client.h"

#include <algorithm>
#include <map>

#include "sse/crypto/hash_chain.h"
#include "sse/crypto/hkdf.h"
#include "sse/crypto/stream_cipher.h"
#include "sse/index/posting.h"
#include "sse/util/serde.h"

namespace sse::core {

namespace {
constexpr const char* kTokenLabel = "s2.token";
constexpr const char* kChainLabel = "s2.chain";
}  // namespace

Scheme2Client::Scheme2Client(crypto::Prf prf, crypto::Aead aead,
                             const SchemeOptions& options,
                             net::Channel* channel, RandomSource* rng)
    : prf_(std::move(prf)),
      aead_(std::move(aead)),
      options_(options),
      channel_(channel),
      rng_(rng) {}

Result<std::unique_ptr<Scheme2Client>> Scheme2Client::Create(
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
  return std::unique_ptr<Scheme2Client>(
      new Scheme2Client(std::move(prf).value(), std::move(aead).value(),
                        options, channel, rng));
}

Result<Bytes> Scheme2Client::Token(std::string_view keyword) const {
  return prf_.EvalLabeled(kTokenLabel, StringToBytes(keyword));
}

Result<Bytes> Scheme2Client::ChainSeed(BytesView token, uint32_t epoch) const {
  BufferWriter w;
  w.PutU32(epoch);
  w.PutRaw(token);
  return prf_.EvalLabeled(kChainLabel, w.data());
}

Result<Bytes> Scheme2Client::ChainKeyAt(BytesView token, uint32_t epoch,
                                        uint32_t ctr) const {
  if (ctr == 0 || ctr > options_.chain_length) {
    return Status::ResourceExhausted(
        "chain counter " + std::to_string(ctr) + " outside [1, " +
        std::to_string(options_.chain_length) + "]");
  }
  // Memo fast paths. Element index is l - ctr, so a *smaller* requested
  // counter lies forward (more hash applications) of the memoized element.
  const std::string memo_key = HexEncode(token);
  auto it = chain_memo_.find(memo_key);
  if (it != chain_memo_.end() && it->second.epoch == epoch) {
    const ChainMemo& memo = it->second;
    if (memo.ctr == ctr) return memo.element;
    if (ctr < memo.ctr) {
      return crypto::HashChain::StepN(memo.element, memo.ctr - ctr);
    }
    // ctr > memo.ctr: deeper toward the seed; fall through to recompute
    // (and refresh the memo, since counters only grow over time).
  }
  Bytes seed;
  SSE_ASSIGN_OR_RETURN(seed, ChainSeed(token, epoch));
  crypto::HashChain chain =
      crypto::HashChain::Create(seed, options_.chain_length).value();
  Bytes element;
  SSE_ASSIGN_OR_RETURN(element, chain.KeyForCounter(ctr));
  chain_memo_[memo_key] = ChainMemo{epoch, ctr, element};
  return element;
}

Result<Scheme2Client::Trapdoor> Scheme2Client::MakeTrapdoor(
    std::string_view keyword) const {
  Trapdoor t;
  SSE_ASSIGN_OR_RETURN(t.token, Token(keyword));
  // Before any counted update the chain is untouched; use the ctr=1
  // element, which is the deepest any future segment key can sit.
  const uint32_t effective_ctr = ctr_ == 0 ? 1 : ctr_;
  SSE_ASSIGN_OR_RETURN(t.chain_element,
                       ChainKeyAt(t.token, epoch_, effective_ctr));
  return t;
}

Result<uint32_t> Scheme2Client::NextUpdateCounter() {
  // Optimization 2: reuse the previous counter unless a search happened
  // since the last update (the server has not seen that key yet, so
  // reusing it leaks nothing and spends no chain element).
  const bool must_increment =
      !options_.counter_after_search_only || searched_since_update_ || ctr_ == 0;
  if (must_increment) {
    if (ctr_ >= options_.chain_length) {
      return Status::ResourceExhausted(
          "pseudo-random chain exhausted after " + std::to_string(ctr_) +
          " counted updates; call Reinitialize()");
    }
    ++ctr_;
    searched_since_update_ = false;
  }
  return ctr_;
}

Status Scheme2Client::Store(const std::vector<Document>& docs) {
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

Status Scheme2Client::FakeUpdate(const std::vector<std::string>& keywords) {
  // Deduplicate for wire economy (duplicates would be harmless here, but
  // mirror Scheme 1's contract: one entry per keyword per protocol run).
  const std::set<std::string> unique(keywords.begin(), keywords.end());
  std::vector<PendingUpdate> updates;
  updates.reserve(unique.size());
  for (const std::string& kw : unique) {
    updates.push_back(PendingUpdate{kw, {}});  // empty I_j(w)
  }
  return RunUpdateProtocol(updates, /*documents=*/{});
}

Status Scheme2Client::RunUpdateProtocol(
    const std::vector<PendingUpdate>& updates,
    const std::vector<Document>& documents) {
  uint32_t update_ctr = 0;
  SSE_ASSIGN_OR_RETURN(update_ctr, NextUpdateCounter());
  const bool batched = options_.batch_ops && !updates.empty();

  std::vector<S2UpdateEntry> entries;
  entries.reserve(updates.size());
  for (const PendingUpdate& u : updates) {
    S2UpdateEntry entry;
    SSE_ASSIGN_OR_RETURN(entry.token, Token(u.keyword));
    Bytes key;
    SSE_ASSIGN_OR_RETURN(key, ChainKeyAt(entry.token, epoch_, update_ctr));

    Bytes plain;
    SSE_ASSIGN_OR_RETURN(plain, index::EncodeIdList(u.ids));
    Result<crypto::StreamCipher> cipher = crypto::StreamCipher::Create(key);
    if (!cipher.ok()) return cipher.status();
    SSE_ASSIGN_OR_RETURN(entry.segment.ciphertext,
                         cipher->Encrypt(plain, *rng_));
    SSE_ASSIGN_OR_RETURN(entry.segment.tag, crypto::HashChain::Tag(key));
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
      S2UpdateRequest one;
      one.entries.push_back(std::move(entries[i]));
      if (i == 0) one.documents = std::move(wire_docs);
      round.push_back(one.ToMessage());
    }
    std::vector<Result<net::Message>> replies = channel_->MultiCall(round);
    for (Result<net::Message>& ack_msg : replies) {
      if (!ack_msg.ok()) return ack_msg.status();
      S2UpdateAck ack;
      SSE_ASSIGN_OR_RETURN(ack, S2UpdateAck::FromMessage(*ack_msg));
      if (ack.keywords_updated != 1) {
        return Status::ProtocolError("server acknowledged wrong keyword count");
      }
    }
    return Status::OK();
  }

  S2UpdateRequest req;
  req.entries = std::move(entries);
  req.documents = std::move(wire_docs);
  net::Message ack_msg;
  SSE_ASSIGN_OR_RETURN(ack_msg, channel_->Call(req.ToMessage()));
  S2UpdateAck ack;
  SSE_ASSIGN_OR_RETURN(ack, S2UpdateAck::FromMessage(ack_msg));
  if (ack.keywords_updated != req.entries.size()) {
    return Status::ProtocolError("server acknowledged wrong keyword count");
  }
  return Status::OK();
}

Result<SearchOutcome> Scheme2Client::Search(std::string_view keyword) {
  Trapdoor trapdoor;
  SSE_ASSIGN_OR_RETURN(trapdoor, MakeTrapdoor(keyword));
  S2SearchRequest req;
  req.token = std::move(trapdoor.token);
  req.chain_element = std::move(trapdoor.chain_element);

  net::Message reply_msg;
  SSE_ASSIGN_OR_RETURN(reply_msg, channel_->Call(req.ToMessage()));
  searched_since_update_ = true;
  return ParseSearchResult(reply_msg);
}

Result<SearchOutcome> Scheme2Client::ParseSearchResult(
    const net::Message& msg) {
  S2SearchResult result;
  SSE_ASSIGN_OR_RETURN(result, S2SearchResult::FromMessage(msg));
  last_chain_steps_ = result.chain_steps;
  last_segments_ = result.segments_decrypted;

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

Result<std::vector<SearchOutcome>> Scheme2Client::MultiSearch(
    const std::vector<std::string>& keywords) {
  if (!options_.batch_ops) return SseClientInterface::MultiSearch(keywords);
  const size_t n = keywords.size();
  std::vector<SearchOutcome> outcomes(n);
  if (n == 0) return outcomes;

  // Scheme 2 searches are one round, so all K fit in a single MultiCall.
  std::vector<net::Message> round;
  round.reserve(n);
  for (const std::string& keyword : keywords) {
    Trapdoor trapdoor;
    SSE_ASSIGN_OR_RETURN(trapdoor, MakeTrapdoor(keyword));
    S2SearchRequest req;
    req.token = std::move(trapdoor.token);
    req.chain_element = std::move(trapdoor.chain_element);
    round.push_back(req.ToMessage());
  }
  std::vector<Result<net::Message>> replies = channel_->MultiCall(round);
  searched_since_update_ = true;
  for (size_t i = 0; i < n; ++i) {
    if (!replies[i].ok()) return replies[i].status();
    SSE_ASSIGN_OR_RETURN(outcomes[i], ParseSearchResult(*replies[i]));
  }
  return outcomes;
}

Bytes Scheme2Client::SerializeState() const {
  BufferWriter w;
  w.PutU32(ctr_);
  w.PutU32(epoch_);
  w.PutBool(searched_since_update_);
  w.PutVarint(used_ids_.size());
  for (uint64_t id : used_ids_) w.PutVarint(id);
  return w.TakeData();
}

Status Scheme2Client::RestoreState(BytesView data) {
  BufferReader r(data);
  uint32_t ctr = 0;
  SSE_ASSIGN_OR_RETURN(ctr, r.GetU32());
  uint32_t epoch = 0;
  SSE_ASSIGN_OR_RETURN(epoch, r.GetU32());
  bool searched = false;
  SSE_ASSIGN_OR_RETURN(searched, r.GetBool());
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
  if (ctr > options_.chain_length) {
    return Status::Corruption("restored counter exceeds chain length");
  }
  ctr_ = ctr;
  epoch_ = epoch;
  searched_since_update_ = searched;
  used_ids_ = std::move(used_ids);
  chain_memo_.clear();  // memoized positions may postdate the restored state
  return Status::OK();
}

Status Scheme2Client::Reinitialize() {
  // Round 1: download every keyword's segments.
  net::Message reply_msg;
  SSE_ASSIGN_OR_RETURN(reply_msg,
                       channel_->Call(S2FetchAllRequest{}.ToMessage()));
  S2FetchAllReply dump;
  SSE_ASSIGN_OR_RETURN(dump, S2FetchAllReply::FromMessage(reply_msg));

  // Decrypt and merge every keyword's postings locally, exactly as the
  // server would after a search, but using the old epoch's chain.
  const uint32_t old_epoch = epoch_;
  const uint32_t old_ctr = ctr_ == 0 ? 1 : ctr_;
  const uint32_t new_epoch = epoch_ + 1;

  S2ReinitRequest reinit;
  reinit.entries.reserve(dump.keywords.size());
  for (const S2KeywordDump& kw : dump.keywords) {
    Bytes start;
    SSE_ASSIGN_OR_RETURN(start, ChainKeyAt(kw.token, old_epoch, old_ctr));
    Bytes position = start;
    index::DocIdList ids;
    for (size_t j = kw.segments.size(); j-- > 0;) {
      const S2Segment& seg = kw.segments[j];
      Result<crypto::HashChain::WalkResult> walk_result =
          crypto::HashChain::WalkForwardToTag(position, seg.tag,
                                              options_.chain_length);
      if (!walk_result.ok() &&
          walk_result.status().code() == StatusCode::kNotFound &&
          position != start) {
        // Mirror the server's tolerance for out-of-order segment keys.
        walk_result = crypto::HashChain::WalkForwardToTag(
            start, seg.tag, options_.chain_length);
      }
      if (!walk_result.ok()) return walk_result.status();
      crypto::HashChain::WalkResult walk = std::move(walk_result).value();
      position = walk.element;
      Result<crypto::StreamCipher> cipher =
          crypto::StreamCipher::Create(walk.element);
      if (!cipher.ok()) return cipher.status();
      Bytes plain;
      SSE_ASSIGN_OR_RETURN(plain, cipher->Decrypt(seg.ciphertext));
      index::DocIdList segment_ids;
      SSE_ASSIGN_OR_RETURN(segment_ids, index::DecodeIdList(plain));
      ids = index::MergeIdLists(ids, segment_ids);
    }

    // Re-encrypt the merged list as the single first segment of the new
    // epoch (counter 1).
    S2UpdateEntry entry;
    entry.token = kw.token;
    Bytes key;
    SSE_ASSIGN_OR_RETURN(key, ChainKeyAt(kw.token, new_epoch, 1));
    Bytes plain;
    SSE_ASSIGN_OR_RETURN(plain, index::EncodeIdList(ids));
    Result<crypto::StreamCipher> cipher = crypto::StreamCipher::Create(key);
    if (!cipher.ok()) return cipher.status();
    SSE_ASSIGN_OR_RETURN(entry.segment.ciphertext,
                         cipher->Encrypt(plain, *rng_));
    SSE_ASSIGN_OR_RETURN(entry.segment.tag, crypto::HashChain::Tag(key));
    reinit.entries.push_back(std::move(entry));
  }

  // Round 2: atomically replace the keyword index.
  net::Message ack_msg;
  SSE_ASSIGN_OR_RETURN(ack_msg, channel_->Call(reinit.ToMessage()));
  S2ReinitAck ack;
  SSE_ASSIGN_OR_RETURN(ack, S2ReinitAck::FromMessage(ack_msg));
  if (ack.keywords != reinit.entries.size()) {
    return Status::ProtocolError("reinit acknowledged wrong keyword count");
  }

  epoch_ = new_epoch;
  ctr_ = reinit.entries.empty() ? 0 : 1;
  searched_since_update_ = true;  // next update must take a fresh element
  chain_memo_.clear();            // old-epoch positions are dead weight
  return Status::OK();
}

}  // namespace sse::core
