#include "sse/crypto/hash_chain.h"

#include <array>

#include "sse/crypto/evp_cache.h"
#include "sse/crypto/sha256.h"

namespace sse::crypto {

namespace {

const char kStepLabel[] = "sse.chain.step";
const char kTagLabel[] = "sse.chain.tag";

using Digest = std::array<uint8_t, kSha256DigestSize>;

// This thread's SHA-256 midstates after absorbing each label. f and f'
// copy one and hash the element, so a step is one compression of
// label || element with no allocation and no algorithm fetch.
struct LabelMidstates {
  evp::MdCtx step = evp::NewMidstate(AsBytes(kStepLabel));
  evp::MdCtx tag = evp::NewMidstate(AsBytes(kTagLabel));
};

const LabelMidstates& Midstates() {
  thread_local const LabelMidstates midstates;
  return midstates;
}

// Replaces `element` by f(element), in place once it is digest-sized (any
// seed length is accepted for the first step).
Status StepInPlace(const EVP_MD_CTX* step, Bytes& element) {
  if (element.size() == kSha256DigestSize) {
    return evp::DigestFrom(step, element, element.data());
  }
  Digest next;
  SSE_RETURN_IF_ERROR(evp::DigestFrom(step, element, next.data()));
  element.assign(next.begin(), next.end());
  return Status::OK();
}

}  // namespace

Result<HashChain> HashChain::Create(BytesView seed, uint32_t length) {
  if (seed.size() < 16) {
    return Status::InvalidArgument("hash chain seed must be >= 16 bytes");
  }
  if (length == 0) {
    return Status::InvalidArgument("hash chain length must be > 0");
  }
  return HashChain(ToBytes(seed), length);
}

Result<Bytes> HashChain::Step(BytesView element) {
  Bytes next(kSha256DigestSize);
  SSE_RETURN_IF_ERROR(
      evp::DigestFrom(Midstates().step.get(), element, next.data()));
  return next;
}

Result<Bytes> HashChain::StepN(BytesView element, uint32_t n) {
  const EVP_MD_CTX* step = Midstates().step.get();
  Bytes out = ToBytes(element);
  for (uint32_t i = 0; i < n; ++i) {
    SSE_RETURN_IF_ERROR(StepInPlace(step, out));
  }
  return out;
}

Result<Bytes> HashChain::Tag(BytesView element) {
  Bytes tag(kSha256DigestSize);
  SSE_RETURN_IF_ERROR(
      evp::DigestFrom(Midstates().tag.get(), element, tag.data()));
  return tag;
}

Result<Bytes> HashChain::ElementAt(uint32_t index) const {
  if (index >= length_) {
    return Status::OutOfRange("chain index " + std::to_string(index) +
                              " >= length " + std::to_string(length_));
  }
  return StepN(seed_, index);
}

Result<Bytes> HashChain::KeyForCounter(uint32_t ctr) const {
  if (ctr == 0) {
    return Status::InvalidArgument("chain counter starts at 1");
  }
  if (ctr > length_) {
    return Status::ResourceExhausted(
        "hash chain exhausted: counter " + std::to_string(ctr) +
        " exceeds chain length " + std::to_string(length_) +
        "; re-initialize the index with a fresh seed");
  }
  // ctr = 1 -> element l-1 (deepest usable), ctr = l -> element 0 (seed).
  return ElementAt(length_ - ctr);
}

Result<HashChain::WalkResult> HashChain::WalkForwardToTag(BytesView start,
                                                          BytesView target_tag,
                                                          uint32_t max_steps) {
  const LabelMidstates& midstates = Midstates();
  Bytes element = ToBytes(start);
  Digest tag;
  for (uint32_t steps = 0; steps <= max_steps; ++steps) {
    SSE_RETURN_IF_ERROR(
        evp::DigestFrom(midstates.tag.get(), element, tag.data()));
    if (ConstantTimeEqual(tag, target_tag)) {
      return WalkResult{std::move(element), steps};
    }
    if (steps < max_steps) {
      SSE_RETURN_IF_ERROR(StepInPlace(midstates.step.get(), element));
    }
  }
  return Status::NotFound("no chain element matched the tag within " +
                          std::to_string(max_steps) + " steps");
}

}  // namespace sse::crypto
