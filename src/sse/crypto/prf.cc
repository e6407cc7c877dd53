#include "sse/crypto/prf.h"

#include <initializer_list>

#include "sse/crypto/evp_cache.h"

namespace sse::crypto {

namespace {

// HMAC(key, parts[0] || parts[1] || ...) through this thread's reused
// context: no allocation besides the output, no per-call algorithm fetch.
Result<Bytes> HmacParts(BytesView key, std::initializer_list<BytesView> parts) {
  Bytes out(kPrfOutputSize);
  SSE_RETURN_IF_ERROR(evp::HmacInto(key, parts, out.data()));
  return out;
}

}  // namespace

Result<Bytes> HmacSha256(BytesView key, BytesView data) {
  return HmacParts(key, {data});
}

Result<Prf> Prf::Create(BytesView key) {
  if (key.size() < 16) {
    return Status::InvalidArgument("PRF key must be at least 16 bytes");
  }
  return Prf(ToBytes(key));
}

Result<Bytes> Prf::Eval(BytesView input) const { return HmacSha256(key_, input); }

Result<Bytes> Prf::Eval(std::string_view input) const {
  return Eval(AsBytes(input));
}

Result<Bytes> Prf::EvalLabeled(std::string_view label, BytesView input) const {
  static const uint8_t kSeparator = 0x00;
  return HmacParts(key_, {AsBytes(label), BytesView(&kSeparator, 1), input});
}

}  // namespace sse::crypto
