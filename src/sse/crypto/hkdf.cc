#include "sse/crypto/hkdf.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "sse/crypto/evp_cache.h"

namespace sse::crypto {

namespace {

constexpr size_t kHashLen = 32;

// RFC 5869's default salt is HashLen zero bytes. This thread keys an HMAC
// context with it once; each Extract under it rewinds to that schedule.
struct ZeroSaltHmac {
  evp::Hmac hmac;
  Status keyed = hmac.SetKey(std::array<uint8_t, kHashLen>{});
};

Status CheckOutputLength(size_t out_len) {
  if (out_len == 0) return Status::InvalidArgument("HKDF output length is zero");
  if (out_len > 255 * kHashLen) {
    return Status::InvalidArgument("HKDF output length exceeds 255*32 bytes");
  }
  return Status::OK();
}

Status ExpandInto(BytesView prk, std::string_view info, std::span<uint8_t> out) {
  SSE_RETURN_IF_ERROR(CheckOutputLength(out.size()));
  // T(i) = HMAC(PRK, T(i-1) || info || i), all under one key schedule.
  evp::Hmac& hmac = evp::ThreadHmac();
  std::array<uint8_t, kHashLen> t;
  size_t done = 0;
  for (uint8_t counter = 1; done < out.size(); ++counter) {
    const BytesView index(&counter, 1);
    if (counter == 1) {
      SSE_RETURN_IF_ERROR(hmac.Mac(prk, {AsBytes(info), index}, t.data()));
    } else {
      SSE_RETURN_IF_ERROR(
          hmac.Mac(std::nullopt, {t, AsBytes(info), index}, t.data()));
    }
    const size_t take = std::min(kHashLen, out.size() - done);
    std::memcpy(out.data() + done, t.data(), take);
    done += take;
  }
  return Status::OK();
}

}  // namespace

namespace evp {

Status HkdfInto(BytesView ikm, BytesView salt, std::string_view info,
                std::span<uint8_t> out) {
  // Extract: PRK = HMAC(salt, IKM).
  std::array<uint8_t, kHashLen> prk;
  if (salt.empty()) {
    thread_local ZeroSaltHmac zero_salt;
    SSE_RETURN_IF_ERROR(zero_salt.keyed);
    SSE_RETURN_IF_ERROR(zero_salt.hmac.Mac(std::nullopt, {ikm}, prk.data()));
  } else {
    SSE_RETURN_IF_ERROR(HmacInto(salt, {ikm}, prk.data()));
  }
  return ExpandInto(prk, info, out);
}

}  // namespace evp

Result<Bytes> HkdfSha256(BytesView ikm, BytesView salt, std::string_view info,
                         size_t out_len) {
  SSE_RETURN_IF_ERROR(CheckOutputLength(out_len));
  Bytes out(out_len);
  SSE_RETURN_IF_ERROR(evp::HkdfInto(ikm, salt, info, out));
  return out;
}

Result<Bytes> HkdfExpand(BytesView prk, std::string_view info, size_t out_len) {
  SSE_RETURN_IF_ERROR(CheckOutputLength(out_len));
  Bytes out(out_len);
  SSE_RETURN_IF_ERROR(ExpandInto(prk, info, out));
  return out;
}

}  // namespace sse::crypto
