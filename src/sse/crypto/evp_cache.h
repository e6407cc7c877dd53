#ifndef SSE_CRYPTO_EVP_CACHE_H_
#define SSE_CRYPTO_EVP_CACHE_H_

// Internal to sse/crypto. OpenSSL algorithms fetched once per process and
// contexts reused per thread, so the hot primitives (chain step and tag,
// HMAC, HKDF, AES-CTR) pay neither an implicit algorithm fetch nor a context
// allocation per call. Contexts are thread_local because engine worker
// threads hash concurrently; the fetched algorithms are immutable and
// shared.

#include <openssl/evp.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "sse/util/bytes.h"
#include "sse/util/status.h"

namespace sse::crypto::evp {

struct MdCtxFree {
  void operator()(EVP_MD_CTX* ctx) const { EVP_MD_CTX_free(ctx); }
};
using MdCtx = std::unique_ptr<EVP_MD_CTX, MdCtxFree>;

/// SHA-256, fetched on first use and kept for the process. Null if the
/// provider has no such algorithm.
const EVP_MD* FetchedSha256();

/// A SHA-256 context that has absorbed `prefix`: copying it and hashing the
/// rest computes SHA-256(prefix || rest) without re-absorbing the prefix.
/// Null on failure.
MdCtx NewMidstate(BytesView prefix);

/// SHA-256(midstate's prefix || data) into `out` (32 bytes) through this
/// thread's work context. `out` may alias `data`.
Status DigestFrom(const EVP_MD_CTX* midstate, BytesView data, uint8_t* out);

/// SHA-256(a || b) into `out` (32 bytes) through this thread's work
/// context.
Status Digest(BytesView a, BytesView b, uint8_t* out);

/// A reusable HMAC-SHA-256 context. Each Mac is one HMAC computation,
/// timed as one call of the gated `sse_crypto_prf_seconds` histogram.
class Hmac {
 public:
  Hmac();
  ~Hmac();
  Hmac(const Hmac&) = delete;
  Hmac& operator=(const Hmac&) = delete;

  /// Computes `key`'s schedule for later keyless Mac calls.
  Status SetKey(BytesView key);
  /// HMAC(key, parts[0] || parts[1] || ...) into `out` (32 bytes). With no
  /// key, rewinds to the schedule of the last SetKey or keyed Mac, so
  /// several messages under one key share one schedule. `out` may alias a
  /// part.
  Status Mac(std::optional<BytesView> key,
             std::initializer_list<BytesView> parts, uint8_t* out);

 private:
  EVP_MAC_CTX* ctx_;
};

/// This thread's HMAC context for per-call keys. A keyless Mac on it is
/// only meaningful right after the caller's own keyed Mac.
Hmac& ThreadHmac();

/// ThreadHmac().Mac(key, parts, out).
Status HmacInto(BytesView key, std::initializer_list<BytesView> parts,
                uint8_t* out);

/// HKDF-SHA-256 into `out` (out.size() bytes, no allocation); an empty salt
/// takes the zero salt's key schedule, cached per thread. Defined in
/// hkdf.cc; the public HkdfSha256 wraps it.
Status HkdfInto(BytesView ikm, BytesView salt, std::string_view info,
                std::span<uint8_t> out);

/// AES-256-CTR over `in` into `out` (same length) with this thread's cipher
/// context; `key` is 32 bytes and `iv` 16.
Status AesCtr(const uint8_t* key, const uint8_t* iv, BytesView in,
              uint8_t* out);

}  // namespace sse::crypto::evp

#endif  // SSE_CRYPTO_EVP_CACHE_H_
