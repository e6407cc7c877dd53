#include "sse/crypto/evp_cache.h"

#include <openssl/core_names.h>
#include <openssl/params.h>

#include "sse/crypto/sha256.h"
#include "sse/obs/metrics_registry.h"

namespace sse::crypto::evp {

namespace {

struct CipherCtxFree {
  void operator()(EVP_CIPHER_CTX* ctx) const { EVP_CIPHER_CTX_free(ctx); }
};
using CipherCtx = std::unique_ptr<EVP_CIPHER_CTX, CipherCtxFree>;

// AES-256-CTR, fetched on first use and kept for the process. Null if the
// provider has no such algorithm (every call then fails).
const EVP_CIPHER* Aes256Ctr() {
  static EVP_CIPHER* const cipher =
      EVP_CIPHER_fetch(nullptr, "AES-256-CTR", nullptr);
  return cipher;
}

EVP_MD_CTX* ThreadWorkCtx() {
  thread_local MdCtx work(EVP_MD_CTX_new());
  return work.get();
}

// Bound to AES-256-CTR once; each call only re-keys it.
EVP_CIPHER_CTX* ThreadCipherCtx() {
  thread_local CipherCtx ctx = [] {
    CipherCtx c(EVP_CIPHER_CTX_new());
    if (c != nullptr && (Aes256Ctr() == nullptr ||
                         EVP_EncryptInit_ex2(c.get(), Aes256Ctr(), nullptr,
                                             nullptr, nullptr) != 1)) {
      c.reset();
    }
    return c;
  }();
  return ctx.get();
}

}  // namespace

const EVP_MD* FetchedSha256() {
  static EVP_MD* const md = EVP_MD_fetch(nullptr, "SHA256", nullptr);
  return md;
}

MdCtx NewMidstate(BytesView prefix) {
  MdCtx ctx(EVP_MD_CTX_new());
  if (ctx == nullptr || FetchedSha256() == nullptr ||
      EVP_DigestInit_ex2(ctx.get(), FetchedSha256(), nullptr) != 1 ||
      EVP_DigestUpdate(ctx.get(), prefix.data(), prefix.size()) != 1) {
    return nullptr;
  }
  return ctx;
}

Status DigestFrom(const EVP_MD_CTX* midstate, BytesView data, uint8_t* out) {
  EVP_MD_CTX* work = ThreadWorkCtx();
  unsigned int len = 0;
  if (midstate == nullptr || work == nullptr ||
      EVP_MD_CTX_copy_ex(work, midstate) != 1 ||
      EVP_DigestUpdate(work, data.data(), data.size()) != 1 ||
      EVP_DigestFinal_ex(work, out, &len) != 1 || len != kSha256DigestSize) {
    return Status::CryptoError("SHA-256 from midstate failed");
  }
  return Status::OK();
}

Status Digest(BytesView a, BytesView b, uint8_t* out) {
  EVP_MD_CTX* work = ThreadWorkCtx();
  unsigned int len = 0;
  if (work == nullptr || FetchedSha256() == nullptr ||
      EVP_DigestInit_ex2(work, FetchedSha256(), nullptr) != 1 ||
      EVP_DigestUpdate(work, a.data(), a.size()) != 1 ||
      EVP_DigestUpdate(work, b.data(), b.size()) != 1 ||
      EVP_DigestFinal_ex(work, out, &len) != 1 || len != kSha256DigestSize) {
    return Status::CryptoError("SHA-256 failed");
  }
  return Status::OK();
}

Hmac::Hmac() : ctx_(nullptr) {
  static EVP_MAC* const mac = EVP_MAC_fetch(nullptr, "HMAC", nullptr);
  if (mac == nullptr) return;
  ctx_ = EVP_MAC_CTX_new(mac);
  char digest[] = "SHA256";
  OSSL_PARAM params[] = {
      OSSL_PARAM_construct_utf8_string(OSSL_MAC_PARAM_DIGEST, digest, 0),
      OSSL_PARAM_construct_end()};
  if (ctx_ != nullptr && EVP_MAC_CTX_set_params(ctx_, params) != 1) {
    EVP_MAC_CTX_free(ctx_);
    ctx_ = nullptr;
  }
}

Hmac::~Hmac() { EVP_MAC_CTX_free(ctx_); }

Status Hmac::SetKey(BytesView key) {
  // A null key pointer means "keep the current key" to EVP_MAC_init, so an
  // empty key still passes a valid address.
  static const uint8_t kNoKeyBytes = 0;
  const uint8_t* data = key.empty() ? &kNoKeyBytes : key.data();
  if (ctx_ == nullptr || EVP_MAC_init(ctx_, data, key.size(), nullptr) != 1) {
    return Status::CryptoError("HMAC-SHA256 key setup failed");
  }
  return Status::OK();
}

Status Hmac::Mac(std::optional<BytesView> key,
                 std::initializer_list<BytesView> parts, uint8_t* out) {
  // One relaxed load when timing is off (the default) — the gate keeps
  // per-op instrumentation out of the search hot path's budget.
  obs::ScopedCryptoTimer timer(obs::CryptoTimers::Global().prf);
  if (key.has_value()) {
    SSE_RETURN_IF_ERROR(SetKey(*key));
  } else if (ctx_ == nullptr ||
             EVP_MAC_init(ctx_, nullptr, 0, nullptr) != 1) {
    return Status::CryptoError("HMAC-SHA256 restart failed");
  }
  for (BytesView part : parts) {
    if (EVP_MAC_update(ctx_, part.data(), part.size()) != 1) {
      return Status::CryptoError("HMAC-SHA256 update failed");
    }
  }
  size_t len = 0;
  if (EVP_MAC_final(ctx_, out, &len, kSha256DigestSize) != 1 ||
      len != kSha256DigestSize) {
    return Status::CryptoError("HMAC-SHA256 failed");
  }
  return Status::OK();
}

Hmac& ThreadHmac() {
  thread_local Hmac hmac;
  return hmac;
}

Status HmacInto(BytesView key, std::initializer_list<BytesView> parts,
                uint8_t* out) {
  return ThreadHmac().Mac(key, parts, out);
}

Status AesCtr(const uint8_t* key, const uint8_t* iv, BytesView in,
              uint8_t* out) {
  EVP_CIPHER_CTX* ctx = ThreadCipherCtx();
  if (ctx == nullptr ||
      EVP_EncryptInit_ex2(ctx, nullptr, key, iv, nullptr) != 1) {
    return Status::CryptoError("CTR init failed");
  }
  int len = 0;
  if (!in.empty() &&
      (EVP_EncryptUpdate(ctx, out, &len, in.data(),
                         static_cast<int>(in.size())) != 1 ||
       static_cast<size_t>(len) != in.size())) {
    return Status::CryptoError("CTR update failed");
  }
  return Status::OK();
}

}  // namespace sse::crypto::evp
