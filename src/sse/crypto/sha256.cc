#include "sse/crypto/sha256.h"

#include <openssl/evp.h>

#include "sse/crypto/evp_cache.h"

namespace sse::crypto {

Result<Bytes> Sha256(BytesView data) {
  Bytes digest(kSha256DigestSize);
  SSE_RETURN_IF_ERROR(evp::Digest(data, {}, digest.data()));
  return digest;
}

Result<Bytes> Sha256Concat(BytesView a, BytesView b) {
  Bytes digest(kSha256DigestSize);
  SSE_RETURN_IF_ERROR(evp::Digest(a, b, digest.data()));
  return digest;
}

Sha256Hasher::Sha256Hasher() : ctx_(EVP_MD_CTX_new()), active_(false) {}

Sha256Hasher::~Sha256Hasher() {
  EVP_MD_CTX_free(static_cast<EVP_MD_CTX*>(ctx_));
}

Status Sha256Hasher::Init() {
  if (ctx_ == nullptr) return Status::CryptoError("EVP_MD_CTX_new failed");
  if (evp::FetchedSha256() == nullptr ||
      EVP_DigestInit_ex2(static_cast<EVP_MD_CTX*>(ctx_), evp::FetchedSha256(),
                         nullptr) != 1) {
    return Status::CryptoError("EVP_DigestInit_ex2 failed");
  }
  active_ = true;
  return Status::OK();
}

Status Sha256Hasher::Update(BytesView data) {
  if (!active_) SSE_RETURN_IF_ERROR(Init());
  if (EVP_DigestUpdate(static_cast<EVP_MD_CTX*>(ctx_), data.data(),
                       data.size()) != 1) {
    return Status::CryptoError("EVP_DigestUpdate failed");
  }
  return Status::OK();
}

Result<Bytes> Sha256Hasher::Finish() {
  if (!active_) SSE_RETURN_IF_ERROR(Init());
  Bytes digest(kSha256DigestSize);
  unsigned int len = 0;
  if (EVP_DigestFinal_ex(static_cast<EVP_MD_CTX*>(ctx_), digest.data(), &len) !=
          1 ||
      len != kSha256DigestSize) {
    return Status::CryptoError("EVP_DigestFinal_ex failed");
  }
  active_ = false;
  return digest;
}

}  // namespace sse::crypto
