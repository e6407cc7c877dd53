#include "sse/crypto/stream_cipher.h"

#include "sse/crypto/evp_cache.h"

namespace sse::crypto {

Result<StreamCipher> StreamCipher::Create(BytesView key) {
  if (key.size() < 16) {
    return Status::InvalidArgument("StreamCipher key must be >= 16 bytes");
  }
  StreamCipher cipher;
  SSE_RETURN_IF_ERROR(evp::HkdfInto(key, /*salt=*/{}, "sse.stream_cipher.v1",
                                    cipher.subkeys_));
  return cipher;
}

Result<Bytes> StreamCipher::Encrypt(BytesView plaintext,
                                    RandomSource& rng) const {
  // Layout iv(16) || ct || tag(32), built in the one output buffer.
  Bytes out;
  out.reserve(plaintext.size() + kStreamOverhead);
  out.resize(kStreamIvSize);
  SSE_RETURN_IF_ERROR(rng.Fill(out));
  out.resize(plaintext.size() + kStreamOverhead);
  SSE_RETURN_IF_ERROR(evp::AesCtr(enc_key(), out.data(), plaintext,
                                  out.data() + kStreamIvSize));
  const size_t body_len = kStreamIvSize + plaintext.size();
  // tag = HMAC(mac_key, iv || ct).
  SSE_RETURN_IF_ERROR(evp::HmacInto(
      mac_key(), {BytesView(out).subspan(0, body_len)}, out.data() + body_len));
  return out;
}

Result<Bytes> StreamCipher::Decrypt(BytesView ciphertext) const {
  if (ciphertext.size() < kStreamOverhead) {
    return Status::CryptoError("stream ciphertext too short");
  }
  const size_t body_len = ciphertext.size() - kStreamTagSize;
  BytesView body = ciphertext.subspan(0, body_len);
  BytesView tag = ciphertext.subspan(body_len);
  std::array<uint8_t, kStreamTagSize> expected;
  SSE_RETURN_IF_ERROR(evp::HmacInto(mac_key(), {body}, expected.data()));
  if (!ConstantTimeEqual(expected, tag)) {
    return Status::CryptoError("stream cipher MAC mismatch");
  }
  BytesView ct = body.subspan(kStreamIvSize);
  Bytes out(ct.size());
  SSE_RETURN_IF_ERROR(
      evp::AesCtr(enc_key(), body.data(), ct, out.data()));
  return out;
}

}  // namespace sse::crypto
