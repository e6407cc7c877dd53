#ifndef SSE_TESTS_CRYPTO_GOLDEN_H_
#define SSE_TESTS_CRYPTO_GOLDEN_H_

// Golden vectors for the chain and segment crypto. They were recorded from
// the straightforward one-shot EVP implementation and pin every byte the
// WAL, snapshots, replication and the wire carry: a faster implementation
// of SHA-256 / HMAC / HKDF / AES-CTR must reproduce them exactly.

#include <cstdint>
#include <numeric>

#include "sse/util/bytes.h"

namespace sse::crypto::golden {

/// The fixed element 00 01 02 ... 1f that Step and Tag are pinned on.
inline Bytes StepInput() {
  Bytes e(32);
  std::iota(e.begin(), e.end(), uint8_t{0});
  return e;
}
inline constexpr const char* kStepHex =
    "6741c0f5d42147f43ca832004eb50b00d8d16c100b3941128bfb12731f5bfd46";
inline constexpr const char* kTagHex =
    "497a989b800d6b60148c3ba5778bfd9edd47ae1456702f7a4bf8d3f660b82e3e";

/// Chain over seed 0x3c * 32 with length 4096; element 4095 is the deepest.
inline Bytes ChainSeed() { return Bytes(32, 0x3c); }
inline constexpr uint32_t kChainLength = 4096;
inline constexpr const char* kElement4095Hex =
    "c540c77d46b2cd39a466af6724588728c3f8d4bca0c87a4aa223ab436ed061f4";
/// Walking from KeyForCounter(100) (index 3996) to Tag(element 4095).
inline constexpr uint32_t kWalkStartCounter = 100;
inline constexpr uint32_t kWalkSteps = 99;

/// HKDF-SHA-256(ikm = 0x42 * 32, zero salt, "sse.stream_cipher.v1", 64):
/// the enc_key || mac_key split behind StreamCipher::Create(0x42 * 32).
inline Bytes CipherKey() { return Bytes(32, 0x42); }
inline constexpr const char* kCipherHkdfInfo = "sse.stream_cipher.v1";
inline constexpr const char* kCipherHkdfHex =
    "4e5f9878e5fa4b57d12cf8dce9f3f7e531750556d194b3bb4368f9a328c89403"
    "6ed37e315290c8178b98a067ee286c9b14f73a271c9d1532e535efff93c98404";

/// StreamCipher::Create(CipherKey()).Encrypt(kPlaintext) with the IV drawn
/// from DeterministicRandom(1): iv(16) || ct(20) || tag(32).
inline constexpr const char* kPlaintext = "posting list segment";
inline constexpr uint64_t kCiphertextRngSeed = 1;
inline constexpr const char* kCiphertextHex =
    "c510c70f6daff2b3ea4c364796553b85d53ae4b892edcccab8f220d880364aa3"
    "54b55ede631fd575c372be24533a62ff7bdad895c5ad2938ff3152c0e08ec242"
    "7d53a564";

/// RFC 4231 test case 2: key "Jefe", data "what do ya want for nothing?".
inline constexpr const char* kHmacCase2Hex =
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";

}  // namespace sse::crypto::golden

#endif  // SSE_TESTS_CRYPTO_GOLDEN_H_
