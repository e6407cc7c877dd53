#include "sse/crypto/hkdf.h"

#include <gtest/gtest.h>

#include "crypto_golden.h"
#include "sse/crypto/prf.h"

namespace sse::crypto {
namespace {

TEST(HkdfTest, Rfc5869TestCase1) {
  // RFC 5869 A.1.
  Bytes ikm(22, 0x0b);
  Bytes salt = *HexDecode("000102030405060708090a0b0c");
  // info = 0xf0f1...f9
  std::string info;
  for (int i = 0; i < 10; ++i) info.push_back(static_cast<char>(0xf0 + i));
  auto okm = HkdfSha256(ikm, salt, info, 42);
  ASSERT_TRUE(okm.ok());
  EXPECT_EQ(HexEncode(*okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, EmptySaltUsesZeroBlock) {
  // RFC 5869 A.3 (salt and info empty).
  Bytes ikm(22, 0x0b);
  auto okm = HkdfSha256(ikm, /*salt=*/{}, "", 42);
  ASSERT_TRUE(okm.ok());
  EXPECT_EQ(HexEncode(*okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, DifferentInfoDifferentKeys) {
  Bytes ikm(32, 7);
  auto a = HkdfSha256(ikm, {}, "purpose-a", 32);
  auto b = HkdfSha256(ikm, {}, "purpose-b", 32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
}

TEST(HkdfTest, LongOutputHasNoRepeatingBlocks) {
  Bytes ikm(32, 9);
  auto okm = HkdfSha256(ikm, {}, "stretch", 256);
  ASSERT_TRUE(okm.ok());
  ASSERT_EQ(okm->size(), 256u);
  // Consecutive 32-byte blocks must differ.
  for (size_t i = 0; i + 64 <= okm->size(); i += 32) {
    Bytes b1(okm->begin() + i, okm->begin() + i + 32);
    Bytes b2(okm->begin() + i + 32, okm->begin() + i + 64);
    EXPECT_NE(b1, b2);
  }
}

TEST(HkdfTest, RejectsInvalidLengths) {
  Bytes ikm(32, 1);
  EXPECT_FALSE(HkdfSha256(ikm, {}, "x", 0).ok());
  EXPECT_FALSE(HkdfSha256(ikm, {}, "x", 255 * 32 + 1).ok());
  EXPECT_TRUE(HkdfSha256(ikm, {}, "x", 255 * 32).ok());
}

TEST(HkdfTest, GoldenStreamCipherSubkeys) {
  // The 64 bytes StreamCipher::Create splits into (enc_key, mac_key).
  auto okm = HkdfSha256(golden::CipherKey(), /*salt=*/{},
                        golden::kCipherHkdfInfo, 64);
  ASSERT_TRUE(okm.ok());
  EXPECT_EQ(HexEncode(*okm), golden::kCipherHkdfHex);
}

TEST(HkdfTest, HmacRfc4231Case2) {
  auto mac = HmacSha256(StringToBytes("Jefe"),
                        StringToBytes("what do ya want for nothing?"));
  ASSERT_TRUE(mac.ok());
  EXPECT_EQ(HexEncode(*mac), golden::kHmacCase2Hex);
}

}  // namespace
}  // namespace sse::crypto
