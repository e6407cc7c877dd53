#include "sse/crypto/prf.h"

#include <gtest/gtest.h>

#include <set>

#include "sse/util/random.h"

namespace sse::crypto {
namespace {

Bytes TestKey(uint8_t fill = 0x42) { return Bytes(32, fill); }

TEST(PrfTest, HmacKnownVector) {
  // RFC 4231 test case 2: key "Jefe", data "what do ya want for nothing?".
  auto mac = HmacSha256(StringToBytes("Jefe"),
                        StringToBytes("what do ya want for nothing?"));
  ASSERT_TRUE(mac.ok());
  EXPECT_EQ(HexEncode(*mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(PrfTest, HmacRfc4231Case6LongKey) {
  // A key longer than the SHA-256 block is hashed first (RFC 2104).
  auto mac = HmacSha256(
      Bytes(131, 0xaa),
      StringToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  ASSERT_TRUE(mac.ok());
  EXPECT_EQ(HexEncode(*mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(PrfTest, CreateRejectsShortKeys) {
  EXPECT_FALSE(Prf::Create(Bytes(15, 1)).ok());
  EXPECT_TRUE(Prf::Create(Bytes(16, 1)).ok());
}

TEST(PrfTest, Deterministic) {
  auto prf = Prf::Create(TestKey());
  ASSERT_TRUE(prf.ok());
  auto a = prf->Eval(StringToBytes("diabetes"));
  auto b = prf->Eval(StringToBytes("diabetes"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->size(), kPrfOutputSize);
}

TEST(PrfTest, DifferentInputsDifferentOutputs) {
  auto prf = Prf::Create(TestKey());
  ASSERT_TRUE(prf.ok());
  std::set<std::string> outputs;
  for (int i = 0; i < 100; ++i) {
    auto out = prf->Eval("keyword" + std::to_string(i));
    ASSERT_TRUE(out.ok());
    outputs.insert(HexEncode(*out));
  }
  EXPECT_EQ(outputs.size(), 100u);
}

TEST(PrfTest, DifferentKeysDifferentOutputs) {
  auto a = Prf::Create(TestKey(1));
  auto b = Prf::Create(TestKey(2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a->Eval(StringToBytes("x")), *b->Eval(StringToBytes("x")));
}

TEST(PrfTest, LabeledEvalSeparatesDomains) {
  auto prf = Prf::Create(TestKey());
  ASSERT_TRUE(prf.ok());
  auto t1 = prf->EvalLabeled("s1.token", StringToBytes("w"));
  auto t2 = prf->EvalLabeled("s2.token", StringToBytes("w"));
  auto plain = prf->Eval(StringToBytes("w"));
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(*t1, *t2);
  EXPECT_NE(*t1, *plain);
}

TEST(PrfTest, LabeledEvalNotConfusableByConcat) {
  // EvalLabeled("ab", "c") must differ from EvalLabeled("a", "bc"):
  // the 0x00 separator prevents ambiguity.
  auto prf = Prf::Create(TestKey());
  ASSERT_TRUE(prf.ok());
  auto a = prf->EvalLabeled("ab", StringToBytes("c"));
  auto b = prf->EvalLabeled("a", StringToBytes("bc"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  // The labeled input is exactly label || 0x00 || input.
  const Bytes framed = {'a', 0x00, 'b', 'c'};
  EXPECT_EQ(*b, *prf->Eval(framed));
}

TEST(PrfTest, StringAndBytesOverloadsAgree) {
  auto prf = Prf::Create(TestKey());
  ASSERT_TRUE(prf.ok());
  EXPECT_EQ(*prf->Eval("hello"), *prf->Eval(StringToBytes("hello")));
}

}  // namespace
}  // namespace sse::crypto
