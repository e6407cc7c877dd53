#include "sse/crypto/hash_chain.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "crypto_golden.h"

namespace sse::crypto {
namespace {

Bytes Seed() { return Bytes(32, 0x3c); }

TEST(HashChainTest, CreateValidation) {
  EXPECT_FALSE(HashChain::Create(Bytes(8, 1), 10).ok());  // short seed
  EXPECT_FALSE(HashChain::Create(Seed(), 0).ok());        // zero length
  EXPECT_TRUE(HashChain::Create(Seed(), 1).ok());
}

TEST(HashChainTest, ElementAtMatchesIteratedStep) {
  auto chain = HashChain::Create(Seed(), 16);
  ASSERT_TRUE(chain.ok());
  Bytes manual = Seed();
  for (uint32_t i = 0; i < 16; ++i) {
    auto direct = chain->ElementAt(i);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*direct, manual) << "index " << i;
    manual = *HashChain::Step(manual);
  }
}

TEST(HashChainTest, ElementAtOutOfRange) {
  auto chain = HashChain::Create(Seed(), 4);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->ElementAt(3).ok());
  EXPECT_FALSE(chain->ElementAt(4).ok());
}

TEST(HashChainTest, KeyForCounterWalksBackwards) {
  // ctr=1 must give the deepest usable element (index l-1); ctr=l the seed.
  const uint32_t l = 8;
  auto chain = HashChain::Create(Seed(), l);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(*chain->KeyForCounter(1), *chain->ElementAt(l - 1));
  EXPECT_EQ(*chain->KeyForCounter(l), *chain->ElementAt(0));
  EXPECT_EQ(*chain->KeyForCounter(3), *chain->ElementAt(l - 3));
}

TEST(HashChainTest, KeyForCounterBoundaries) {
  auto chain = HashChain::Create(Seed(), 4);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->KeyForCounter(0).ok());  // counters start at 1
  EXPECT_TRUE(chain->KeyForCounter(4).ok());
  auto exhausted = chain->KeyForCounter(5);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
}

TEST(HashChainTest, ForwardOnlyProperty) {
  // Holding element i, one can compute element i+1 but elements are all
  // distinct (no cycles in practice).
  auto chain = HashChain::Create(Seed(), 32);
  ASSERT_TRUE(chain.ok());
  std::set<std::string> seen;
  for (uint32_t i = 0; i < 32; ++i) {
    seen.insert(HexEncode(*chain->ElementAt(i)));
  }
  EXPECT_EQ(seen.size(), 32u);
}

TEST(HashChainTest, TagDiffersFromElementAndStep) {
  Bytes element = Seed();
  auto tag = HashChain::Tag(element);
  auto step = HashChain::Step(element);
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(step.ok());
  EXPECT_NE(*tag, element);
  EXPECT_NE(*tag, *step);  // domain separation between f and f'
}

TEST(HashChainTest, WalkForwardFindsDeeperElement) {
  const uint32_t l = 20;
  auto chain = HashChain::Create(Seed(), l);
  ASSERT_TRUE(chain.ok());
  // Server holds the element for ctr=9 (index l-9=11) and looks for the
  // key of an update at ctr=4 (index 16): 5 forward steps.
  Bytes start = *chain->KeyForCounter(9);
  Bytes target = *chain->KeyForCounter(4);
  Bytes target_tag = *HashChain::Tag(target);
  auto walk = HashChain::WalkForwardToTag(start, target_tag, l);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk->element, target);
  EXPECT_EQ(walk->steps, 5u);
}

TEST(HashChainTest, WalkForwardZeroSteps) {
  auto chain = HashChain::Create(Seed(), 8);
  ASSERT_TRUE(chain.ok());
  Bytes element = *chain->KeyForCounter(3);
  auto walk = HashChain::WalkForwardToTag(element, *HashChain::Tag(element), 8);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk->steps, 0u);
}

TEST(HashChainTest, WalkForwardCannotReachNewerKeys) {
  // Keys of *future* updates (higher ctr = smaller index) are not reachable
  // walking forward — the core one-wayness the scheme relies on.
  const uint32_t l = 16;
  auto chain = HashChain::Create(Seed(), l);
  ASSERT_TRUE(chain.ok());
  Bytes old_key = *chain->KeyForCounter(3);   // index 13
  Bytes newer_key = *chain->KeyForCounter(7); // index 9 (deeper)
  auto walk =
      HashChain::WalkForwardToTag(old_key, *HashChain::Tag(newer_key), l);
  EXPECT_FALSE(walk.ok());
  EXPECT_EQ(walk.status().code(), StatusCode::kNotFound);
}

TEST(HashChainTest, DifferentSeedsGiveDisjointChains) {
  auto a = HashChain::Create(Bytes(32, 1), 16);
  auto b = HashChain::Create(Bytes(32, 2), 16);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_NE(*a->ElementAt(i), *b->ElementAt(i));
  }
}

TEST(HashChainTest, StepNMatchesIteratedStep) {
  // Zero steps is the identity; a short (16-byte) seed is accepted too.
  for (const Bytes& start : {Seed(), Bytes(16, 0x11)}) {
    EXPECT_EQ(*HashChain::StepN(start, 0), start);
    Bytes manual = start;
    for (uint32_t n = 1; n <= 5; ++n) {
      manual = *HashChain::Step(manual);
      EXPECT_EQ(*HashChain::StepN(start, n), manual) << "n=" << n;
    }
  }
}

TEST(HashChainTest, GoldenStepAndTag) {
  EXPECT_EQ(HexEncode(*HashChain::Step(golden::StepInput())), golden::kStepHex);
  EXPECT_EQ(HexEncode(*HashChain::Tag(golden::StepInput())), golden::kTagHex);
}

TEST(HashChainTest, GoldenDeepestElement) {
  auto chain = HashChain::Create(golden::ChainSeed(), golden::kChainLength);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(HexEncode(*chain->ElementAt(golden::kChainLength - 1)),
            golden::kElement4095Hex);
  EXPECT_EQ(HexEncode(*chain->KeyForCounter(1)), golden::kElement4095Hex);
}

TEST(HashChainTest, GoldenWalkForwardToTag) {
  auto chain = HashChain::Create(golden::ChainSeed(), golden::kChainLength);
  ASSERT_TRUE(chain.ok());
  Bytes start = *chain->KeyForCounter(golden::kWalkStartCounter);
  Bytes target_tag = *HashChain::Tag(*HexDecode(golden::kElement4095Hex));
  auto walk =
      HashChain::WalkForwardToTag(start, target_tag, golden::kChainLength);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(HexEncode(walk->element), golden::kElement4095Hex);
  EXPECT_EQ(walk->steps, golden::kWalkSteps);
}

}  // namespace
}  // namespace sse::crypto
