// The chain and segment primitives keep per-thread hashing state (fetched
// digests, cached label midstates, reusable HMAC/cipher contexts). Engine
// worker threads hash concurrently, so several threads interleaving every
// primitive must each reproduce the single-threaded golden values.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "crypto_golden.h"
#include "sse/crypto/hash_chain.h"
#include "sse/crypto/hkdf.h"
#include "sse/crypto/prf.h"
#include "sse/crypto/sha256.h"
#include "sse/crypto/stream_cipher.h"
#include "sse/util/random.h"

namespace sse::crypto {
namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 3;

// Runs every primitive once against the golden vectors; returns the number
// of mismatches (gtest assertions are not used off the main thread).
int CheckGoldenOnce() {
  int bad = 0;
  auto expect = [&bad](bool ok) { bad += ok ? 0 : 1; };

  expect(HexEncode(*HashChain::Step(golden::StepInput())) == golden::kStepHex);
  expect(HexEncode(*HashChain::Tag(golden::StepInput())) == golden::kTagHex);

  const HashChain chain =
      *HashChain::Create(golden::ChainSeed(), golden::kChainLength);
  const Bytes deepest = *chain.ElementAt(golden::kChainLength - 1);
  expect(HexEncode(deepest) == golden::kElement4095Hex);
  const Bytes start = *chain.KeyForCounter(golden::kWalkStartCounter);
  expect(*HashChain::StepN(start, golden::kWalkSteps) == deepest);
  auto walk = HashChain::WalkForwardToTag(start, *HashChain::Tag(deepest),
                                          golden::kChainLength);
  expect(walk.ok() && walk->element == deepest &&
         walk->steps == golden::kWalkSteps);

  expect(HexEncode(*HkdfSha256(golden::CipherKey(), {},
                               golden::kCipherHkdfInfo, 64)) ==
         golden::kCipherHkdfHex);
  expect(HexEncode(*HmacSha256(StringToBytes("Jefe"),
                               StringToBytes("what do ya want for nothing?"))) ==
         golden::kHmacCase2Hex);

  const StreamCipher cipher = *StreamCipher::Create(golden::CipherKey());
  DeterministicRandom rng(golden::kCiphertextRngSeed);
  expect(HexEncode(*cipher.Encrypt(StringToBytes(golden::kPlaintext), rng)) ==
         golden::kCiphertextHex);
  auto pt = cipher.Decrypt(*HexDecode(golden::kCiphertextHex));
  expect(pt.ok() && BytesToString(*pt) == golden::kPlaintext);
  // A cipher under another key must not decrypt it (no state leaks from the
  // previous key through a reused context).
  const StreamCipher other = *StreamCipher::Create(Bytes(32, 0x43));
  expect(!other.Decrypt(*HexDecode(golden::kCiphertextHex)).ok());
  return bad;
}

TEST(CryptoConcurrencyTest, SingleThreadedGolden) {
  EXPECT_EQ(CheckGoldenOnce(), 0);
}

TEST(CryptoConcurrencyTest, ThreadsReproduceGoldenValues) {
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mismatches] {
      for (int r = 0; r < kRounds; ++r) mismatches += CheckGoldenOnce();
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sse::crypto
