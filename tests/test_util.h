#ifndef SSE_TESTS_TEST_UTIL_H_
#define SSE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sse/core/registry.h"
#include "sse/crypto/keys.h"
#include "sse/net/channel.h"
#include "sse/util/random.h"
#include "sse/util/status.h"

namespace sse::testing {

/// Asserts a Status/Result is OK with a useful failure message.
/// Copies by value: `expr` is often `temporary_result.status()`, whose
/// referent dies with the temporary at the end of the initializer — a
/// reference here would dangle before the ok() check runs.
#define SSE_ASSERT_OK(expr)                                 \
  do {                                                      \
    const ::sse::Status _st = (expr);                       \
    ASSERT_TRUE(_st.ok()) << "status: " << _st.ToString();  \
  } while (0)

#define SSE_EXPECT_OK(expr)                                 \
  do {                                                      \
    const ::sse::Status _st = (expr);                       \
    EXPECT_TRUE(_st.ok()) << "status: " << _st.ToString();  \
  } while (0)

#define SSE_ASSERT_OK_RESULT(result)                                       \
  ASSERT_TRUE((result).ok()) << "status: " << (result).status().ToString()

#define SSE_EXPECT_OK_RESULT(result)                                       \
  EXPECT_TRUE((result).ok()) << "status: " << (result).status().ToString()

/// Deterministic master key for tests.
inline crypto::MasterKey TestMasterKey(uint64_t seed = 1) {
  DeterministicRandom rng(seed);
  return crypto::MasterKey::Generate(rng).value();
}

/// Scheme options sized for fast tests: small bitmap, short chain, toy
/// ElGamal group.
inline core::SystemConfig FastTestConfig() {
  core::SystemConfig config;
  config.scheme.max_documents = 256;
  config.scheme.chain_length = 64;
  config.scheme.elgamal_group = crypto::ElGamalGroupId::kToy512;
  config.goh.bloom_bits = 2048;
  config.goh.num_keys = 8;
  return config;
}

/// Builds a ready system for tests; aborts the test on failure.
inline core::SseSystem MakeTestSystem(core::SystemKind kind,
                                      RandomSource* rng,
                                      core::SystemConfig config) {
  auto result = core::CreateSystem(kind, TestMasterKey(), config, rng);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

inline core::SseSystem MakeTestSystem(core::SystemKind kind,
                                      RandomSource* rng) {
  return MakeTestSystem(kind, rng, FastTestConfig());
}

/// Echo server: replies with the request's payload under type+1; type 99
/// fails with INTERNAL. Counts calls, from any number of server threads.
class EchoHandler : public net::MessageHandler {
 public:
  Result<net::Message> Handle(const net::Message& request) override {
    calls.fetch_add(1);
    if (request.type == 99) return Status::Internal("handler exploded");
    return net::Message{static_cast<uint16_t>(request.type + 1),
                        request.payload};
  }
  std::atomic<int> calls{0};
};

/// Creates a fresh temp directory and removes it (recursively) at scope
/// exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/sse_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    path_ = dir != nullptr ? dir : "/tmp";
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace sse::testing

#endif  // SSE_TESTS_TEST_UTIL_H_
