// Unit tests for the bounded structured event journal: dense sequence
// stamps, oldest-first tails, ring eviction, JSON rendering, and ordering
// under concurrent emitters (the TSan target).

#include "sse/obs/events.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace sse {
namespace {

using obs::Event;
using obs::EventJournal;
using obs::EventKind;

TEST(EventJournalTest, SequencesAreDenseAndMonotonic) {
  EventJournal journal(8);
  EXPECT_EQ(journal.Emit(EventKind::kBrownoutEnter, "a"), 1u);
  EXPECT_EQ(journal.Emit(EventKind::kBrownoutExit, "b"), 2u);
  EXPECT_EQ(journal.Emit(EventKind::kPromotion, "c"), 3u);
  EXPECT_EQ(journal.emitted(), 3u);
  const auto tail = journal.Tail();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].seq, 1u);
  EXPECT_EQ(tail[0].detail, "a");
  EXPECT_EQ(tail[2].seq, 3u);
  EXPECT_EQ(tail[2].kind, EventKind::kPromotion);
}

TEST(EventJournalTest, RingEvictsOldestButKeepsSeqs) {
  EventJournal journal(4);
  for (int i = 1; i <= 10; ++i) {
    journal.Emit(EventKind::kWalCompaction, "e" + std::to_string(i));
  }
  EXPECT_EQ(journal.emitted(), 10u);
  const auto tail = journal.Tail();
  ASSERT_EQ(tail.size(), 4u);
  // Only the newest four survive, oldest first, seqs intact — the gap
  // from seq 1 to 7 is visible to any reader tracking seqs.
  EXPECT_EQ(tail[0].seq, 7u);
  EXPECT_EQ(tail[3].seq, 10u);
  EXPECT_EQ(tail[3].detail, "e10");
}

TEST(EventJournalTest, TailRespectsMaxEvents) {
  EventJournal journal(16);
  for (int i = 0; i < 10; ++i) {
    journal.Emit(EventKind::kBreakerOpen, "x");
  }
  const auto tail = journal.Tail(/*max_events=*/3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].seq, 8u);
  EXPECT_EQ(tail[2].seq, 10u);
}

TEST(EventJournalTest, ClearKeepsCounterMonotonic) {
  EventJournal journal(4);
  journal.Emit(EventKind::kFailover, "before");
  journal.Clear();
  EXPECT_TRUE(journal.Tail().empty());
  // History never renumbers: the next event continues the sequence.
  EXPECT_EQ(journal.Emit(EventKind::kFailover, "after"), 2u);
  const auto tail = journal.Tail();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].detail, "after");
}

TEST(EventJournalTest, ToJsonEscapesDetails) {
  std::vector<Event> events(1);
  events[0].seq = 7;
  events[0].wall_ms = 123;
  events[0].kind = EventKind::kWalSalvage;
  events[0].detail = "quote \" slash \\ newline \n tab \t";
  const std::string json = EventJournal::ToJson(events);
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"wal_salvage\""), std::string::npos);
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  // No raw control characters may survive into the payload.
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(EventJournalTest, EmptyJournalRendersEmptyArray) {
  EventJournal journal(4);
  EXPECT_TRUE(journal.Tail().empty());
  EXPECT_EQ(EventJournal::ToJson(journal.Tail()), "[]");
}

TEST(EventJournalTest, ConcurrentEmittersGetUniqueDenseSeqs) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  // Capacity holds everything, so every seq must be present afterwards.
  EventJournal journal(kThreads * kPerThread);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Emit(EventKind::kBrownoutEnter,
                     "t" + std::to_string(t) + "#" + std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(journal.emitted(), static_cast<uint64_t>(kThreads * kPerThread));
  const auto tail = journal.Tail(kThreads * kPerThread);
  ASSERT_EQ(tail.size(), static_cast<size_t>(kThreads * kPerThread));
  std::set<uint64_t> seqs;
  for (size_t i = 0; i < tail.size(); ++i) {
    seqs.insert(tail[i].seq);
    if (i > 0) {
      EXPECT_LT(tail[i - 1].seq, tail[i].seq);  // oldest first
    }
  }
  // Dense: exactly 1..N with no gaps or duplicates.
  EXPECT_EQ(seqs.size(), tail.size());
  EXPECT_EQ(*seqs.begin(), 1u);
  EXPECT_EQ(*seqs.rbegin(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(EventJournalTest, ConcurrentEmitAndTailStayConsistent) {
  // A small ring wraps constantly while a reader tails it: every returned
  // slice must be strictly ordered with self-consistent (seq, detail)
  // pairs — the mutex either shows a slot fully updated or not at all.
  EventJournal journal(8);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto tail = journal.Tail();
      for (size_t i = 1; i < tail.size(); ++i) {
        EXPECT_LT(tail[i - 1].seq, tail[i].seq);
      }
      for (const Event& e : tail) {
        // A slot visible in a tail is fully written: kind and detail
        // match what every writer stamps, never a half-updated default.
        EXPECT_EQ(e.kind, EventKind::kBreakerClose);
        EXPECT_EQ(e.detail, "wrap");
      }
    }
  });
  std::vector<std::thread> writers;
  std::atomic<uint64_t> expected{0};
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&journal, &expected] {
      for (int i = 0; i < 2000; ++i) {
        journal.Emit(EventKind::kBreakerClose, "wrap");
        expected.fetch_add(1);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(journal.emitted(), expected.load());
}

}  // namespace
}  // namespace sse
