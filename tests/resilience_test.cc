// Resilience runtime tests: retry backoff schedules on a fake clock,
// circuit-breaker state transitions, ingest-queue backpressure and shedding,
// dead-letter queue round-trips with corruption resync, and the full
// deadline → retry → breaker → fallback → DLQ ladder through the Globalizer,
// and retries of the fused phrase-embedding and classification calls, driven
// via the failpoint registry.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/entity_classifier.h"
#include "core/globalizer.h"
#include "core/phrase_embedder.h"
#include "mock_local_system.h"
#include "stream/dead_letter.h"
#include "stream/ingest_queue.h"
#include "text/tweet_tokenizer.h"
#include "util/circuit_breaker.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/retry.h"
#include "util/rng.h"

namespace emd {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Disarms every failpoint on scope exit so no test leaks armed points.
struct FailpointGuard {
  FailpointGuard() { failpoint::DisableAll(); }
  ~FailpointGuard() { failpoint::DisableAll(); }
};

AnnotatedTweet MakeTweet(long id, const std::string& text,
                         std::vector<TokenSpan> gold_spans = {}) {
  AnnotatedTweet t;
  t.tweet_id = id;
  t.sentence_id = static_cast<int>(id) * 10;
  t.topic_id = 7;
  t.text = text;
  t.tokens = TweetTokenizer().Tokenize(text);
  for (const auto& s : gold_spans) t.gold.push_back({s, static_cast<int>(s.begin)});
  return t;
}

// ---------------------------------------------------------------- Backoff --

TEST(BackoffTest, FirstDelayIsExactlyInitial) {
  RetryPolicy policy;
  policy.initial_backoff_nanos = 3 * kMillisecond;
  Rng rng(1);
  Backoff backoff(policy, &rng);
  EXPECT_EQ(backoff.NextDelayNanos(), 3 * kMillisecond);
}

TEST(BackoffTest, DelaysStayWithinDecorrelatedJitterBounds) {
  RetryPolicy policy;
  policy.initial_backoff_nanos = 2 * kMillisecond;
  policy.max_backoff_nanos = 50 * kMillisecond;
  Rng rng(42);
  Backoff backoff(policy, &rng);
  uint64_t prev = backoff.NextDelayNanos();
  for (int i = 0; i < 200; ++i) {
    const uint64_t hi =
        std::min<uint64_t>(policy.max_backoff_nanos, prev * 3);
    const uint64_t next = backoff.NextDelayNanos();
    EXPECT_GE(next, policy.initial_backoff_nanos) << "iteration " << i;
    EXPECT_LE(next, hi) << "iteration " << i;
    EXPECT_LE(next, policy.max_backoff_nanos) << "iteration " << i;
    prev = next;
  }
}

TEST(BackoffTest, SeededScheduleIsDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff_nanos = 1 * kMillisecond;
  Rng rng_a(0xBEEF), rng_b(0xBEEF);
  Backoff a(policy, &rng_a), b(policy, &rng_b);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.NextDelayNanos(), b.NextDelayNanos()) << "iteration " << i;
  }
}

TEST(BackoffTest, IsTransientClassifiesCodes) {
  EXPECT_TRUE(IsTransient(Status::IoError("disk")));
  EXPECT_TRUE(IsTransient(Status::Internal("wedged")));
  EXPECT_TRUE(IsTransient(Status::DeadlineExceeded("slow")));
  EXPECT_TRUE(IsTransient(Status::ResourceExhausted("full")));
  EXPECT_TRUE(IsTransient(Status::Unavailable("open")));
  EXPECT_FALSE(IsTransient(Status::OK()));
  EXPECT_FALSE(IsTransient(Status::InvalidArgument("bad request")));
  EXPECT_FALSE(IsTransient(Status::Corruption("bad bytes")));
  EXPECT_FALSE(IsTransient(Status::NotFound("gone")));
}

// ----------------------------------------------------------- RunWithRetry --

TEST(RunWithRetryTest, RetriesTransientUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  FakeClock clock;
  Rng rng(1);
  RetryStats stats;
  int calls = 0;
  const Status st = RunWithRetry(
      policy, &clock, &rng,
      [&]() -> Status {
        return ++calls < 3 ? Status::IoError("flaky") : Status::OK();
      },
      &stats);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_GT(stats.backoff_nanos, 0u);
  EXPECT_EQ(clock.now(), stats.backoff_nanos) << "all sleeps on the clock";
}

TEST(RunWithRetryTest, PermanentErrorIsNotRetried) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  FakeClock clock;
  Rng rng(1);
  RetryStats stats;
  int calls = 0;
  const Status st = RunWithRetry(
      policy, &clock, &rng,
      [&]() -> Status {
        ++calls;
        return Status::InvalidArgument("never retry me");
      },
      &stats);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(clock.now(), 0u);
}

TEST(RunWithRetryTest, ExhaustedAttemptsReturnLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  FakeClock clock;
  Rng rng(1);
  RetryStats stats;
  const Status st = RunWithRetry(
      policy, &clock, &rng, [&]() -> Status { return Status::Internal("down"); },
      &stats);
  EXPECT_TRUE(st.IsInternal());
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
}

TEST(RunWithRetryTest, SlowSuccessOverrunsAttemptDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.attempt_deadline_nanos = 10 * kMillisecond;
  FakeClock clock;
  Rng rng(1);
  RetryStats stats;
  int calls = 0;
  const Status st = RunWithRetry(
      policy, &clock, &rng,
      [&]() -> Status {
        // First attempt succeeds but takes 20ms — a blown stage budget is a
        // transient DeadlineExceeded, so the fast second attempt wins.
        if (++calls == 1) clock.Advance(20 * kMillisecond);
        return Status::OK();
      },
      &stats);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(stats.retries, 1);
}

TEST(RunWithRetryTest, WorksWithResultValues) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  FakeClock clock;
  Rng rng(1);
  int calls = 0;
  Result<int> r = RunWithRetry(policy, &clock, &rng, [&]() -> Result<int> {
    if (++calls == 1) return Status::Unavailable("warming up");
    return 41 + 1;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(calls, 2);
}

// --------------------------------------------------------- CircuitBreaker --

CircuitBreakerOptions SmallBreaker() {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_cooldown_nanos = 100 * kMillisecond;
  options.half_open_successes = 2;
  options.name = "test";
  return options;
}

TEST(CircuitBreakerTest, TripsOnlyAtConsecutiveFailureThreshold) {
  FakeClock clock;
  CircuitBreaker breaker(SmallBreaker(), &clock);
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // A success resets the consecutive count.
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, OpenRejectsUntilCooldownThenHalfOpens) {
  FakeClock clock;
  CircuitBreaker breaker(SmallBreaker(), &clock);
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.rejected(), 2);
  clock.Advance(100 * kMillisecond);
  EXPECT_TRUE(breaker.AllowRequest()) << "cooldown elapsed: admit a probe";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreakerTest, HalfOpenSuccessesClose) {
  FakeClock clock;
  CircuitBreaker breaker(SmallBreaker(), &clock);
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  clock.Advance(100 * kMillisecond);
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen)
      << "one probe success is not yet a recovery";
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.recoveries(), 1);
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReTrips) {
  FakeClock clock;
  CircuitBreaker breaker(SmallBreaker(), &clock);
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  clock.Advance(100 * kMillisecond);
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  EXPECT_FALSE(breaker.AllowRequest()) << "cooldown restarts after a re-trip";
}

// ------------------------------------------------------------ IngestQueue --

TEST(IngestQueueTest, PushAppliesBackpressureWhenFull) {
  IngestQueue queue({.capacity = 2});
  EXPECT_TRUE(queue.Push(MakeTweet(1, "a")).ok());
  EXPECT_TRUE(queue.Push(MakeTweet(2, "b")).ok());
  const Status st = queue.Push(MakeTweet(3, "c"));
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_TRUE(queue.full());
  EXPECT_EQ(queue.stats().accepted, 2u);
  EXPECT_EQ(queue.stats().rejected, 1u);
  EXPECT_EQ(queue.stats().shed, 0u);
}

TEST(IngestQueueTest, PushOrShedCountsSheddedNewest) {
  IngestQueue queue({.capacity = 1});
  EXPECT_TRUE(queue.PushOrShed(MakeTweet(1, "kept")));
  EXPECT_FALSE(queue.PushOrShed(MakeTweet(2, "shed")));
  EXPECT_EQ(queue.stats().shed, 1u);
  const std::vector<AnnotatedTweet> drained = queue.PopBatch(10);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].tweet_id, 1) << "reject-newest keeps the oldest tweet";
}

TEST(IngestQueueTest, PopBatchIsFifoAndTracksWatermark) {
  IngestQueue queue({.capacity = 8});
  for (long id = 1; id <= 5; ++id) {
    ASSERT_TRUE(queue.Push(MakeTweet(id, "t")).ok());
  }
  EXPECT_EQ(queue.stats().high_watermark, 5u);
  std::vector<AnnotatedTweet> first = queue.PopBatch(3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].tweet_id, 1);
  EXPECT_EQ(first[2].tweet_id, 3);
  std::vector<AnnotatedTweet> rest = queue.PopBatch(10);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[1].tweet_id, 5);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.stats().popped, 5u);
  EXPECT_EQ(queue.stats().high_watermark, 5u);
}

// -------------------------------------------------------- DeadLetterQueue --

TEST(DeadLetterQueueTest, AppendReadAllRoundTrips) {
  const std::string path = TempPath("emd_dlq_roundtrip.dlq");
  std::filesystem::remove(path);
  {
    auto dlq = DeadLetterQueue::Open(path);
    ASSERT_TRUE(dlq.ok());
    ASSERT_TRUE(
        dlq->Append(MakeTweet(11, "the Coronavirus keeps spreading", {{1, 2}}),
                    Status::Internal("tagger wedged"))
            .ok());
    ASSERT_TRUE(dlq->Append(MakeTweet(12, "worried about cases"),
                            Status::DeadlineExceeded("too slow"))
                    .ok());
    EXPECT_EQ(dlq->appended(), 2u);
  }
  auto report = DeadLetterQueue::ReadAll(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->corrupt_regions_skipped, 0);
  ASSERT_EQ(report->entries.size(), 2u);
  const AnnotatedTweet& t = report->entries[0].tweet;
  EXPECT_EQ(t.tweet_id, 11);
  EXPECT_EQ(t.sentence_id, 110);
  EXPECT_EQ(t.topic_id, 7);
  EXPECT_EQ(t.text, "the Coronavirus keeps spreading");
  ASSERT_EQ(t.tokens.size(), 4u);
  EXPECT_EQ(t.tokens[1].text, "Coronavirus");
  EXPECT_EQ(t.tokens[1].begin, 4u);
  ASSERT_EQ(t.gold.size(), 1u);
  EXPECT_EQ(t.gold[0].span, (TokenSpan{1, 2}));
  EXPECT_NE(report->entries[0].reason.find("tagger wedged"), std::string::npos);
  EXPECT_NE(report->entries[1].reason.find("DeadlineExceeded"),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST(DeadLetterQueueTest, CorruptMiddleRecordIsResyncedPast) {
  const std::string path = TempPath("emd_dlq_corrupt.dlq");
  std::filesystem::remove(path);
  size_t first_record_end = 0;
  {
    auto dlq = DeadLetterQueue::Open(path);
    ASSERT_TRUE(dlq.ok());
    ASSERT_TRUE(dlq->Append(MakeTweet(1, "first tweet"), Status::Internal("x")).ok());
    first_record_end = std::filesystem::file_size(path);
    ASSERT_TRUE(dlq->Append(MakeTweet(2, "second tweet"), Status::Internal("x")).ok());
    ASSERT_TRUE(dlq->Append(MakeTweet(3, "third tweet"), Status::Internal("x")).ok());
  }
  // Flip a byte inside the second record's payload; its CRC check fails and
  // the reader must resync to the third record's magic.
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string bytes = *content;
  bytes[first_record_end + 9] ^= 0x5A;
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());

  auto report = DeadLetterQueue::ReadAll(path);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->entries.size(), 2u);
  EXPECT_EQ(report->entries[0].tweet.tweet_id, 1);
  EXPECT_EQ(report->entries[1].tweet.tweet_id, 3);
  EXPECT_EQ(report->corrupt_regions_skipped, 1);
  std::filesystem::remove(path);
}

TEST(DeadLetterQueueTest, TornTailIsCountedNotFatal) {
  const std::string path = TempPath("emd_dlq_torn.dlq");
  std::filesystem::remove(path);
  {
    auto dlq = DeadLetterQueue::Open(path);
    ASSERT_TRUE(dlq.ok());
    ASSERT_TRUE(dlq->Append(MakeTweet(1, "whole record"), Status::Internal("x")).ok());
    ASSERT_TRUE(dlq->Append(MakeTweet(2, "torn record"), Status::Internal("x")).ok());
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  ASSERT_TRUE(
      WriteStringToFile(path, content->substr(0, content->size() - 6)).ok());
  auto report = DeadLetterQueue::ReadAll(path);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->entries.size(), 1u);
  EXPECT_EQ(report->entries[0].tweet.tweet_id, 1);
  EXPECT_EQ(report->corrupt_regions_skipped, 1);
  std::filesystem::remove(path);
}

TEST(DeadLetterQueueTest, MissingFileReadsEmptyAndTruncateEmpties) {
  const std::string path = TempPath("emd_dlq_missing.dlq");
  std::filesystem::remove(path);
  auto report = DeadLetterQueue::ReadAll(path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->entries.empty());

  {
    auto dlq = DeadLetterQueue::Open(path);
    ASSERT_TRUE(dlq.ok());
    ASSERT_TRUE(dlq->Append(MakeTweet(1, "x"), Status::Internal("x")).ok());
  }
  ASSERT_TRUE(DeadLetterQueue::Truncate(path).ok());
  report = DeadLetterQueue::ReadAll(path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->entries.empty());
  std::filesystem::remove(path);
}

TEST(DeadLetterQueueTest, AppendFailpointSurfacesError) {
  FailpointGuard guard;
  const std::string path = TempPath("emd_dlq_failpoint.dlq");
  std::filesystem::remove(path);
  auto dlq = DeadLetterQueue::Open(path);
  ASSERT_TRUE(dlq.ok());
  failpoint::EnableAfter("stream.dead_letter.append",
                         Status::IoError("disk full"));
  EXPECT_TRUE(dlq->Append(MakeTweet(1, "x"), Status::Internal("x")).IsIoError());
  std::filesystem::remove(path);
}

// ------------------------------------------------- Globalizer integration --

Dataset SmallStream() {
  Dataset d;
  d.name = "resilience";
  d.tweets = {
      MakeTweet(1, "the Coronavirus keeps spreading", {{1, 2}}),
      MakeTweet(2, "worried about Coronavirus cases", {{2, 3}}),
      MakeTweet(3, "Coronavirus cases rising again", {{0, 1}}),
      MakeTweet(4, "the Coronavirus response was slow", {{1, 2}}),
      MakeTweet(5, "more Coronavirus news tonight", {{1, 2}}),
      MakeTweet(6, "Coronavirus briefing at noon", {{0, 1}}),
  };
  return d;
}

std::vector<MockLocalSystem::Rule> CoronaRules() {
  return {{.phrase = {"coronavirus"}}};
}

TEST(GlobalizerResilienceTest, OptInRetryRecoversTransientFault) {
  FailpointGuard guard;
  // The second tweet's local EMD fails twice, then works: with three
  // attempts the tweet survives instead of quarantining.
  failpoint::EnableAfter("emd.mock.process", Status::Internal("hiccup"),
                         /*skip=*/1, /*max_fires=*/2);
  MockLocalSystem mock(CoronaRules());
  FakeClock clock;
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.resilience.local_emd.max_attempts = 3;
  opt.resilience.clock = &clock;
  Globalizer g(&mock, nullptr, nullptr, opt);
  GlobalizerOutput out = g.Run(SmallStream()).value();

  EXPECT_EQ(out.num_quarantined, 0);
  EXPECT_EQ(out.num_retries, 2);
  EXPECT_EQ(out.mentions[1].size(), 1u) << "the retried tweet kept its mention";
  EXPECT_GT(clock.now(), 0u) << "backoff slept on the injected clock";
}

TEST(GlobalizerResilienceTest, BreakerOpensRoutesToFallbackAndDeadLetters) {
  FailpointGuard guard;
  const std::string dlq_path = TempPath("emd_dlq_breaker.dlq");
  std::filesystem::remove(dlq_path);

  // The primary fails persistently (its own failpoint name); the fallback
  // keeps the default name and stays healthy.
  MockLocalSystem primary(CoronaRules());
  primary.set_process_failpoint("emd.primary.process");
  MockLocalSystem fallback(CoronaRules());
  failpoint::EnableAfter("emd.primary.process",
                         Status::Internal("primary outage"));

  FakeClock clock;
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.resilience.local_emd.max_attempts = 2;
  opt.resilience.breaker.failure_threshold = 2;
  opt.resilience.breaker.name = "emd.primary";
  opt.resilience.clock = &clock;
  Globalizer g(&primary, nullptr, nullptr, opt);
  g.set_fallback_system(&fallback);
  auto dlq = DeadLetterQueue::Open(dlq_path);
  ASSERT_TRUE(dlq.ok());
  g.set_dead_letter_queue(&*dlq);

  const Dataset stream = SmallStream();
  GlobalizerOutput out = g.Run(stream).value();

  // Tweet 1 exhausts retries below the trip threshold: quarantined + DLQ'd.
  // Tweet 2's failure trips the breaker and is served by the fallback, as is
  // every later tweet. Zero tweets lost overall.
  EXPECT_EQ(out.num_quarantined, 1);
  EXPECT_EQ(out.num_dead_lettered, 1);
  EXPECT_EQ(out.num_fallback, 5);
  EXPECT_EQ(out.breaker_trips, 1);
  EXPECT_EQ(g.breaker().state(), CircuitBreaker::State::kOpen);
  ASSERT_EQ(out.mentions.size(), stream.size());
  EXPECT_TRUE(out.mentions[0].empty()) << "quarantined tweet emits nothing";
  for (size_t i = 1; i < out.mentions.size(); ++i) {
    EXPECT_EQ(out.mentions[i].size(), 1u) << "fallback served tweet " << i;
  }

  // Replay closes the loop: with the outage cleared, the dead-lettered tweet
  // reprocesses to exactly what a clean pipeline produces for it.
  failpoint::DisableAll();
  auto report = DeadLetterQueue::ReadAll(dlq_path);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->entries.size(), 1u);
  EXPECT_EQ(report->entries[0].tweet.tweet_id, 1);

  auto run_clean = [&](const std::vector<AnnotatedTweet>& tweets) {
    MockLocalSystem clean(CoronaRules());
    GlobalizerOptions clean_opt;
    clean_opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
    Globalizer clean_g(&clean, nullptr, nullptr, clean_opt);
    Dataset d;
    d.tweets = tweets;
    return clean_g.Run(d).value();
  };
  const GlobalizerOutput replayed = run_clean({report->entries[0].tweet});
  const GlobalizerOutput reference = run_clean({stream.tweets[0]});
  EXPECT_EQ(replayed.mentions, reference.mentions)
      << "replayed output is byte-identical to the clean run";
  std::filesystem::remove(dlq_path);
}

TEST(GlobalizerResilienceTest, HalfOpenProbeRecoversAfterOutageEnds) {
  FailpointGuard guard;
  MockLocalSystem primary(CoronaRules());
  primary.set_process_failpoint("emd.primary.process");
  MockLocalSystem fallback(CoronaRules());
  // Outage covers the first three process calls only (tweets 1 and 2 with
  // one retry each would be 2 calls... keep it simple: 4 fires covers the
  // trip; everything after succeeds).
  failpoint::EnableAfter("emd.primary.process", Status::Internal("outage"),
                         /*skip=*/0, /*max_fires=*/4);

  FakeClock clock;
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.resilience.local_emd.max_attempts = 2;
  opt.resilience.breaker.failure_threshold = 1;
  opt.resilience.breaker.open_cooldown_nanos = 10 * kMillisecond;
  opt.resilience.breaker.half_open_successes = 1;
  opt.resilience.clock = &clock;
  Globalizer g(&primary, nullptr, nullptr, opt);
  g.set_fallback_system(&fallback);

  const Dataset stream = SmallStream();
  // Tweet 1: both attempts fire (2 fires), breaker trips at threshold 1,
  // fallback serves it. Tweets 2-3: breaker open within cooldown → fallback
  // (advance the clock between batches so a probe eventually happens).
  ASSERT_TRUE(g.ProcessBatch({&stream.tweets[0], 1}).ok());
  EXPECT_EQ(g.breaker().state(), CircuitBreaker::State::kOpen);
  ASSERT_TRUE(g.ProcessBatch({&stream.tweets[1], 1}).ok());
  clock.Advance(10 * kMillisecond);
  // Probe admitted; the failpoint still has 2 fires left, so both attempts
  // fail, the breaker re-trips, and the probe tweet falls back.
  ASSERT_TRUE(g.ProcessBatch({&stream.tweets[2], 1}).ok());
  EXPECT_EQ(g.breaker().state(), CircuitBreaker::State::kOpen);
  clock.Advance(10 * kMillisecond);
  // Next probe succeeds (failpoint exhausted): recovery to closed.
  ASSERT_TRUE(g.ProcessBatch({&stream.tweets[3], 1}).ok());
  EXPECT_EQ(g.breaker().state(), CircuitBreaker::State::kClosed);

  GlobalizerOutput out = g.Finalize().value();
  EXPECT_EQ(out.breaker_trips, 2);
  EXPECT_EQ(out.breaker_recoveries, 1);
  EXPECT_EQ(out.num_fallback, 3);
  EXPECT_EQ(out.num_quarantined, 0) << "no tweet was lost during the outage";
}

TEST(GlobalizerResilienceTest, CheckpointV2RoundTripsResilienceCounters) {
  FailpointGuard guard;
  const std::string ckpt = TempPath("emd_resilience.ckpt");
  const std::string dlq_path = TempPath("emd_dlq_ckpt.dlq");
  std::filesystem::remove(ckpt);
  std::filesystem::remove(dlq_path);

  MockLocalSystem primary(CoronaRules());
  primary.set_process_failpoint("emd.primary.process");
  MockLocalSystem fallback(CoronaRules());
  failpoint::EnableAfter("emd.primary.process", Status::Internal("outage"));

  FakeClock clock;
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.resilience.local_emd.max_attempts = 2;
  opt.resilience.breaker.failure_threshold = 2;
  opt.resilience.clock = &clock;
  GlobalizerOutput before;
  {
    Globalizer g(&primary, nullptr, nullptr, opt);
    g.set_fallback_system(&fallback);
    auto dlq = DeadLetterQueue::Open(dlq_path);
    ASSERT_TRUE(dlq.ok());
    g.set_dead_letter_queue(&*dlq);
    const Dataset stream = SmallStream();
    ASSERT_TRUE(g.ProcessBatch(stream.tweets).ok());
    before = g.Finalize().value();
    ASSERT_TRUE(g.SaveCheckpoint(ckpt).ok());
  }
  ASSERT_GT(before.num_retries, 0);
  ASSERT_EQ(before.breaker_trips, 1);

  Globalizer restored(&primary, nullptr, nullptr, opt);
  ASSERT_TRUE(restored.RestoreCheckpoint(ckpt).ok());
  failpoint::DisableAll();
  GlobalizerOutput after = restored.Finalize().value();
  EXPECT_EQ(after.num_retries, before.num_retries);
  EXPECT_EQ(after.num_fallback, before.num_fallback);
  EXPECT_EQ(after.num_dead_lettered, before.num_dead_lettered);
  EXPECT_EQ(after.breaker_trips, before.breaker_trips);
  EXPECT_EQ(after.breaker_recoveries, before.breaker_recoveries);
  EXPECT_EQ(after.num_quarantined, before.num_quarantined);
  EXPECT_EQ(after.mentions, before.mentions);
  std::filesystem::remove(ckpt);
  std::filesystem::remove(dlq_path);
}

// ------------------------------------------------ fused global-pass calls --

// One stream through a deep mock in kFull with two attempts per fused
// global-pass call. `failpoint_name` (when set) fails its first hit once.
struct FusedRun {
  GlobalizerOutput output;
  std::vector<std::vector<float>> embedding_sums;
  std::vector<float> probabilities;
};

FusedRun RunWithFusedFault(const char* failpoint_name) {
  if (failpoint_name != nullptr) {
    failpoint::EnableAfter(failpoint_name, Status::Internal("hiccup"),
                           /*skip=*/0, /*max_fires=*/1);
  }
  MockLocalSystem mock(CoronaRules(), /*dim=*/8);
  PhraseEmbedder pe(8, 6);
  EntityClassifier clf({.input_dim = 7});
  FakeClock clock;
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  opt.resilience.phrase_embedder.max_attempts = 2;
  opt.resilience.classifier.max_attempts = 2;
  opt.resilience.clock = &clock;
  Globalizer g(&mock, &pe, &clf, opt);
  FusedRun run;
  run.output = g.Run(SmallStream()).value();
  failpoint::DisableAll();
  const ShardedGlobalState& state = g.global_state();
  for (int id = 0; id < state.num_candidates(); ++id) {
    const Mat& sum = state.at(id).embedding_sum;
    run.embedding_sums.emplace_back(sum.data(), sum.data() + sum.size());
    run.probabilities.push_back(state.at(id).entity_probability);
  }
  return run;
}

void ExpectSameRun(const FusedRun& clean, const FusedRun& faulty) {
  EXPECT_EQ(faulty.output.mentions, clean.output.mentions);
  EXPECT_EQ(faulty.output.num_entity, clean.output.num_entity);
  EXPECT_EQ(faulty.output.num_ambiguous, clean.output.num_ambiguous);
  EXPECT_EQ(faulty.embedding_sums, clean.embedding_sums);
  EXPECT_EQ(faulty.probabilities, clean.probabilities);
}

TEST(GlobalizerResilienceTest, FusedPhraseEmbedRetriesTransientFault) {
  FailpointGuard guard;
  const FusedRun clean = RunWithFusedFault(nullptr);
  const FusedRun faulty = RunWithFusedFault("core.phrase_embedder.embed");
  EXPECT_EQ(clean.output.num_retries, 0);
  EXPECT_EQ(faulty.output.num_degraded, 0) << "the retry succeeded";
  EXPECT_EQ(faulty.output.num_retries, 1);
  ExpectSameRun(clean, faulty);
}

TEST(GlobalizerResilienceTest, FusedClassifierRetriesTransientFault) {
  FailpointGuard guard;
  const FusedRun clean = RunWithFusedFault(nullptr);
  const FusedRun faulty = RunWithFusedFault("core.entity_classifier.classify");
  EXPECT_FALSE(faulty.output.classifier_degraded);
  EXPECT_EQ(faulty.output.num_retries, 1);
  ExpectSameRun(clean, faulty);
}

// ------------------------------------------------------ no-fallback paths --

TEST(GlobalizerResilienceTest, OpenBreakerWithoutFallbackQuarantines) {
  FailpointGuard guard;
  failpoint::EnableAfter("emd.mock.process", Status::Internal("outage"));
  MockLocalSystem mock(CoronaRules());
  FakeClock clock;
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.resilience.breaker.failure_threshold = 2;
  opt.resilience.clock = &clock;
  Globalizer g(&mock, nullptr, nullptr, opt);
  GlobalizerOutput out = g.Run(SmallStream()).value();

  EXPECT_EQ(out.num_quarantined, 6) << "every tweet quarantines, none lost";
  EXPECT_EQ(out.num_fallback, 0);
  EXPECT_EQ(out.breaker_trips, 1);
  EXPECT_GT(g.breaker().rejected(), 0);
  for (const auto& mentions : out.mentions) EXPECT_TRUE(mentions.empty());
}

}  // namespace
}  // namespace emd
