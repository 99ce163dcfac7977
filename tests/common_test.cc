// Unit tests for the common runtime: Status/Result, strings, random, cache.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/cancel_token.h"
#include "common/logging.h"
#include "common/lru_cache.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "test_util.h"

namespace xk {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::NotFound("table foo");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "table foo");
  EXPECT_EQ(st.ToString(), "not found: table foo");
}

TEST(StatusTest, AllCodesRoundTripThroughToString) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_TRUE(Status::Cancelled("x").IsCancelled());
}

TEST(StatusTest, ServingCodesCarryCodeAndMessage) {
  Status deadline = Status::DeadlineExceeded("budget spent");
  EXPECT_FALSE(deadline.ok());
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(), "deadline exceeded: budget spent");
  EXPECT_FALSE(deadline.IsCancelled());

  Status cancelled = Status::Cancelled("caller gave up");
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "cancelled: caller gave up");
  EXPECT_FALSE(cancelled.IsDeadlineExceeded());
}

TEST(CancelTokenTest, FreshTokenRequestsNothing) {
  CancelToken token;
  EXPECT_FALSE(token.cancel_requested());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.deadline_exceeded());
  EXPECT_FALSE(token.StopRequested());
  EXPECT_TRUE(token.ToStatus().ok());
}

TEST(CancelTokenTest, CancelIsStickyAndMapsToCancelled) {
  CancelToken token;
  token.RequestCancel();
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_TRUE(token.StopRequested());
  EXPECT_TRUE(token.ToStatus().IsCancelled());
}

TEST(CancelTokenTest, ExpiredDeadlineMapsToDeadlineExceeded) {
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.deadline_exceeded());
  EXPECT_TRUE(token.StopRequested());
  EXPECT_TRUE(token.ToStatus().IsDeadlineExceeded());
}

TEST(CancelTokenTest, FutureDeadlineDoesNotStop) {
  CancelToken token;
  token.SetDeadlineAfter(std::chrono::hours(1));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.StopRequested());
  EXPECT_TRUE(token.ToStatus().ok());
}

TEST(CancelTokenTest, NonPositiveBudgetIsIgnored) {
  CancelToken token;
  token.SetDeadlineAfter(std::chrono::nanoseconds(0));
  token.SetDeadlineAfter(std::chrono::milliseconds(-5));
  EXPECT_FALSE(token.has_deadline());
}

TEST(CancelTokenTest, CancelWinsOverExpiredDeadline) {
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  token.RequestCancel();
  EXPECT_TRUE(token.ToStatus().IsCancelled());
}

TEST(CancelTokenTest, ZeroNanosDeadlineStaysArmed) {
  // Regression: a time point whose nanos-since-epoch is exactly 0 used to
  // store the "no deadline armed" sentinel, silently disarming the deadline.
  // It must instead behave like any other past deadline.
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(0)));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.deadline_exceeded());
  EXPECT_TRUE(token.StopRequested());
  EXPECT_TRUE(token.ToStatus().IsDeadlineExceeded());
}

TEST(CancelTokenTest, ZeroNanosDeadlineCannotDisarmEarlierDeadline) {
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  ASSERT_TRUE(token.deadline_exceeded());
  token.SetDeadline(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(0)));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.deadline_exceeded());
}

TEST(CancelTokenTest, DeadlinePollsAgreeAcrossThreads) {
  // deadline_exceeded() and has_deadline() must observe the same armed state
  // (both acquire, pairing with SetDeadline's release): a thread that sees
  // StopRequested() must also see has_deadline().
  CancelToken token;
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (token.deadline_exceeded()) {
        EXPECT_TRUE(token.has_deadline());
        break;
      }
    }
  });
  token.SetDeadline(std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_TRUE(token.deadline_exceeded());
}

TEST(StatusTest, CopyPreservesState) {
  Status st = Status::Corruption("bad xml");
  Status copy = st;        // NOLINT(performance-unnecessary-copy-initialization)
  st = Status::OK();
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_EQ(copy.message(), "bad xml");
  EXPECT_TRUE(st.ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    XK_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = r.MoveValueUnsafe();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto get = [](bool ok) -> Result<int> {
    if (ok) return 3;
    return Status::Internal("x");
  };
  auto sum = [&](bool ok) -> Result<int> {
    XK_ASSIGN_OR_RETURN(int a, get(ok));
    XK_ASSIGN_OR_RETURN(int b, get(true));
    return a + b;
  };
  XK_ASSERT_OK_AND_ASSIGN(int six, sum(true));
  EXPECT_EQ(six, 6);
  EXPECT_TRUE(sum(false).status().IsInternal());
}

TEST(StringsTest, SplitAndJoin) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"x", "y", "z"}, "::"), "x::y::z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("VCR and Dvd"), "vcr and dvd");
}

TEST(StringsTest, TokenizeSplitsOnNonAlnum) {
  EXPECT_EQ(Tokenize("Set of VCR-and/DVD!"),
            (std::vector<std::string>{"set", "of", "vcr", "and", "dvd"}));
  EXPECT_TRUE(Tokenize(" .,;").empty());
  EXPECT_EQ(Tokenize("2002-10-01"), (std::vector<std::string>{"2002", "10", "01"}));
}

TEST(StringsTest, ContainsTokenIsWholeWordCaseInsensitive) {
  EXPECT_TRUE(ContainsToken("set of VCR and DVD", "vcr"));
  EXPECT_TRUE(ContainsToken("set of VCR and DVD", "DVD"));
  EXPECT_FALSE(ContainsToken("recorder", "record"));  // not whole word
  EXPECT_FALSE(ContainsToken("anything", ""));
  EXPECT_TRUE(ContainsToken("vcr", "vcr"));  // token at end of string
}

TEST(StringsTest, TrimAndAffixes) {
  EXPECT_EQ(Trim("  x y\t\n"), "x y");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_TRUE(StartsWith("person", "per"));
  EXPECT_FALSE(StartsWith("per", "person"));
  EXPECT_TRUE(EndsWith("lineitem", "item"));
  EXPECT_FALSE(EndsWith("item", "lineitem"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%s", std::string(500, 'a').c_str()), std::string(500, 'a'));
}

TEST(LruCacheTest, PutGetAndEvictionOrder) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_NE(cache.Get(1), nullptr);  // refresh 1; now 2 is LRU
  cache.Put(3, 30);                  // evicts 2
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, OverwriteRefreshes) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // refresh + overwrite
  cache.Put(3, 30);  // evicts 2
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(LruCacheTest, ZeroCapacityStoresNothing) {
  LruCache<int, int> cache(0);
  cache.Put(1, 10);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, HitMissCounters) {
  LruCache<std::string, int> cache(4);
  cache.Put("a", 1);
  cache.Get("a");
  cache.Get("b");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ShardedLruCacheTest, PutGetAcrossShards) {
  ShardedLruCache<int, int> cache(/*num_shards=*/4, /*max_bytes=*/4096);
  for (int i = 0; i < 32; ++i) {
    cache.Put(i, std::make_shared<int>(i * 10), /*bytes=*/8);
  }
  for (int i = 0; i < 32; ++i) {
    auto v = cache.Get(i);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i * 10);
  }
  EXPECT_EQ(cache.Get(99), nullptr);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 32u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 32u);
  EXPECT_EQ(stats.bytes, 32u * 8u);
}

TEST(ShardedLruCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // One shard so the LRU order is global and deterministic.
  ShardedLruCache<int, int> cache(/*num_shards=*/1, /*max_bytes=*/100);
  EXPECT_EQ(cache.Put(1, std::make_shared<int>(1), 40), 0u);
  EXPECT_EQ(cache.Put(2, std::make_shared<int>(2), 40), 0u);
  ASSERT_NE(cache.Get(1), nullptr);  // refresh 1; now 2 is the LRU victim
  EXPECT_EQ(cache.Put(3, std::make_shared<int>(3), 40), 1u);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST(ShardedLruCacheTest, ShardSelectionMixesIdentityHashes) {
  // Regression: shard selection used to mask the raw std::hash value. For
  // integer keys std::hash is the identity on most standard libraries, so
  // any key stream with a common power-of-two stride (aligned pointers,
  // sequence numbers tagged in the high bits) collapsed onto shard 0 —
  // turning the sharded cache into one contended LRU with 1/N the budget.
  // The finalizer mix must spread such keys across every shard.
  ShardedLruCache<uint64_t, int> cache(/*num_shards=*/8, /*max_bytes=*/4096);
  std::vector<size_t> per_shard(cache.num_shards(), 0);
  constexpr int kKeys = 1024;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ++per_shard[cache.ShardIndexOf(i << 32)];  // low 32 bits all zero
  }
  for (size_t s = 0; s < per_shard.size(); ++s) {
    // Expected 128 per shard; a loose 2x band suffices to catch collapse.
    EXPECT_GT(per_shard[s], kKeys / 16u) << "shard " << s;
    EXPECT_LT(per_shard[s], kKeys / 4u) << "shard " << s;
  }
}

TEST(ShardedLruCacheTest, OversizedEntryIsNotStored) {
  ShardedLruCache<int, int> cache(/*num_shards=*/1, /*max_bytes=*/100);
  cache.Put(1, std::make_shared<int>(1), 10);
  // Larger than the whole shard budget: storing it would evict everything
  // for an entry that cannot fit anyway.
  EXPECT_EQ(cache.Put(2, std::make_shared<int>(2), 1000), 0u);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
}

TEST(ShardedLruCacheTest, OverwriteReplacesByteCharge) {
  ShardedLruCache<std::string, int> cache(/*num_shards=*/1, /*max_bytes=*/100);
  cache.Put("k", std::make_shared<int>(1), 60);
  cache.Put("k", std::make_shared<int>(2), 30);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 30u);
  EXPECT_EQ(*cache.Get("k"), 2);
}

TEST(ShardedLruCacheTest, SharedValueSurvivesEviction) {
  ShardedLruCache<int, int> cache(/*num_shards=*/1, /*max_bytes=*/50);
  cache.Put(1, std::make_shared<int>(11), 40);
  std::shared_ptr<const int> held = cache.Get(1);
  cache.Put(2, std::make_shared<int>(22), 40);  // evicts 1
  EXPECT_EQ(cache.Get(1), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, 11);  // the reader's reference keeps the value alive
}

TEST(ShardedLruCacheTest, EraseAndClear) {
  ShardedLruCache<int, int> cache(/*num_shards=*/2, /*max_bytes=*/1000);
  cache.Put(1, std::make_shared<int>(1), 10);
  cache.Put(2, std::make_shared<int>(2), 10);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Erase(1));
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
}

TEST(RandomTest, DeterministicBySeed) {
  Random a(99);
  Random b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.Uniform(3, 3), 3);
}

TEST(RandomTest, WordIsLowercaseAlpha) {
  Random rng(2);
  std::string w = rng.Word(12);
  EXPECT_EQ(w.size(), 12u);
  for (char c : w) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(ZipfTest, SkewPutsMassOnLowRanks) {
  Random rng(3);
  ZipfDistribution zipf(100, 0.99);
  int low = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    size_t r = zipf.Sample(&rng);
    ASSERT_LT(r, 100u);
    if (r < 10) ++low;
  }
  // Top 10 of 100 ranks should carry well over half the mass under theta .99.
  EXPECT_GT(low, kSamples / 2);
}

TEST(ZipfTest, ThetaZeroIsRoughlyUniform) {
  Random rng(4);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  int64_t a = sw.ElapsedMicros();
  int64_t b = sw.ElapsedMicros();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  sw.Restart();
  EXPECT_GE(sw.ElapsedMicros(), 0);
}

TEST(LoggingTest, LevelGating) {
  LogLevel old = SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  XK_LOG(Info) << "should not print";
  SetLogLevel(old);
}

}  // namespace
}  // namespace xk
