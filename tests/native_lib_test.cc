/**
 * @file
 * libflextm unit tests: region lifecycle, the CS-453 retry contract,
 * TL2 opacity under real cross-thread conflicts, API misuse (dead or
 * read-only handles, misaligned accesses), and the access-log checker
 * itself (it must reject a cooked non-serializable history, or its
 * green runs mean nothing).
 *
 * Everything here is pure native code - no simulator fibers - so the
 * suite also runs under the tsan preset (label nativetsan) and in the
 * sanitized `fault` net.
 *
 * The binary replaces the global operator new/delete so that a test
 * can count the heap allocations its own thread makes (HeapCount).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "native/access_log.hh"
#include "native/tm.hh"

namespace
{

/** Per-thread heap accounting: operator new counts the calls made by
 *  a thread while its flag is armed. */
constinit thread_local bool tCountNews = false;
constinit thread_local std::uint64_t tNews = 0;

void *
countedNew(std::size_t n, std::size_t align)
{
    if (tCountNews)
        ++tNews;
    n = n == 0 ? 1 : n;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align,
                                       (n + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // anonymous namespace

// Every form, not just the two the others default to: a sanitizer
// runtime defines each form itself, and an unreplaced one would
// allocate uncounted.
void *operator new(std::size_t n) { return countedNew(n, 0); }
void *operator new[](std::size_t n) { return countedNew(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedNew(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedNew(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace flextm::native
{
namespace
{

/** Counts the calling thread's operator new calls while in scope. */
class HeapCount
{
  public:
    HeapCount()
    {
        tNews = 0;
        tCountNews = true;
    }
    ~HeapCount() { tCountNews = false; }
    std::uint64_t
    news() const
    {
        return tNews;
    }
};

/** Run @p body as a transaction, retrying on abort until it commits.
 *  @p body returns false when a tm_read/tm_write already aborted the
 *  attempt (per the API contract, tm_end is then NOT called). */
template <typename Fn>
void
runTxn(shared_t sh, bool ro, Fn &&body)
{
    for (;;) {
        tx_t tx = tm_begin(sh, ro);
        if (!body(tx))
            continue;
        if (tm_end(sh, tx))
            return;
    }
}

std::uint64_t
readWord(shared_t sh, tx_t tx, std::uint64_t *w, bool *ok)
{
    std::uint64_t v = 0;
    *ok = tm_read(sh, tx, w, sizeof v, &v);
    return v;
}

class NativeLib : public ::testing::TestWithParam<Backend>
{
};

TEST(NativeLibCreate, RejectsBadArguments)
{
    EXPECT_EQ(tm_create_with(0, 8, Backend::Tl2), invalid_shared);
    EXPECT_EQ(tm_create_with(64, 0, Backend::Tl2), invalid_shared);
    // Non-power-of-two alignment.
    EXPECT_EQ(tm_create_with(66, 3, Backend::Tl2), invalid_shared);
    // Size not a multiple of the alignment.
    EXPECT_EQ(tm_create_with(60, 8, Backend::Tl2), invalid_shared);
}

/** tm_create makes a TL2 region: a writer commits while another
 *  thread's transaction is still live, which a global lock would
 *  hold off until that transaction ends. */
TEST(NativeLibCreate, CreateMakesATl2Region)
{
    shared_t sh = tm_create(64, 8);
    ASSERT_NE(sh, invalid_shared);
    auto *word = static_cast<std::uint64_t *>(tm_start(sh));
    const tx_t reader = tm_begin(sh, true);
    std::atomic<bool> committed{false};
    std::thread writer([&] {
        runTxn(sh, false, [&](tx_t tx) {
            const std::uint64_t v = 1;
            return tm_write(sh, tx, &v, sizeof v, word);
        });
        committed.store(true);
    });
    for (int ms = 0; ms < 10000 && !committed.load(); ++ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(committed.load())
        << "the writer waited for a live transaction to end";
    EXPECT_TRUE(tm_end(sh, reader));
    writer.join();
    tm_destroy(sh);
}

/** A slot cached for a destroyed region must not count into it: a
 *  new region at the recycled address starts from zero and counts
 *  only its own commits. */
TEST(NativeLibCreate, StatsAreFreshWhenARegionReusesAnAddress)
{
    for (int i = 0; i < 4; ++i) {
        shared_t sh = tm_create_with(1024, 8, Backend::Tl2);
        ASSERT_NE(sh, invalid_shared);
        EXPECT_EQ(tm_stats(sh).commits, 0u);
        runTxn(sh, true, [&](tx_t tx) {
            std::uint64_t v;
            return tm_read(sh, tx, tm_start(sh), sizeof v, &v);
        });
        EXPECT_EQ(tm_stats(sh).commits, 1u) << "region " << i;
        tm_destroy(sh);
    }
}

TEST_P(NativeLib, RegionStartsZeroedAndCommitsStick)
{
    shared_t sh = tm_create_with(1024, 8, GetParam());
    ASSERT_NE(sh, invalid_shared);
    EXPECT_EQ(tm_size(sh), 1024u);
    EXPECT_EQ(tm_align(sh), 8u);
    auto *words = static_cast<std::uint64_t *>(tm_start(sh));
    ASSERT_NE(words, nullptr);

    runTxn(sh, false, [&](tx_t tx) {
        bool ok;
        if (readWord(sh, tx, &words[0], &ok) != 0 && ok)
            ADD_FAILURE() << "fresh region not zeroed";
        if (!ok)
            return false;
        const std::uint64_t v = 42;
        if (!tm_write(sh, tx, &v, sizeof v, &words[0]))
            return false;
        // Write-set hit: the transaction must see its own write.
        const std::uint64_t back = readWord(sh, tx, &words[0], &ok);
        if (ok && back != 42)
            ADD_FAILURE() << "own write invisible: " << back;
        return ok;
    });

    // A later read-only transaction sees the committed value.
    runTxn(sh, true, [&](tx_t tx) {
        bool ok;
        const std::uint64_t v = readWord(sh, tx, &words[0], &ok);
        if (ok) {
            EXPECT_EQ(v, 42u);
        }
        return ok;
    });

    tm_destroy(sh);
}

TEST_P(NativeLib, SubWordAlignmentChunksAccesses)
{
    shared_t sh = tm_create_with(64, 2, GetParam());
    ASSERT_NE(sh, invalid_shared);
    auto *base = static_cast<std::uint16_t *>(tm_start(sh));

    const std::uint16_t in[4] = {11, 22, 33, 44};
    runTxn(sh, false, [&](tx_t tx) {
        return tm_write(sh, tx, in, sizeof in, base);
    });
    std::uint16_t out[4] = {};
    runTxn(sh, true, [&](tx_t tx) {
        return tm_read(sh, tx, base, sizeof out, out);
    });
    EXPECT_EQ(std::memcmp(in, out, sizeof in), 0);

    tm_destroy(sh);
}

TEST_P(NativeLib, AllocatedSegmentsAreZeroedAndWritable)
{
    shared_t sh = tm_create_with(64, 8, GetParam());
    ASSERT_NE(sh, invalid_shared);

    void *seg = nullptr;
    runTxn(sh, false, [&](tx_t tx) {
        if (tm_alloc(sh, tx, 128, &seg) != Alloc::success) {
            ADD_FAILURE() << "tm_alloc failed";
            return true;
        }
        auto *w = static_cast<std::uint64_t *>(seg);
        bool ok;
        if (readWord(sh, tx, &w[3], &ok) != 0 && ok)
            ADD_FAILURE() << "fresh segment not zeroed";
        if (!ok)
            return false;
        const std::uint64_t v = 7;
        return tm_write(sh, tx, &v, sizeof v, &w[3]);
    });
    ASSERT_NE(seg, nullptr);

    runTxn(sh, false, [&](tx_t tx) {
        auto *w = static_cast<std::uint64_t *>(seg);
        bool ok;
        const std::uint64_t v = readWord(sh, tx, &w[3], &ok);
        if (ok) {
            EXPECT_EQ(v, 7u);
        }
        if (!ok)
            return false;
        // Free is deferred to tm_destroy; the call itself commits.
        return tm_free(sh, tx, seg);
    });

    tm_destroy(sh);
}

/** The TL2 opacity core: a reader whose snapshot a committed writer
 *  has invalidated gets `false` from tm_read, never a mixed view. */
TEST(NativeLibTl2, StaleSnapshotReadAborts)
{
    shared_t sh = tm_create_with(1024, 8, Backend::Tl2);
    ASSERT_NE(sh, invalid_shared);
    auto *words = static_cast<std::uint64_t *>(tm_start(sh));

    tx_t reader = tm_begin(sh, true);
    bool ok;
    EXPECT_EQ(readWord(sh, reader, &words[0], &ok), 0u);
    ASSERT_TRUE(ok);

    // Another thread commits a write to words[1] (bumping the clock
    // past the reader's snapshot).
    std::thread writer([&] {
        runTxn(sh, false, [&](tx_t tx) {
            const std::uint64_t v = 99;
            return tm_write(sh, tx, &v, sizeof v, &words[1]);
        });
    });
    writer.join();

    // The reader's snapshot can no longer cover words[1]: the read
    // must abort (returning false kills the transaction; tm_end is
    // not called).
    EXPECT_FALSE(tm_read(sh, reader, &words[1], 8, &ok));

    // The thread can start fresh and see the committed value.
    runTxn(sh, true, [&](tx_t tx) {
        bool rok;
        const std::uint64_t v = readWord(sh, tx, &words[1], &rok);
        if (rok) {
            EXPECT_EQ(v, 99u);
        }
        return rok;
    });

    // Exactly one abort, counted as "version too new"; the writer and
    // the final reader committed.
    const Stats st = tm_stats(sh);
    EXPECT_EQ(st.readTooNew, 1u);
    EXPECT_EQ(st.aborts(), 1u);
    EXPECT_EQ(st.commits, 2u);

    tm_destroy(sh);
}

/** A writer whose read set another thread invalidated fails
 *  commit-time validation (not a read) and restores its locks. */
TEST(NativeLibTl2, InvalidatedReadSetFailsCommitValidation)
{
    shared_t sh = tm_create_with(1024, 8, Backend::Tl2);
    ASSERT_NE(sh, invalid_shared);
    auto *words = static_cast<std::uint64_t *>(tm_start(sh));

    tx_t tx = tm_begin(sh, false);
    bool ok;
    readWord(sh, tx, &words[0], &ok);
    ASSERT_TRUE(ok);
    const std::uint64_t mine = 5;
    ASSERT_TRUE(tm_write(sh, tx, &mine, sizeof mine, &words[2]));

    std::thread writer([&] {
        runTxn(sh, false, [&](tx_t w) {
            const std::uint64_t v = 1;
            return tm_write(sh, w, &v, sizeof v, &words[0]);
        });
    });
    writer.join();
    EXPECT_FALSE(tm_end(sh, tx));

    Stats st = tm_stats(sh);
    EXPECT_EQ(st.commitValidation, 1u);
    EXPECT_EQ(st.aborts(), 1u);
    EXPECT_EQ(st.commits, 1u);

    // The failed commit released words[2]'s stripe: a retry commits.
    runTxn(sh, false, [&](tx_t w) {
        return tm_write(sh, w, &mine, sizeof mine, &words[2]);
    });
    st = tm_stats(sh);
    EXPECT_EQ(st.commits, 2u);
    EXPECT_EQ(st.aborts(), 1u);

    tm_destroy(sh);
}

/** A warmed-up thread runs TL2 transactions without touching the
 *  heap: read-only ones, and writers whose write sets span several
 *  stripes, so commit sorts both its stripe locks and its redo log. */
TEST(NativeLibTl2, WarmTransactionsDoNotAllocate)
{
    constexpr unsigned kTxns = 1000;
    constexpr unsigned kWords = 16;
    constexpr unsigned kSpan = 4;  // words per transaction
    shared_t sh = invalid_shared;
    {
        // The count must see the library's own allocations, or the
        // zero below would prove nothing.
        HeapCount count;
        sh = tm_create_with(1024, 8, Backend::Tl2);
        EXPECT_GT(count.news(), 0u);
    }
    ASSERT_NE(sh, invalid_shared);
    auto *words = static_cast<std::uint64_t *>(tm_start(sh));

    // Even i: read kSpan words.  Odd i: add 1 to each of kSpan
    // adjacent words, which hash to kSpan stripes, so commit runs
    // both the lock sort and the write-back sort.
    const auto txn = [&](unsigned i) {
        const unsigned base = i % kWords;
        runTxn(sh, i % 2 == 0, [&](tx_t tx) {
            for (unsigned k = kSpan; k-- > 0;) {
                std::uint64_t *w = &words[(base + k) % kWords];
                bool ok;
                std::uint64_t v = readWord(sh, tx, w, &ok);
                if (!ok)
                    return false;
                ++v;
                if (i % 2 == 1 && !tm_write(sh, tx, &v, sizeof v, w))
                    return false;
            }
            return true;
        });
    };

    for (unsigned i = 0; i < kTxns; ++i)  // warm-up: size every buffer
        txn(i);
    std::uint64_t news = 0;
    {
        HeapCount count;
        for (unsigned i = 0; i < kTxns; ++i)
            txn(i);
        news = count.news();
    }
    EXPECT_EQ(news, 0u);

    // Both rounds' kTxns / 2 writers each added 1 to kSpan words.
    std::uint64_t sum = 0;
    for (unsigned k = 0; k < kWords; ++k)
        sum += words[k];
    EXPECT_EQ(sum, std::uint64_t{kTxns} * kSpan);
    EXPECT_EQ(tm_stats(sh).commits, 2u * kTxns);

    tm_destroy(sh);
}

// ---------------------------------------------------------------
// Dead handles: one death test per entry point that takes a tx_t.
// ---------------------------------------------------------------

/** Begin a TL2 transaction and doom it: another thread commits a
 *  write past its snapshot, so its next tm_read returns false. */
tx_t
abortedTx(shared_t sh)
{
    auto *words = static_cast<std::uint64_t *>(tm_start(sh));
    tx_t tx = tm_begin(sh, false);
    bool ok;
    readWord(sh, tx, &words[0], &ok);
    std::thread writer([&] {
        runTxn(sh, false, [&](tx_t w) {
            const std::uint64_t v = 7;
            return tm_write(sh, w, &v, sizeof v, &words[1]);
        });
    });
    writer.join();
    std::uint64_t v;
    EXPECT_FALSE(tm_read(sh, tx, &words[1], sizeof v, &v));
    return tx;
}

/** tm_begin's back-off: after k consecutive aborts on a slot it
 *  spins a random number of pauses in [0, 2^min(k, 10)), and a
 *  commit resets k. */
TEST(NativeLibTl2, BackoffGrowsWithTheAbortStreakAndResetsOnCommit)
{
    constexpr unsigned kStreak = 8;
    constexpr unsigned kCap = 10;  // tm.hh's documented window cap
    shared_t sh = tm_create_with(1024, 8, Backend::Tl2);
    ASSERT_NE(sh, invalid_shared);
    auto *words = static_cast<std::uint64_t *>(tm_start(sh));
    const auto readOnce = [&](tx_t tx) {
        bool ok;
        readWord(sh, tx, &words[0], &ok);
        return ok;
    };

    // kStreak forced aborts in a row; the commit's tm_begin then
    // backs off for a streak of kStreak.
    for (unsigned i = 0; i < kStreak; ++i)
        abortedTx(sh);
    runTxn(sh, true, readOnce);

    const Stats st = tm_stats(sh);
    EXPECT_EQ(st.readTooNew, kStreak);
    EXPECT_EQ(st.aborts(), kStreak);
    std::uint64_t bound = 0;
    for (unsigned k = 1; k <= kStreak; ++k)
        bound += (std::uint64_t{1} << std::min(k, kCap)) - 1;
    EXPECT_GT(st.backoffPauses, 0u);
    EXPECT_LE(st.backoffPauses, bound);

    // The commit reset the streak: one more abort (a streak of 1)
    // buys the next tm_begin at most 2^1 - 1 pauses.
    abortedTx(sh);
    runTxn(sh, true, readOnce);
    EXPECT_LE(tm_stats(sh).backoffPauses - st.backoffPauses, 1u);

    tm_destroy(sh);
}

class NativeLibDeadHandleDeath : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Re-run the test in the child: the doomed handle needs a
        // writer thread, and fork() only copies the calling one.
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
        sh = tm_create_with(1024, 8, Backend::Tl2);
        ASSERT_NE(sh, invalid_shared);
        words = static_cast<std::uint64_t *>(tm_start(sh));
    }

    void TearDown() override { tm_destroy(sh); }

    shared_t sh = invalid_shared;
    std::uint64_t *words = nullptr;
};

TEST_F(NativeLibDeadHandleDeath, ReadAfterCommitIsFatal)
{
    tx_t tx = tm_begin(sh, true);
    ASSERT_TRUE(tm_end(sh, tx));
    std::uint64_t v;
    EXPECT_DEATH(tm_read(sh, tx, &words[0], 8, &v), "not live");
}

TEST_F(NativeLibDeadHandleDeath, WriteAfterAbortIsFatal)
{
    // The scenario that used to publish the write: ignoring the
    // abort, tm_write returned true and tm_end committed it.
    tx_t tx = abortedTx(sh);
    const std::uint64_t v = 7;
    EXPECT_DEATH(tm_write(sh, tx, &v, 8, &words[2]), "not live");
}

TEST_F(NativeLibDeadHandleDeath, EndAfterAbortIsFatal)
{
    tx_t tx = abortedTx(sh);
    EXPECT_DEATH(tm_end(sh, tx), "not live");
}

TEST_F(NativeLibDeadHandleDeath, AllocWithAnotherRegionsHandleIsFatal)
{
    shared_t other = tm_create_with(1024, 8, Backend::Tl2);
    ASSERT_NE(other, invalid_shared);
    tx_t tx = tm_begin(other, false);
    void *seg = nullptr;
    EXPECT_DEATH(tm_alloc(sh, tx, 64, &seg), "not live");
    EXPECT_TRUE(tm_end(other, tx));
    tm_destroy(other);
}

TEST_F(NativeLibDeadHandleDeath, FreeAfterCommitIsFatal)
{
    tx_t tx = tm_begin(sh, false);
    void *seg = nullptr;
    ASSERT_EQ(tm_alloc(sh, tx, 64, &seg), Alloc::success);
    ASSERT_TRUE(tm_end(sh, tx));
    EXPECT_DEATH(tm_free(sh, tx, seg), "not live");
}

// ---------------------------------------------------------------
// Read-only handles: tm_begin(is_ro=true) promises no tm_write,
// tm_alloc or tm_free, and breaking the promise is fatal.
// ---------------------------------------------------------------

using NativeLibReadOnlyDeath = NativeLibDeadHandleDeath;

TEST_F(NativeLibReadOnlyDeath, WriteIsFatal)
{
    tx_t tx = tm_begin(sh, true);
    const std::uint64_t v = 7;
    EXPECT_DEATH(tm_write(sh, tx, &v, 8, &words[0]), "is_ro=true");
    EXPECT_TRUE(tm_end(sh, tx));
}

TEST_F(NativeLibReadOnlyDeath, AllocIsFatal)
{
    tx_t tx = tm_begin(sh, true);
    void *seg = nullptr;
    EXPECT_DEATH(tm_alloc(sh, tx, 64, &seg), "is_ro=true");
    EXPECT_TRUE(tm_end(sh, tx));
}

TEST_F(NativeLibReadOnlyDeath, FreeIsFatal)
{
    void *seg = nullptr;
    runTxn(sh, false, [&](tx_t tx) {
        return tm_alloc(sh, tx, 64, &seg) == Alloc::success;
    });
    ASSERT_NE(seg, nullptr);
    tx_t tx = tm_begin(sh, true);
    EXPECT_DEATH(tm_free(sh, tx, seg), "is_ro=true");
    EXPECT_TRUE(tm_end(sh, tx));
}

// ---------------------------------------------------------------
// Alignment: every tm_read/tm_write address and size must be a
// multiple of the region's alignment.  A misaligned 8-byte access
// spans two granules, and TL2 would lock and validate only the first
// one's stripe.
// ---------------------------------------------------------------

using NativeLibAlignmentDeath = NativeLibDeadHandleDeath;

TEST_F(NativeLibAlignmentDeath, MisalignedReadIsFatal)
{
    tx_t tx = tm_begin(sh, true);
    std::uint64_t v;
    EXPECT_DEATH(tm_read(sh, tx, reinterpret_cast<char *>(words) + 4, 8,
                         &v),
                 "tm_read address or size is not a multiple");
    EXPECT_TRUE(tm_end(sh, tx));
}

TEST_F(NativeLibAlignmentDeath, MisalignedWriteIsFatal)
{
    tx_t tx = tm_begin(sh, false);
    const std::uint64_t v = 7;
    EXPECT_DEATH(tm_write(sh, tx, &v, 8,
                          reinterpret_cast<char *>(words) + 4),
                 "tm_write address or size is not a multiple");
    EXPECT_TRUE(tm_end(sh, tx));
}

TEST_F(NativeLibAlignmentDeath, BadReadSizeIsFatal)
{
    tx_t tx = tm_begin(sh, true);
    std::uint64_t v;
    EXPECT_DEATH(tm_read(sh, tx, words, 4, &v),
                 "tm_read address or size is not a multiple");
    EXPECT_TRUE(tm_end(sh, tx));
}

TEST_F(NativeLibAlignmentDeath, BadWriteSizeIsFatal)
{
    tx_t tx = tm_begin(sh, false);
    const std::uint64_t v = 7;
    EXPECT_DEATH(tm_write(sh, tx, &v, 12, words),
                 "tm_write address or size is not a multiple");
    EXPECT_TRUE(tm_end(sh, tx));
}

TEST_P(NativeLib, ConcurrentCountersAreExactAndSerializable)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kIncrements = 2000;

    shared_t sh = tm_create_with(1024, 8, GetParam());
    ASSERT_NE(sh, invalid_shared);
    auto *words = static_cast<std::uint64_t *>(tm_start(sh));

    AccessLog log;
    tm_set_logging(sh, &log);

    std::atomic<unsigned> finished{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned i = 0; i < kIncrements; ++i) {
                runTxn(sh, false, [&](tx_t tx) {
                    // Two counters: the shared hot one and a
                    // per-thread one, so transactions have both
                    // conflicting and private footprints.
                    bool ok;
                    std::uint64_t hot =
                        readWord(sh, tx, &words[0], &ok);
                    if (!ok)
                        return false;
                    ++hot;
                    if (!tm_write(sh, tx, &hot, sizeof hot, &words[0]))
                        return false;
                    std::uint64_t mine =
                        readWord(sh, tx, &words[8 + t], &ok);
                    if (!ok)
                        return false;
                    ++mine;
                    return tm_write(sh, tx, &mine, sizeof mine,
                                    &words[8 + t]);
                });
            }
            finished.fetch_add(1, std::memory_order_release);
        });
    }
    // tm_stats may run beside live transactions (the tsan preset
    // checks its cross-thread counter reads); commits only grow.
    std::uint64_t seen = 0;
    while (finished.load(std::memory_order_acquire) < kThreads) {
        const std::uint64_t now = tm_stats(sh).commits;
        EXPECT_GE(now, seen);
        seen = now;
        std::this_thread::yield();
    }
    for (auto &th : threads)
        th.join();
    tm_set_logging(sh, nullptr);

    // Every transaction run commits exactly once; the global lock
    // never aborts, so it never backs off.
    const Stats st = tm_stats(sh);
    EXPECT_EQ(st.commits, std::uint64_t{kThreads} * kIncrements);
    if (GetParam() == Backend::GlobalLock) {
        EXPECT_EQ(st.aborts(), 0u);
        EXPECT_EQ(st.backoffPauses, 0u);
    }

    runTxn(sh, true, [&](tx_t tx) {
        bool ok;
        const std::uint64_t total = readWord(sh, tx, &words[0], &ok);
        if (ok) {
            EXPECT_EQ(total, std::uint64_t{kThreads} * kIncrements);
        }
        for (unsigned t = 0; ok && t < kThreads; ++t) {
            const std::uint64_t mine =
                readWord(sh, tx, &words[8 + t], &ok);
            if (ok) {
                EXPECT_EQ(mine, kIncrements) << "thread " << t;
            }
        }
        return ok;
    });

    EXPECT_EQ(log.committedTxns(),
              std::uint64_t{kThreads} * kIncrements);
    const AccessLog::Report rep = log.validate();
    EXPECT_TRUE(rep.ok) << rep.message;
    EXPECT_EQ(rep.checkedTxns, std::uint64_t{kThreads} * kIncrements);
    EXPECT_GT(rep.checkedOps, 0u);

    tm_destroy(sh);
}

INSTANTIATE_TEST_SUITE_P(Backends, NativeLib,
                         ::testing::Values(Backend::Tl2,
                                           Backend::GlobalLock),
                         [](const auto &info) {
                             return info.param == Backend::Tl2
                                        ? "Tl2"
                                        : "GlobalLock";
                         });

/** The checker itself must catch a cooked non-serializable history -
 *  otherwise every green validate() above is vacuous. */
TEST(NativeAccessLog, RejectsReadOfNeverWrittenValue)
{
    AccessLog log;
    log.commitTxn(2, false,
                  {AccessLog::Op{true, 0x1000, 5, 8}});
    log.commitTxn(4, true,
                  {AccessLog::Op{false, 0x1000, 7, 8}});
    const AccessLog::Report rep = log.validate();
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.message.find("0x1000"), std::string::npos)
        << rep.message;
}

TEST(NativeAccessLog, WritersSortBeforeReadersOnStampTies)
{
    // A read-only transaction stamped rv == some writer's wv began
    // after that writer committed, so it must replay after it.
    AccessLog log;
    log.commitTxn(6, true,
                  {AccessLog::Op{false, 0x2000, 3, 8}});
    log.commitTxn(6, false,
                  {AccessLog::Op{true, 0x2000, 3, 8}});
    const AccessLog::Report rep = log.validate();
    EXPECT_TRUE(rep.ok) << rep.message;
    EXPECT_EQ(rep.checkedTxns, 2u);
}

TEST(NativeAccessLog, AcceptsEmptyAndSeedsShadowAtZero)
{
    AccessLog log;
    EXPECT_TRUE(log.validate().ok);
    log.commitTxn(2, true,
                  {AccessLog::Op{false, 0x3000, 0, 8}});
    const AccessLog::Report rep = log.validate();
    EXPECT_TRUE(rep.ok) << rep.message;
}

} // anonymous namespace
} // namespace flextm::native
