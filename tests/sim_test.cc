/**
 * @file
 * Simulation-kernel unit tests: scheduler ordering and fairness,
 * barriers, the ready-heap dispatch contract, the fiber-switch
 * contract, the RNG/Zipf sampler, statistics, and the simulated memory
 * allocator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/rng.hh"
#include "sim/sim_memory.hh"
#include "sim/stats.hh"
#include "sim/thread.hh"

namespace flextm
{
namespace
{

TEST(SchedulerTest, RunsSingleThreadToCompletion)
{
    Scheduler s;
    int steps = 0;
    s.spawn(0, [&] {
        for (int i = 0; i < 10; ++i) {
            ++steps;
            s.advance(1);
            s.yield();
        }
    });
    s.run();
    EXPECT_EQ(steps, 10);
    EXPECT_EQ(s.maxClock(), 10u);
}

TEST(SchedulerTest, InterleavesByMinClock)
{
    Scheduler s;
    std::vector<int> order;
    // Thread 0 advances 10 per step, thread 1 advances 3 per step:
    // thread 1 must run more often early on.
    s.spawn(0, [&] {
        for (int i = 0; i < 3; ++i) {
            order.push_back(0);
            s.advance(10);
            s.yield();
        }
    });
    s.spawn(1, [&] {
        for (int i = 0; i < 10; ++i) {
            order.push_back(1);
            s.advance(3);
            s.yield();
        }
    });
    s.run();
    // First four entries: t0@0, t1@0, t1@3, t1@6, t1@9 ... exact
    // prefix: clocks 0,0 -> tie broken by spawn order (thread 0
    // first), then thread 1 runs until its clock passes 10.
    ASSERT_GE(order.size(), 6u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 1);
    EXPECT_EQ(order[3], 1);
    EXPECT_EQ(order[4], 1);
    // thread 1 at clock 12 > thread 0 at 10 -> thread 0 again
    EXPECT_EQ(order[5], 0);
}

TEST(SchedulerTest, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Scheduler s;
        std::vector<std::uint64_t> trace;
        for (unsigned t = 0; t < 4; ++t) {
            s.spawn(t, [&s, &trace, t] {
                Rng rng(100 + t);
                for (int i = 0; i < 50; ++i) {
                    trace.push_back(t * 1000 + s.now());
                    s.advance(1 + rng.nextInt(20));
                    s.yield();
                }
            });
        }
        s.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(SchedulerTest, BlockAndWake)
{
    Scheduler s;
    bool resumed = false;
    ThreadId sleeper = s.spawn(0, [&] {
        s.block();
        resumed = true;
    });
    s.spawn(1, [&] {
        s.advance(100);
        s.yield();
        s.wake(sleeper);
    });
    s.run();
    EXPECT_TRUE(resumed);
    // The woken thread was pulled forward to the waker's clock.
    EXPECT_GE(s.thread(sleeper).clock(), 100u);
}

TEST(SchedulerTest, BarrierReleasesAllParties)
{
    Scheduler s;
    SimBarrier bar(s, 3);
    int after = 0;
    for (unsigned t = 0; t < 3; ++t) {
        s.spawn(t, [&s, &bar, &after, t] {
            s.advance(t * 10);
            s.yield();
            bar.wait();
            ++after;
        });
    }
    s.run();
    EXPECT_EQ(after, 3);
}

TEST(SchedulerTest, BarrierReusable)
{
    Scheduler s;
    SimBarrier bar(s, 2);
    std::vector<int> log;
    for (unsigned t = 0; t < 2; ++t) {
        s.spawn(t, [&, t] {
            for (int round = 0; round < 3; ++round) {
                bar.wait();
                log.push_back(static_cast<int>(t));
            }
        });
    }
    s.run();
    EXPECT_EQ(log.size(), 6u);
}

// ---------------------------------------------------------------
// Ready-heap dispatch contract.  The heap core replaced an
// O(threads) scan that took the first runnable thread with the
// smallest clock; every expectation below was recorded from that
// scan core, so a failure here means the heap broke the dispatch
// order (a scheduler bug, not a golden to regenerate).
// ---------------------------------------------------------------

/** syncClock on a thread parked in the ready heap must re-sift it:
 *  thread 0 pushes thread 2's clock past thread 1's while thread 2
 *  is parked, which must change who runs next. */
TEST(SchedulerEquiv, SyncClockResiftsParkedThread)
{
    Scheduler s;
    std::vector<int> order;
    s.spawn(0, [&] {
        order.push_back(0);
        // Thread 2 is runnable at clock 0; shove it to 50 while it
        // sits in the ready queue.
        s.thread(2).syncClock(50);
        s.advance(5);
        s.yield();
        order.push_back(0);
    });
    s.spawn(1, [&] {
        order.push_back(1);
        s.advance(100);
        s.yield();
        order.push_back(1);
    });
    s.spawn(2, [&] {
        order.push_back(2);
        s.advance(1);
        s.yield();
        order.push_back(2);
    });
    s.run();
    // t0@0 runs, raises t2 to 50; t1@0, then t0@5 again (finishes),
    // then t2@50 runs and yields to 51, then t2@51, then t1@100.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 2, 2, 1}));
}

/** A barrier release wakes all parties at the releaser's clock; the
 *  tied threads must drain in thread-id order. */
TEST(SchedulerEquiv, WakeFromBlockedDispatchesInIdOrder)
{
    Scheduler s;
    SimBarrier bar(s, 4);
    std::vector<int> order;
    for (unsigned t = 0; t < 4; ++t) {
        s.spawn(t, [&s, &bar, &order, t] {
            // Distinct arrival clocks so the release point is reached
            // by exactly one thread.
            s.advance((3 - t) * 7 + 1);
            s.yield();
            bar.wait();
            order.push_back(static_cast<int>(t));
            s.advance(1);
            s.yield();
            order.push_back(static_cast<int>(t));
        });
    }
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

/** The schedule-window contract: exactly one RNG draw per dispatch
 *  that has more than one candidate inside the window, zero draws
 *  otherwise, candidates in tid order - hence the scan core's exact
 *  draw count and dispatch order. */
TEST(SchedulerEquiv, WindowDrawCountMatchesLegacy)
{
    FaultConfig cfg;
    cfg.seed = 1234;
    cfg.schedWindowCycles = 8;
    FaultPlan plan;
    plan.configure(cfg, 1);

    Scheduler s;
    s.setFaultPlan(&plan);
    std::string order;
    for (unsigned t = 0; t < 3; ++t) {
        s.spawn(t, [&s, &order, t] {
            for (int i = 0; i < 40; ++i) {
                order += static_cast<char>('0' + t);
                s.advance(3);  // clocks stay within the window
                s.yield();
            }
        });
    }
    s.run();
    // 3 threads x 40 steps = 120 dispatches; the last one, with a
    // single thread left, draws nothing.
    EXPECT_EQ(plan.pickCalls(), 119u);
    EXPECT_EQ(order,
              "211210200002021112200221112102200121200001112100102022"
              "112010102101212010220200212010222112112102110022002211"
              "110101220200");
}

/** A sole runnable thread never consults the RNG, window or not. */
TEST(SchedulerEquiv, SoleRunnableNeverDraws)
{
    FaultConfig cfg;
    cfg.seed = 99;
    cfg.schedWindowCycles = 64;
    FaultPlan plan;
    plan.configure(cfg, 1);

    Scheduler s;
    s.setFaultPlan(&plan);
    s.spawn(0, [&s] {
        for (int i = 0; i < 100; ++i) {
            s.advance(2);
            s.yield();
        }
    });
    s.run();
    EXPECT_EQ(plan.pickCalls(), 0u);
}

// ---------------------------------------------------------------
// Fiber-switch contract: what a fiber may keep in registers and FP
// control state across a yield, and how a fresh fiber is entered.
// ---------------------------------------------------------------

#if defined(__x86_64__)

/** The SSE and x87 control words: the FP state the x86-64 SysV ABI
 *  makes callee-saved. */
struct FpControl
{
    std::uint32_t mxcsr;
    std::uint16_t x87;
    bool operator==(const FpControl &) const = default;
};

FpControl
readFpControl()
{
    FpControl c{};
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(c.mxcsr), "=m"(c.x87));
    return c;
}

void
writeFpControl(const FpControl &c)
{
    asm volatile("ldmxcsr %0\n\tfldcw %1" : : "m"(c.mxcsr), "m"(c.x87));
}

/** A fiber's rounding mode and x87 precision are its own: it finds
 *  them again after a yield, while the other fiber and the host keep
 *  theirs, even once the changed fiber has exited. */
TEST(FiberSwitchTest, FpControlStateStaysPerFiber)
{
    const FpControl host = readFpControl();
    FpControl changed = host;
    changed.mxcsr |= 0x6000;                       // RC: toward zero
    changed.x87 = (host.x87 & ~0x0300u) | 0x0200u; // PC: 53-bit
    ASSERT_FALSE(changed == host);

    Scheduler s;
    FpControl otherSaw{}, resumedWith{};
    s.spawn(0, [&] {
        writeFpControl(changed);
        s.advance(1);
        s.yield();  // thread 1 is still at clock 0: hand over
        resumedWith = readFpControl();
    });
    s.spawn(1, [&] {
        otherSaw = readFpControl();
        s.advance(2);
        s.yield();
    });
    s.run();
    const FpControl hostAfter = readFpControl();
    writeFpControl(host);  // keep a broken switch out of later tests
    EXPECT_TRUE(otherSaw == host);
    EXPECT_TRUE(resumedWith == changed);
    EXPECT_TRUE(hostAfter == host);
}

#endif // __x86_64__

/** A function that sets up a frame pointer has a 16-byte aligned
 *  frame address exactly when its caller kept the ABI's stack
 *  alignment. */
[[gnu::noinline]] std::uintptr_t
frameAddress()
{
    return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

/** A fresh fiber is entered with the ABI's call alignment and keeps it
 *  across a switch out and back in. */
TEST(FiberSwitchTest, FreshFiberStackIsAligned)
{
    Scheduler s;
    std::vector<std::uintptr_t> frames;
    for (CoreId c = 0; c < 3; ++c) {
        s.spawn(c, [&] {
            frames.push_back(frameAddress());
            s.advance(1);
            s.yield();
            frames.push_back(frameAddress());
        });
    }
    s.run();
    ASSERT_EQ(frames.size(), 6u);
    for (std::uintptr_t f : frames)
        EXPECT_EQ(f % 16, 0u) << std::hex << f;
}

/** Keeps twelve integers live across @p rounds yields of @p s (no
 *  yields when @p s is null).  That is more than the six callee-saved
 *  registers, so both the registers and the spill slots must come back
 *  intact on every resume. */
[[gnu::noinline]] std::uint64_t
churnAcrossYields(Scheduler *s, std::uint64_t seed, unsigned rounds)
{
    std::uint64_t a = seed, b = seed * 3 + 1, c = seed * 5 + 2,
                  d = seed * 7 + 3, e = seed * 11 + 4, f = seed * 13 + 5,
                  g = seed * 17 + 6, h = seed * 19 + 7, i = seed * 23 + 8,
                  j = seed * 29 + 9, k = seed * 31 + 10, l = seed * 37 + 11;
    for (unsigned r = 0; r < rounds; ++r) {
        if (s) {
            s->advance(1);
            s->yield();
        }
        a += r;
        b ^= a;
        c += b;
        d ^= c;
        e += d;
        f ^= e;
        g += f;
        h ^= g;
        i += h;
        j ^= i;
        k += j;
        l ^= k;
        a = (a << 7 | a >> 57) + l;
    }
    return a + b + c + d + e + f + g + h + i + j + k + l;
}

/** Four fibers interleave yield by yield, each holding its own twelve
 *  values; every result must match a run without switches. */
TEST(FiberSwitchTest, CalleeSavedRegistersSurviveSwitches)
{
    constexpr unsigned kFibers = 4;
    constexpr unsigned kRounds = 1000;
    Scheduler s;
    std::uint64_t got[kFibers] = {};
    for (CoreId c = 0; c < kFibers; ++c) {
        s.spawn(c, [&s, &got, c] {
            got[c] = churnAcrossYields(&s, 1000 + c * 7919, kRounds);
        });
    }
    s.run();
    EXPECT_EQ(s.maxClock(), kRounds);
    for (unsigned c = 0; c < kFibers; ++c) {
        EXPECT_EQ(got[c], churnAcrossYields(nullptr, 1000 + c * 7919,
                                            kRounds))
            << "fiber " << c;
    }
}

TEST(RngTest, DeterministicPerSeed)
{
    Rng a(7), b(7), c(8);
    bool all_same = true;
    bool any_diff_c = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        if (va != b.next())
            all_same = false;
        if (va != c.next())
            any_diff_c = true;
    }
    EXPECT_TRUE(all_same);
    EXPECT_TRUE(any_diff_c);
}

TEST(RngTest, BoundsRespected)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.nextInt(17), 17u);
        const auto v = r.nextRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(ZipfTest, HeavilySkewedTowardsZero)
{
    ZipfSampler zipf(2048, 2.0);
    Rng rng(5);
    unsigned zero_hits = 0;
    const unsigned n = 20000;
    for (unsigned i = 0; i < n; ++i) {
        if (zipf.sample(rng) == 0)
            ++zero_hits;
    }
    // p(0) = (1/1) / sum j^-2 ~ 0.61
    const double frac = static_cast<double>(zero_hits) / n;
    EXPECT_GT(frac, 0.55);
    EXPECT_LT(frac, 0.68);
}

TEST(ZipfTest, AllValuesInRange)
{
    ZipfSampler zipf(16, 2.0);
    Rng rng(9);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(zipf.sample(rng), 16u);
}

TEST(HistogramTest, MedianAndPercentiles)
{
    Histogram h;
    for (std::uint64_t v : {5u, 1u, 9u, 3u, 7u})
        h.add(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 9u);
    EXPECT_EQ(h.median(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(HistogramTest, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.median(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(50.0), 0u);
    EXPECT_EQ(h.percentile(100.0), 0u);
}

TEST(HistogramTest, PercentileEdges)
{
    Histogram h;
    for (std::uint64_t v : {5u, 1u, 9u, 3u, 7u})
        h.add(v);
    // p = 0 is the minimum, p = 100 the maximum (no off-by-one past
    // the last sample), out-of-range values clamp.
    EXPECT_EQ(h.percentile(0.0), 1u);
    EXPECT_EQ(h.percentile(100.0), 9u);
    EXPECT_EQ(h.percentile(-3.0), 1u);
    EXPECT_EQ(h.percentile(250.0), 9u);
    EXPECT_EQ(h.percentile(50.0), h.median());
}

TEST(HistogramTest, PercentileSingleSample)
{
    Histogram h;
    h.add(4);
    EXPECT_EQ(h.percentile(0.0), 4u);
    EXPECT_EQ(h.percentile(50.0), 4u);
    EXPECT_EQ(h.percentile(100.0), 4u);
}

TEST(HistogramTest, PercentileNanIsDefined)
{
    // NaN compares false against both clamp bounds; without its own
    // branch it would reach the float->integer cast (UB).  It
    // answers like p = 0.
    Histogram h;
    EXPECT_EQ(h.percentile(std::nan("")), 0u);
    h.add(3);
    h.add(8);
    EXPECT_EQ(h.percentile(std::nan("")), 3u);
}

TEST(HistogramTest, PercentileOverflowBucketsOnly)
{
    // Every sample lands above kExact: percentiles come from the
    // overflow buckets' means, and p = 100 is the true maximum.
    Histogram h;
    h.add(1000);
    h.add(1000);
    h.add(100000);
    EXPECT_EQ(h.min(), 1000u);
    EXPECT_EQ(h.max(), 100000u);
    EXPECT_EQ(h.percentile(0.0), 1000u);
    EXPECT_EQ(h.percentile(50.0), 1000u);
    EXPECT_EQ(h.percentile(100.0), 100000u);
}

TEST(StatRegistryTest, CountersIndependent)
{
    StatRegistry r;
    ++r.counter("a");
    r.counter("b") += 5;
    EXPECT_EQ(r.counterValue("a"), 1u);
    EXPECT_EQ(r.counterValue("b"), 5u);
    EXPECT_EQ(r.counterValue("missing"), 0u);
}

TEST(SimMemoryTest, AllocateAlignedAndDistinct)
{
    SimMemory mem(4u << 20);
    std::set<Addr> seen;
    for (int i = 0; i < 100; ++i) {
        const Addr a = mem.allocate(64, 64);
        EXPECT_EQ(a % 64, 0u);
        EXPECT_TRUE(seen.insert(a).second);
    }
    EXPECT_EQ(mem.liveAllocations(), 100u);
}

TEST(SimMemoryTest, FreeCoalescesAndReuses)
{
    SimMemory mem(4u << 20);
    const Addr a = mem.allocate(128, 64);
    const Addr b = mem.allocate(128, 64);
    const Addr c = mem.allocate(128, 64);
    (void)c;
    mem.free(a);
    mem.free(b);
    // A coalesced block can satisfy a larger request at a's address.
    const Addr d = mem.allocate(256, 64);
    EXPECT_EQ(d, a);
}

TEST(SimMemoryTest, DataRoundTrip)
{
    SimMemory mem(4u << 20);
    const Addr a = mem.allocate(64, 64);
    mem.store<std::uint64_t>(a, 0xdeadbeefULL);
    EXPECT_EQ(mem.load<std::uint64_t>(a), 0xdeadbeefULL);
    mem.store<std::uint32_t>(a + 8, 42);
    EXPECT_EQ(mem.load<std::uint32_t>(a + 8), 42u);
}

TEST(SimMemoryTest, AddressZeroNeverAllocated)
{
    SimMemory mem(4u << 20);
    for (int i = 0; i < 50; ++i)
        EXPECT_NE(mem.allocate(8), 0u);
}

TEST(SimMemoryDeathTest, NullDereferencePanics)
{
    SimMemory mem(4u << 20);
    std::uint64_t v;
    EXPECT_DEATH(mem.read(0, &v, 8), "null simulated pointer");
}

TEST(SimMemoryDeathTest, DoubleFreePanics)
{
    SimMemory mem(4u << 20);
    const Addr a = mem.allocate(64);
    mem.free(a);
    EXPECT_DEATH(mem.free(a), "free of unallocated");
}

} // anonymous namespace
} // namespace flextm
