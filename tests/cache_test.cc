/**
 * @file
 * L1 / L2 cache structure unit tests: set indexing, LRU, victim
 * buffer behaviour, flash commit/abort over the T bits, and
 * directory entry bookkeeping.
 */

#include <gtest/gtest.h>

#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "runtime/machine.hh"

namespace flextm
{
namespace
{

// ---- L1 ---------------------------------------------------------------

TEST(L1CacheTest, GeometryFromConfig)
{
    L1Cache l1(32 * 1024, 2, 32, false);
    EXPECT_EQ(l1.sets(), 32u * 1024 / (64 * 2));
    EXPECT_EQ(l1.ways(), 2u);
}

TEST(L1CacheTest, AllocateAndProbe)
{
    L1Cache l1(4096, 2, 4, false);
    L1Line &l = l1.allocate(0x1000, 1, [](L1Line &) {
        FAIL() << "no eviction expected";
    });
    l.state = LineState::S;
    EXPECT_EQ(l1.probe(0x1008), &l);  // same line
    EXPECT_EQ(l1.probe(0x1040), nullptr);
}

TEST(L1CacheTest, SetConflictGoesToVictimBuffer)
{
    // 4096B, 2-way -> 32 sets; stride 32*64 = 2048.
    L1Cache l1(4096, 2, 4, false);
    const Addr stride = 32 * 64;
    for (unsigned i = 0; i < 4; ++i) {
        L1Line &l = l1.allocate(
            0x10000 + i * stride, i,
            [](L1Line &) { FAIL() << "victim buffer absorbs"; });
        l.state = LineState::S;
    }
    // All four still visible (2 in set, 2 in victim buffer).
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_NE(l1.probe(0x10000 + i * stride), nullptr) << i;
}

TEST(L1CacheTest, VictimOverflowEvictsForReal)
{
    L1Cache l1(4096, 2, 4, false);
    const Addr stride = 32 * 64;
    std::vector<Addr> evicted;
    for (unsigned i = 0; i < 10; ++i) {
        L1Line &l = l1.allocate(0x10000 + i * stride, i,
                                [&](L1Line &v) {
                                    evicted.push_back(v.base);
                                });
        l.state = LineState::S;
    }
    // 2 ways + 4 victim entries = 6 resident; 4 evicted.
    EXPECT_EQ(evicted.size(), 4u);
}

TEST(L1CacheTest, EvictionPrefersNonSpeculativeLines)
{
    L1Cache l1(4096, 2, 2, false);
    const Addr stride = 32 * 64;
    // Two TMI lines (oldest) then non-speculative fills.
    std::vector<LineState> evicted_states;
    for (unsigned i = 0; i < 8; ++i) {
        L1Line &l = l1.allocate(0x10000 + i * stride, i,
                                [&](L1Line &v) {
                                    evicted_states.push_back(v.state);
                                });
        l.state = i < 2 ? LineState::TMI : LineState::S;
    }
    ASSERT_FALSE(evicted_states.empty());
    // The first victims must be S lines despite TMI being older.
    EXPECT_EQ(evicted_states.front(), LineState::S);
}

TEST(L1CacheTest, UnboundedVictimNeverEvicts)
{
    L1Cache l1(4096, 2, 2, true);
    const Addr stride = 32 * 64;
    for (unsigned i = 0; i < 50; ++i) {
        L1Line &l = l1.allocate(0x10000 + i * stride, i,
                                [](L1Line &) {
                                    FAIL() << "unbounded mode";
                                });
        l.state = LineState::TMI;
    }
    EXPECT_EQ(l1.countState(LineState::TMI), 50u);
}

TEST(L1CacheTest, FlashCommitRevertsTbits)
{
    L1Cache l1(4096, 2, 4, false);
    auto &a = l1.allocate(0x1000, 1, [](L1Line &) {});
    a.state = LineState::TMI;
    auto &b = l1.allocate(0x2000, 2, [](L1Line &) {});
    b.state = LineState::TI;
    auto &c = l1.allocate(0x3000, 3, [](L1Line &) {});
    c.state = LineState::M;
    l1.flashCommit();
    EXPECT_EQ(l1.probe(0x1000)->state, LineState::M);
    EXPECT_EQ(l1.probe(0x2000), nullptr);  // TI -> I
    EXPECT_EQ(l1.probe(0x3000)->state, LineState::M);
}

TEST(L1CacheTest, FlashAbortDropsSpeculation)
{
    L1Cache l1(4096, 2, 4, false);
    auto &a = l1.allocate(0x1000, 1, [](L1Line &) {});
    a.state = LineState::TMI;
    auto &b = l1.allocate(0x2000, 2, [](L1Line &) {});
    b.state = LineState::TI;
    auto &c = l1.allocate(0x3000, 3, [](L1Line &) {});
    c.state = LineState::E;
    l1.flashAbort();
    EXPECT_EQ(l1.probe(0x1000), nullptr);
    EXPECT_EQ(l1.probe(0x2000), nullptr);
    EXPECT_EQ(l1.probe(0x3000)->state, LineState::E);
}

TEST(L1CacheTest, LruVictimSelection)
{
    L1Cache l1(4096, 2, 1, false);
    const Addr stride = 32 * 64;
    auto &a = l1.allocate(0x10000 + 0 * stride, 10, [](L1Line &) {});
    a.state = LineState::S;
    auto &b = l1.allocate(0x10000 + 1 * stride, 20, [](L1Line &) {});
    b.state = LineState::S;
    // Touch the older line so the other becomes LRU.
    l1.find(0x10000 + 0 * stride, 30);
    L1Line &c = l1.allocate(0x10000 + 2 * stride, 40, [](L1Line &) {});
    c.state = LineState::S;
    // b (lastUse 20) was displaced into the victim buffer; all three
    // still probe-able.
    EXPECT_NE(l1.probe(0x10000 + 1 * stride), nullptr);
}

// ---- L2 ---------------------------------------------------------------

TEST(L2CacheTest, AllocateFindRoundTrip)
{
    L2Cache l2(1 << 20, 8);
    L2Line &l = l2.allocate(0x4000, 1, [](L2Line &) {});
    EXPECT_TRUE(l.valid);
    EXPECT_EQ(l2.find(0x4010, 2), &l);
}

TEST(L2CacheTest, EvictionPrefersUncachedLines)
{
    // 8 KB, 2-way -> 64 sets; stride 64*64 = 4096.
    L2Cache l2(8192, 2);
    L2Line &a = l2.allocate(0x10000, 1, [](L2Line &) {});
    a.dir.sharers = 0x3;  // cached in two L1s
    L2Line &b = l2.allocate(0x10000 + 4096, 2, [](L2Line &) {});
    b.dir.clear();  // no L1 copies
    const Addr b_base = b.base;

    std::vector<Addr> evicted;
    l2.allocate(0x10000 + 2 * 4096, 3,
                [&](L2Line &v) { evicted.push_back(v.base); });
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], b_base);  // the uncached one went
}

TEST(L2CacheTest, DirEntryBookkeeping)
{
    DirEntry d;
    EXPECT_FALSE(d.anyCached());
    d.sharers = 0x5;
    EXPECT_TRUE(d.anyCached());
    d.clear();
    d.exclusive = 3;
    EXPECT_TRUE(d.anyCached());
    d.clear();
    d.owners = 0x10;
    EXPECT_TRUE(d.anyCached());
}

// ---- Writeback economy ------------------------------------------------

/** Dirty a line, then walk enough same-set lines to evict it from a
 *  tiny L2.  Returns the machine so the caller can read counters. */
std::unique_ptr<Machine>
forceDirtyL2Eviction(MemBackendKind backend)
{
    MachineConfig cfg;
    cfg.cores = 1;
    cfg.l2Bytes = 8192;
    cfg.l2Ways = 2;
    cfg.memoryBytes = 4u << 20;
    cfg.memBackend = backend;
    auto m = std::make_unique<Machine>(cfg);

    const unsigned sets =
        static_cast<unsigned>(cfg.l2Bytes / lineBytes / cfg.l2Ways);
    const Addr stride = Addr{sets} * lineBytes;
    const Addr base = m->memory().allocate(8 * stride, lineBytes);

    Cycles now = 0;
    std::uint64_t v = 0xd1;
    // Dirty the victim-to-be in the L1 (M state)...
    now += m->memsys()
               .access(0, AccessType::Store, base, 8, &v, now)
               .latency;
    // ...then overrun its L2 set so the eviction recalls the dirty
    // copy and has to write it back to memory.
    for (unsigned i = 1; i <= 4; ++i) {
        now += m->memsys()
                   .access(0, AccessType::Load, base + i * stride, 8,
                           &v, now)
                   .latency;
    }
    EXPECT_GT(m->stats().counterValue("l2.evictions"), 0u);
    return m;
}

TEST(WritebackEconomy, DirtyL2EvictionsReachTheDramBackend)
{
    auto m = forceDirtyL2Eviction(MemBackendKind::Dram);
    // The dirty eviction was posted to the backend's write queue.
    EXPECT_GT(m->stats().counterValue("dram.writes"), 0u);
}

TEST(WritebackEconomy, FixedBackendKeepsWritebacksFree)
{
    auto m = forceDirtyL2Eviction(MemBackendKind::Fixed);
    // Legacy model: no DRAM machinery, and nothing is ever charged
    // for the writeback (the goldens pin overall timing).
    EXPECT_EQ(m->stats().counterValue("dram.writes"), 0u);
    EXPECT_EQ(m->stats().counterValue("dram.reads"), 0u);
}

} // anonymous namespace
} // namespace flextm
