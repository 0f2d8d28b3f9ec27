/**
 * @file
 * Runtime-layer behaviour tests: the FlexTM commit routine
 * (Figure 3), conflict-manager interactions, strong isolation at the
 * runtime level, TSW life cycle, and the characteristic mechanics of
 * the TL2 / RSTM / RTM-F baselines.
 */

#include <gtest/gtest.h>

#include "runtime/runtime_factory.hh"

namespace flextm
{
namespace
{

MachineConfig
cfg4()
{
    MachineConfig c;
    c.cores = 4;
    c.memoryBytes = 64u << 20;
    return c;
}

/** Lazy mode: the committing writer aborts a conflicting writer via
 *  its TSW; the victim retries and eventually commits. */
TEST(FlexTmRuntime, LazyCommitKillsConflictingWriter)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    auto ta = f.makeThread(0, 0);
    auto tb = f.makeThread(1, 1);
    SimBarrier both_wrote(m.scheduler(), 2);

    unsigned b_attempts = 0;
    m.scheduler().spawn(0, [&] {
        ta->txn([&] {
            ta->store<std::uint64_t>(cell, 1);
            // Wait until B has also speculatively written, then
            // commit first: B must die.
            static bool waited = false;
            if (!waited) {
                waited = true;
                both_wrote.wait();
            }
        });
    });
    m.scheduler().spawn(1, [&] {
        tb->txn([&] {
            ++b_attempts;
            tb->store<std::uint64_t>(cell, 2);
            if (b_attempts == 1) {
                both_wrote.wait();
                // Stall so A commits before we try to.
                tb->work(200000);
            }
        });
    });
    m.run();
    EXPECT_EQ(ta->commits(), 1u);
    EXPECT_EQ(tb->commits(), 1u);
    EXPECT_GE(b_attempts, 2u);  // B was killed at least once
    EXPECT_GE(m.stats().counterValue("flextm.commit_kills"), 1u);
    std::uint64_t v = 0;
    m.memsys().peek(cell, &v, 8);
    EXPECT_EQ(v, 2u);  // B retried after A and won
}

/** Readers that commit first do not get killed by the later writer
 *  (the CST self-clean hygiene of Section 3.6). */
TEST(FlexTmRuntime, ReaderCommittingFirstSurvives)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    auto reader = f.makeThread(0, 0);
    auto writer = f.makeThread(1, 1);
    SimBarrier writer_wrote(m.scheduler(), 2);
    SimBarrier reader_done(m.scheduler(), 2);

    m.scheduler().spawn(0, [&] {
        reader->txn([&] {
            static bool once = false;
            (void)reader->load<std::uint64_t>(cell);
            if (!once) {
                once = true;
                writer_wrote.wait();
            }
        });
        reader_done.wait();
    });
    m.scheduler().spawn(1, [&] {
        writer->txn([&] {
            static bool once = false;
            writer->store<std::uint64_t>(cell, 9);
            if (!once) {
                once = true;
                writer_wrote.wait();
                reader_done.wait();  // reader commits before us
            }
        });
    });
    m.run();
    EXPECT_EQ(reader->aborts(), 0u);
    EXPECT_EQ(writer->commits(), 1u);
    EXPECT_EQ(m.stats().counterValue("flextm.commit_kills"), 0u);
}

/** Eager mode routes conflicts through the Polka manager. */
TEST(FlexTmRuntime, EagerConflictInvokesManager)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::FlexTmEager);
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    auto ta = f.makeThread(0, 0);
    auto tb = f.makeThread(1, 1);
    SimBarrier a_wrote(m.scheduler(), 2);

    m.scheduler().spawn(0, [&] {
        ta->txn([&] {
            static bool once = false;
            ta->store<std::uint64_t>(cell, 1);
            if (!once) {
                once = true;
                a_wrote.wait();
                ta->work(100000);  // hold the conflict window open
            }
        });
    });
    m.scheduler().spawn(1, [&] {
        a_wrote.wait();
        tb->txn([&] { tb->store<std::uint64_t>(cell, 2); });
    });
    m.run();
    EXPECT_GE(m.stats().counterValue("flextm.eager_conflicts"), 1u);
    // Polka either waited the enemy out or aborted it.
    EXPECT_GE(m.stats().counterValue("cm.backoffs") +
                  m.stats().counterValue("cm.enemy_aborts"),
              1u);
    EXPECT_EQ(ta->commits(), 1u);
    EXPECT_EQ(tb->commits(), 1u);
}

/** The runtimes that own a core's trap vectors while a transaction
 *  runs on it. */
class StrongIsolation : public ::testing::TestWithParam<RuntimeKind>
{
};

/** A plain (non-transactional) write aborts a conflicting
 *  transaction through its runtime's strong-isolation handler. */
TEST_P(StrongIsolation, PlainWriteAbortsAndRetries)
{
    const RuntimeKind rk = GetParam();
    Machine m(cfg4());
    RuntimeFactory f(m, rk);
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    auto tx = f.makeThread(0, 0);
    auto plain = f.makeThread(1, 1);
    SimBarrier read_done(m.scheduler(), 2);
    SimBarrier plain_done(m.scheduler(), 2);

    unsigned attempts = 0;
    m.scheduler().spawn(0, [&] {
        tx->txn([&] {
            ++attempts;
            (void)tx->load<std::uint64_t>(cell);
            if (attempts == 1) {
                read_done.wait();
                plain_done.wait();
                // We must have been aborted by the plain write
                // before reaching here or at latest at commit.
            }
            tx->store<std::uint64_t>(cell + 8, 1);
        });
    });
    m.scheduler().spawn(1, [&] {
        read_done.wait();
        plain->store<std::uint64_t>(cell, 42);
        plain_done.wait();
    });
    m.run();
    EXPECT_GE(attempts, 2u);
    EXPECT_GE(m.stats().counterValue("si.aborts"), 1u);
    if (rk == RuntimeKind::FlexTmEager || rk == RuntimeKind::FlexTmLazy) {
        EXPECT_GE(m.stats().counterValue(
                      "flextm.strong_isolation_aborts"),
                  1u);
    }
    EXPECT_EQ(tx->commits(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    TrapOwners, StrongIsolation,
    ::testing::Values(RuntimeKind::FlexTmEager, RuntimeKind::FlexTmLazy,
                      RuntimeKind::RtmF, RuntimeKind::HyTm),
    [](const ::testing::TestParamInfo<RuntimeKind> &info) {
        std::string n = runtimeKindName(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/** The TSW goes active -> committed in simulated memory. */
TEST(FlexTmRuntime, TswLifecycle)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    auto t = f.makeThread(0, 0);
    auto *ft = static_cast<FlexTmThread *>(t.get());

    m.scheduler().spawn(0, [&] {
        t->txn([&] {
            t->store<std::uint64_t>(cell, 5);
            std::uint32_t tsw = 0;
            m.memsys().peek(ft->tswAddr(), &tsw, 4);
            EXPECT_EQ(tsw, static_cast<std::uint32_t>(TswActive));
        });
        std::uint32_t tsw = 0;
        m.memsys().peek(ft->tswAddr(), &tsw, 4);
        EXPECT_EQ(tsw, static_cast<std::uint32_t>(TswCommitted));
    });
    m.run();
}

/** Transactional frees only take effect on commit. */
TEST(FlexTmRuntime, TxFreeDeferredToCommit)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);
    auto t = f.makeThread(0, 0);

    m.scheduler().spawn(0, [&] {
        const Addr node = t->alloc(lineBytes, lineBytes);
        const std::size_t live_before =
            m.memory().liveAllocations();
        t->txn([&] {
            t->txFree(node);
            // Still allocated inside the transaction.
            EXPECT_EQ(m.memory().liveAllocations(), live_before);
        });
        EXPECT_EQ(m.memory().liveAllocations(), live_before - 1);
    });
    m.run();
}

// ---- TL2 ---------------------------------------------------------------

TEST(Tl2Runtime, ClockAdvancesOnWritingCommits)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::Tl2);
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    auto t = f.makeThread(0, 0);

    m.scheduler().spawn(0, [&] {
        for (int i = 0; i < 3; ++i) {
            t->txn([&] { t->store<std::uint64_t>(cell, i); });
        }
        // Read-only transactions leave the clock alone.
        t->txn([&] { (void)t->load<std::uint64_t>(cell); });
    });
    m.run();
    // 3 writing commits x +2.
    // The clock is the first allocation the TL2 globals made; find
    // it through a fresh transaction-less read of stats instead:
    EXPECT_EQ(t->commits(), 4u);
    EXPECT_EQ(t->aborts(), 0u);
}

TEST(Tl2Runtime, StaleReaderAborts)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::Tl2);
    const Addr c1 = m.memory().allocate(lineBytes, lineBytes);
    const Addr c2 = m.memory().allocate(lineBytes, lineBytes);
    auto ta = f.makeThread(0, 0);
    auto tb = f.makeThread(1, 1);
    SimBarrier read_one(m.scheduler(), 2);
    SimBarrier wrote(m.scheduler(), 2);

    unsigned a_attempts = 0;
    m.scheduler().spawn(0, [&] {
        ta->txn([&] {
            ++a_attempts;
            (void)ta->load<std::uint64_t>(c1);
            if (a_attempts == 1) {
                read_one.wait();
                wrote.wait();
            }
            // Inconsistent view must be refused: either this read
            // aborts (version > rv) or commit-time validation does.
            (void)ta->load<std::uint64_t>(c2);
            ta->store<std::uint64_t>(c1 + 8, 1);
        });
    });
    m.scheduler().spawn(1, [&] {
        read_one.wait();
        tb->txn([&] {
            tb->store<std::uint64_t>(c1, 7);
            tb->store<std::uint64_t>(c2, 7);
        });
        wrote.wait();
    });
    m.run();
    EXPECT_GE(a_attempts, 2u);
    EXPECT_EQ(ta->commits(), 1u);
    EXPECT_EQ(tb->commits(), 1u);
}

// ---- RSTM --------------------------------------------------------------

TEST(RstmRuntime, SelfValidationCatchesOverlappingWriter)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::Rstm);
    const Addr c1 = m.memory().allocate(lineBytes, lineBytes);
    const Addr c2 = m.memory().allocate(lineBytes, lineBytes);
    auto ta = f.makeThread(0, 0);
    auto tb = f.makeThread(1, 1);
    SimBarrier read_one(m.scheduler(), 2);
    SimBarrier wrote(m.scheduler(), 2);

    unsigned a_attempts = 0;
    m.scheduler().spawn(0, [&] {
        ta->txn([&] {
            ++a_attempts;
            (void)ta->load<std::uint64_t>(c1);
            if (a_attempts == 1) {
                read_one.wait();
                wrote.wait();
            }
            // Opening c2 triggers validation of c1's header.
            (void)ta->load<std::uint64_t>(c2);
        });
    });
    m.scheduler().spawn(1, [&] {
        read_one.wait();
        tb->txn([&] { tb->store<std::uint64_t>(c1, 3); });
        wrote.wait();
    });
    m.run();
    EXPECT_GE(a_attempts, 2u);
    EXPECT_EQ(ta->commits(), 1u);
    EXPECT_GE(m.stats().counterValue("rstm.validations"), 1u);
}

// ---- RTM-F -------------------------------------------------------------

TEST(RtmfRuntime, HeaderAlertAbortsStaleReader)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::RtmF);
    const Addr c1 = m.memory().allocate(lineBytes, lineBytes);
    auto ta = f.makeThread(0, 0);
    auto tb = f.makeThread(1, 1);
    SimBarrier read_one(m.scheduler(), 2);
    SimBarrier wrote(m.scheduler(), 2);

    unsigned a_attempts = 0;
    m.scheduler().spawn(0, [&] {
        ta->txn([&] {
            ++a_attempts;
            (void)ta->load<std::uint64_t>(c1);
            if (a_attempts == 1) {
                read_one.wait();
                wrote.wait();
            }
            // The writer's committed acquisition alerted us: the
            // next access notices and aborts.
            ta->store<std::uint64_t>(c1 + 8, 1);
        });
    });
    m.scheduler().spawn(1, [&] {
        read_one.wait();
        tb->txn([&] { tb->store<std::uint64_t>(c1, 3); });
        wrote.wait();
    });
    m.run();
    EXPECT_GE(a_attempts, 2u);
    EXPECT_EQ(ta->commits(), 1u);
    EXPECT_GE(m.stats().counterValue("rtmf.read_conflicts"), 1u);
}

/** Regression: an abort thrown inside openForRead's conflict
 *  resolution - after the header's AOU watch went live but before the
 *  header reached the read set - must retire the watch on the way
 *  out.  The mark used to leak into the next transaction (releaseAll
 *  only walks readHeaders_), where it decayed into a spurious or
 *  undeliverable alert; the state auditor's I7 sweep caught it in the
 *  fault sweep. */
TEST(RtmfRuntime, AbortDuringOpenForReadReleasesHeaderWatch)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::RtmF);
    const Addr probe = m.memory().allocate(lineBytes, lineBytes);
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    Addr pads[8];
    for (Addr &p : pads)
        p = m.memory().allocate(lineBytes, lineBytes);
    auto ta = f.makeThread(0, 0);
    auto tb = f.makeThread(1, 1);
    auto tc = f.makeThread(2, 2);
    SimBarrier locked(m.scheduler(), 3);
    SimBarrier a_aborted(m.scheduler(), 2);
    SimBarrier released(m.scheduler(), 2);

    unsigned a_attempts = 0;
    m.scheduler().spawn(0, [&] {
        ta->txn([&] {
            ++a_attempts;
            if (a_attempts == 1) {
                // probe joins the read set so a remote plain write
                // can strong-abort us at a precise moment.
                (void)ta->load<std::uint64_t>(probe);
                locked.wait();
                // B holds cell's header: openForRead ALoads the
                // header, finds it locked, and spins in resolveOwner,
                // where core 2's poison write aborts us mid-open.
                (void)ta->load<std::uint64_t>(cell);
                ADD_FAILURE()
                    << "open of a locked header should have aborted";
                return;
            }
            // The mid-open watch must have died with the abort: only
            // the TSW's watch survives into the retry.
            EXPECT_EQ(m.context(0).aou.markedCount(), 1u);
            a_aborted.wait();
            released.wait();
            EXPECT_EQ(ta->load<std::uint64_t>(cell), 3u);
        });
    });
    unsigned b_attempts = 0;
    m.scheduler().spawn(1, [&] {
        tb->txn([&] {
            ++b_attempts;
            // Karma padding: a fat priority deficit pins A's Polka
            // patience at the cap, so it backs off (instead of
            // killing us) long enough for the poison write to land.
            for (Addr p : pads)
                tb->store<std::uint64_t>(p, 1);
            tb->store<std::uint64_t>(cell, 3);  // acquires the header
            if (b_attempts == 1) {
                locked.wait();
                a_aborted.wait();  // hold the lock until A has died
            }
        });
        released.wait();
    });
    m.scheduler().spawn(2, [&] {
        locked.wait();
        // Land after A's pre-open alert check but well inside its
        // back-off (patience is >= 500 cycles with the deficit).
        tc->work(60);
        tc->store<std::uint64_t>(probe, 99);  // plain write -> alert
    });
    m.run();
    EXPECT_EQ(a_attempts, 2u);
    EXPECT_EQ(ta->commits(), 1u);
    EXPECT_EQ(tb->commits(), 1u);
    // No watch outlives its transaction on any core.
    EXPECT_EQ(m.context(0).aou.markedCount(), 0u);
    EXPECT_EQ(m.context(1).aou.markedCount(), 0u);
}

/** PDI means RTM-F never copies: speculative data sits in TMI lines
 *  until CAS-Commit publishes it. */
TEST(RtmfRuntime, UsesPdiForVersioning)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::RtmF);
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    auto t = f.makeThread(0, 0);

    m.scheduler().spawn(0, [&] {
        t->txn([&] {
            t->store<std::uint64_t>(cell, 21);
            const L1Line *l = m.memsys().l1(0).probe(cell);
            ASSERT_NE(l, nullptr);
            EXPECT_EQ(l->state, LineState::TMI);
            std::uint64_t stable = 1;
            m.memsys().peek(cell, &stable, 8);
            EXPECT_EQ(stable, 0u);
        });
        std::uint64_t v = 0;
        m.memsys().peek(cell, &v, 8);
        EXPECT_EQ(v, 21u);
    });
    m.run();
}

} // anonymous namespace
} // namespace flextm
