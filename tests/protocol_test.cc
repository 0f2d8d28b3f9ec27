/**
 * @file
 * TMESI protocol tests (Figure 1, Sections 3.3-3.6, 4): direct
 * verification of the state machine, the signature-derived response
 * types, requestor/responder CST updates, multiple-owner directory
 * entries, flash commit/abort, strong isolation, AOU, sticky
 * sharer-list behaviour, and the overflow table's spill / refill /
 * copy-back / NACK paths.
 *
 * These drive MemorySystem directly (one atomic protocol operation
 * per call), with explicit control of each core's transactional
 * context - no scheduler involved.
 */

#include <gtest/gtest.h>

#include "runtime/machine.hh"

namespace flextm
{
namespace
{

/** Claims a core's trap vectors for its lifetime and records what
 *  the protocol engine delivers through them. */
class TrapRecorder final : public TrapHandler
{
  public:
    explicit TrapRecorder(HwContext &ctx, OverflowTable *ot = nullptr)
        : ctx_(ctx), ot_(ot)
    {
        ctx_.trap = this;
    }
    ~TrapRecorder() { ctx_.trap = nullptr; }

    TrapRecorder(const TrapRecorder &) = delete;
    TrapRecorder &operator=(const TrapRecorder &) = delete;

    void
    strongAbort(CoreId aggressor) override
    {
        ++strongAborts;
        lastAggressor = aggressor;
    }

    /** Installs the table given at construction. */
    void
    otAllocTrap() override
    {
        ++otAllocTraps;
        ctx_.ot = ot_;
    }

    unsigned strongAborts = 0;
    CoreId lastAggressor = invalidCore;
    unsigned otAllocTraps = 0;

  private:
    HwContext &ctx_;
    OverflowTable *ot_;
};

class ProtocolTest : public ::testing::Test
{
  protected:
    MachineConfig
    cfg()
    {
        MachineConfig c;
        c.cores = 4;
        c.memoryBytes = 64u << 20;
        return c;
    }

    ProtocolTest() : m(cfg()) { a_ = m.memory().allocate(4096, 4096); }

    Machine m;
    Addr a_;
    Cycles now = 0;

    MemResult
    op(CoreId c, AccessType t, Addr a, std::uint64_t *v)
    {
        const MemResult r = m.memsys().access(c, t, a, 8, v, now);
        now += r.latency;
        return r;
    }

    std::uint64_t
    rd(CoreId c, Addr a)
    {
        std::uint64_t v = 0;
        op(c, AccessType::Load, a, &v);
        return v;
    }

    void
    wr(CoreId c, Addr a, std::uint64_t v)
    {
        op(c, AccessType::Store, a, &v);
    }

    std::uint64_t
    trd(CoreId c, Addr a, MemResult *res = nullptr)
    {
        std::uint64_t v = 0;
        const MemResult r = op(c, AccessType::TLoad, a, &v);
        if (res)
            *res = r;
        return v;
    }

    MemResult
    twr(CoreId c, Addr a, std::uint64_t v)
    {
        return op(c, AccessType::TStore, a, &v);
    }

    LineState
    state(CoreId c, Addr a)
    {
        const L1Line *l = m.memsys().l1(c).probe(a);
        return l ? l->state : LineState::I;
    }

    void
    beginTx(CoreId c)
    {
        HwContext &ctx = m.context(c);
        ctx.rsig.clear();
        ctx.wsig.clear();
        ctx.cst.clearAll();
        ctx.inTx = true;
    }

    std::uint64_t
    peek64(Addr a)
    {
        std::uint64_t v = 0;
        m.memsys().peek(a, &v, 8);
        return v;
    }
};

// ---- Basic MESI ------------------------------------------------------

TEST_F(ProtocolTest, ColdLoadInstallsExclusive)
{
    rd(0, a_);
    EXPECT_EQ(state(0, a_), LineState::E);
}

TEST_F(ProtocolTest, SecondReaderDowngradesToShared)
{
    rd(0, a_);
    rd(1, a_);
    EXPECT_EQ(state(0, a_), LineState::S);
    EXPECT_EQ(state(1, a_), LineState::S);
}

TEST_F(ProtocolTest, StoreOnExclusiveIsSilentUpgrade)
{
    rd(0, a_);
    wr(0, a_, 42);
    EXPECT_EQ(state(0, a_), LineState::M);
    EXPECT_EQ(peek64(a_), 42u);
}

TEST_F(ProtocolTest, StoreInvalidatesSharers)
{
    rd(0, a_);
    rd(1, a_);
    wr(0, a_, 7);
    EXPECT_EQ(state(0, a_), LineState::M);
    EXPECT_EQ(state(1, a_), LineState::I);
}

TEST_F(ProtocolTest, RemoteLoadFlushesModifiedData)
{
    wr(0, a_, 1234);
    EXPECT_EQ(rd(1, a_), 1234u);
    EXPECT_EQ(state(0, a_), LineState::S);
    EXPECT_EQ(state(1, a_), LineState::S);
}

TEST_F(ProtocolTest, WriteReadBytesRoundTrip)
{
    std::uint64_t v = 0x1122334455667788ULL;
    m.memsys().access(0, AccessType::Store, a_ + 16, 8, &v, now);
    std::uint64_t r4 = 0;
    m.memsys().access(1, AccessType::Load, a_ + 16, 4, &r4, now);
    EXPECT_EQ(r4, 0x55667788u);
}

// ---- PDI / TMESI -----------------------------------------------------

TEST_F(ProtocolTest, TStoreInstallsTmiAndTracksOwner)
{
    beginTx(0);
    twr(0, a_, 99);
    EXPECT_EQ(state(0, a_), LineState::TMI);
    EXPECT_TRUE(m.context(0).wsig.mayContain(a_));
    const L2Line *l2 = m.memsys().l2().probe(a_);
    ASSERT_NE(l2, nullptr);
    EXPECT_EQ(l2->dir.owners & 1u, 1u);
    // Speculative data invisible.
    EXPECT_EQ(peek64(a_), 0u);
}

TEST_F(ProtocolTest, TStoreOnModifiedWritesBackFirst)
{
    wr(0, a_, 555);
    beginTx(0);
    twr(0, a_, 777);
    EXPECT_EQ(state(0, a_), LineState::TMI);
    // L2 holds the latest non-speculative version.
    const L2Line *l2 = m.memsys().l2().probe(a_);
    ASSERT_NE(l2, nullptr);
    std::uint64_t stable = 0;
    std::memcpy(&stable, l2->data.data() + (a_ & lineMask), 8);
    EXPECT_EQ(stable, 555u);
    EXPECT_EQ(l2->dir.exclusive, invalidCore);
    EXPECT_EQ(l2->dir.owners & 1u, 1u);
}

TEST_F(ProtocolTest, MultipleOwnersCoexistWithWwConflict)
{
    beginTx(0);
    beginTx(1);
    twr(0, a_, 10);
    const MemResult r = twr(1, a_, 20);
    EXPECT_EQ(state(0, a_), LineState::TMI);
    EXPECT_EQ(state(1, a_), LineState::TMI);
    EXPECT_NE(r.threatenedBy & 1u, 0u);  // core 0 threatened us
    // Responder-side and requestor-side W-W bits.
    EXPECT_TRUE(m.context(0).cst.ww.test(1));
    EXPECT_TRUE(m.context(1).cst.ww.test(0));
    const L2Line *l2 = m.memsys().l2().probe(a_);
    EXPECT_EQ(l2->dir.owners & 3u, 3u);
}

TEST_F(ProtocolTest, ThreatenedPlainLoadStaysUncached)
{
    beginTx(0);
    twr(0, a_, 123);
    std::uint64_t v = 1;
    const MemResult r =
        m.memsys().access(1, AccessType::Load, a_, 8, &v, now);
    EXPECT_TRUE(r.uncached);
    EXPECT_EQ(v, 0u);  // stable pre-transaction value
    EXPECT_EQ(state(1, a_), LineState::I);
}

TEST_F(ProtocolTest, ThreatenedTLoadInstallsTiWithConflict)
{
    beginTx(0);
    twr(0, a_, 123);
    beginTx(1);
    MemResult r;
    const std::uint64_t v = trd(1, a_, &r);
    EXPECT_EQ(v, 0u);  // old value
    EXPECT_EQ(state(1, a_), LineState::TI);
    EXPECT_NE(r.threatenedBy & 1u, 0u);
    // Reader records R-W; writer records W-R.
    EXPECT_TRUE(m.context(1).cst.rw.test(0));
    EXPECT_TRUE(m.context(0).cst.wr.test(1));
}

TEST_F(ProtocolTest, TgetxGetsExposedReadFromReader)
{
    beginTx(0);
    trd(0, a_);
    beginTx(1);
    const MemResult r = twr(1, a_, 5);
    EXPECT_NE(r.exposedReadBy & 1u, 0u);
    EXPECT_TRUE(m.context(0).cst.rw.test(1));
    EXPECT_TRUE(m.context(1).cst.wr.test(0));
    // The reader's copy is invalidated by the TGETX.
    EXPECT_EQ(state(0, a_), LineState::I);
}

TEST_F(ProtocolTest, ReadReadDoesNotConflict)
{
    beginTx(0);
    trd(0, a_);
    beginTx(1);
    MemResult r;
    trd(1, a_, &r);
    EXPECT_FALSE(r.hasConflict());
    EXPECT_TRUE(m.context(0).cst.allEmpty());
    EXPECT_TRUE(m.context(1).cst.allEmpty());
}

TEST_F(ProtocolTest, TLoadOfOwnTmiLineHitsSpeculativeData)
{
    beginTx(0);
    twr(0, a_, 88);
    EXPECT_EQ(trd(0, a_), 88u);
    EXPECT_EQ(state(0, a_), LineState::TMI);
}

// ---- CAS-Commit and flash operations ---------------------------------

TEST_F(ProtocolTest, CasCommitPublishesSpeculativeState)
{
    const Addr tsw = m.memory().allocate(lineBytes, lineBytes);
    std::uint64_t one = 1;
    m.memsys().access(0, AccessType::Store, tsw, 4, &one, now);
    beginTx(0);
    twr(0, a_, 4242);
    const CommitResult r = m.memsys().casCommit(0, tsw, 1, 2, now);
    EXPECT_EQ(r.outcome, CommitOutcome::Committed);
    EXPECT_EQ(state(0, a_), LineState::M);
    m.context(0).inTx = false;
    EXPECT_EQ(peek64(a_), 4242u);
    EXPECT_EQ(rd(1, a_), 4242u);
}

TEST_F(ProtocolTest, CasCommitFailsOnNonzeroWriteCsts)
{
    const Addr tsw = m.memory().allocate(lineBytes, lineBytes);
    std::uint64_t one = 1;
    m.memsys().access(0, AccessType::Store, tsw, 4, &one, now);
    beginTx(0);
    twr(0, a_, 9);
    m.context(0).cst.ww.set(2);
    const CommitResult r = m.memsys().casCommit(0, tsw, 1, 2, now);
    EXPECT_EQ(r.outcome, CommitOutcome::FailedCsts);
    // Speculative state preserved for the retry loop.
    EXPECT_EQ(state(0, a_), LineState::TMI);
}

TEST_F(ProtocolTest, CasCommitFailsWhenAborted)
{
    const Addr tsw = m.memory().allocate(lineBytes, lineBytes);
    std::uint64_t val = 3;  // TSW already says "aborted"
    m.memsys().access(0, AccessType::Store, tsw, 4, &val, now);
    beginTx(0);
    twr(0, a_, 9);
    const CommitResult r = m.memsys().casCommit(0, tsw, 1, 2, now);
    EXPECT_EQ(r.outcome, CommitOutcome::FailedAborted);
    EXPECT_EQ(state(0, a_), LineState::I);  // flash aborted
    m.context(0).inTx = false;
    EXPECT_EQ(peek64(a_), 0u);
}

TEST_F(ProtocolTest, CommitRevertsTiToInvalid)
{
    const Addr tsw = m.memory().allocate(lineBytes, lineBytes);
    beginTx(0);
    twr(0, a_, 1);
    beginTx(1);
    trd(1, a_);
    EXPECT_EQ(state(1, a_), LineState::TI);
    std::uint64_t one = 1;
    m.memsys().access(1, AccessType::Store, tsw, 4, &one, now);
    const CommitResult r = m.memsys().casCommit(1, tsw, 1, 2, now);
    EXPECT_EQ(r.outcome, CommitOutcome::Committed);
    EXPECT_EQ(state(1, a_), LineState::I);
}

TEST_F(ProtocolTest, AbortDiscardsSpeculation)
{
    wr(0, a_, 77);
    beginTx(0);
    twr(0, a_, 99);
    now += m.memsys().abortTx(0, now);
    m.context(0).inTx = false;
    EXPECT_EQ(state(0, a_), LineState::I);
    EXPECT_EQ(peek64(a_), 77u);
    EXPECT_EQ(rd(1, a_), 77u);
}

// ---- Strong isolation and AOU ----------------------------------------

TEST_F(ProtocolTest, PlainStoreAbortsConflictingTransaction)
{
    beginTx(0);
    trd(0, a_);
    TrapRecorder trap(m.context(0));
    wr(1, a_, 5);
    EXPECT_EQ(trap.strongAborts, 1u);
    EXPECT_EQ(trap.lastAggressor, 1u);
}

TEST_F(ProtocolTest, PlainStoreAbortsSpeculativeWriter)
{
    beginTx(0);
    twr(0, a_, 9);
    TrapRecorder trap(m.context(0));
    wr(1, a_, 5);
    EXPECT_EQ(trap.strongAborts, 1u);
    // The written line was surrendered immediately.
    EXPECT_EQ(state(0, a_), LineState::I);
    EXPECT_EQ(peek64(a_), 5u);
}

TEST_F(ProtocolTest, PlainAccessesOutsideTxDontTriggerStrongAbort)
{
    rd(0, a_);
    TrapRecorder trap(m.context(0));
    wr(1, a_, 5);
    EXPECT_EQ(trap.strongAborts, 0u);  // core 0 not in a transaction
}

TEST_F(ProtocolTest, AouAlertsOnRemoteWrite)
{
    now += m.memsys().aload(0, a_, now);
    EXPECT_FALSE(m.context(0).aou.alertPending());
    rd(1, a_);  // GETS: no invalidation, no alert
    EXPECT_FALSE(m.context(0).aou.alertPending());
    wr(1, a_, 3);  // GETX invalidates the marked line
    EXPECT_TRUE(m.context(0).aou.alertPending());
    EXPECT_EQ(m.context(0).aou.lastCause(), AlertCause::RemoteUpdate);
}

TEST_F(ProtocolTest, AouCapacityAlertOnEviction)
{
    now += m.memsys().aload(0, a_, now);
    // Force eviction: fill the set and the victim buffer with lines
    // mapping to the same L1 set (stride = sets * lineBytes).
    const Addr stride =
        static_cast<Addr>(m.memsys().l1(0).sets()) * lineBytes;
    const Addr base = m.memory().allocate(64 * stride, lineBytes);
    const Addr conflict_base =
        base + (lineNumber(a_) & (m.memsys().l1(0).sets() - 1)) *
                   lineBytes -
        (lineNumber(base) & (m.memsys().l1(0).sets() - 1)) * lineBytes;
    for (unsigned i = 0; i < 40; ++i)
        rd(0, conflict_base + i * stride);
    EXPECT_TRUE(m.context(0).aou.alertPending());
    EXPECT_EQ(m.context(0).aou.lastCause(), AlertCause::Capacity);
}

// ---- Sticky directory state ------------------------------------------

TEST_F(ProtocolTest, EvictedReaderStillProducesExposedRead)
{
    beginTx(0);
    trd(0, a_);
    // Silently evict the line from core 0 (set-conflict flood).
    const Addr stride =
        static_cast<Addr>(m.memsys().l1(0).sets()) * lineBytes;
    const Addr base = m.memory().allocate(64 * stride, lineBytes);
    const Addr conflict_base =
        base + (lineNumber(a_) & (m.memsys().l1(0).sets() - 1)) *
                   lineBytes -
        (lineNumber(base) & (m.memsys().l1(0).sets() - 1)) * lineBytes;
    for (unsigned i = 0; i < 40; ++i)
        trd(0, conflict_base + i * stride);
    EXPECT_EQ(state(0, a_), LineState::I);

    // A remote speculative writer must still see the conflict: the
    // signature responds even though the line is gone.
    beginTx(1);
    const MemResult r = twr(1, a_, 5);
    EXPECT_NE(r.exposedReadBy & 1u, 0u);
    EXPECT_TRUE(m.context(1).cst.wr.test(0));
}

TEST_F(ProtocolTest, SharerListRecreatedAfterL2Eviction)
{
    // An L2 eviction may recall core 0's TMI line into its OT.
    OverflowTable ot(2048, 4);
    m.context(0).ot = &ot;
    beginTx(0);
    twr(0, a_, 11);
    // Evict a_'s L2 line by filling its L2 set (stride covers the
    // whole L2: sets * lineBytes).
    const Addr l2_stride =
        static_cast<Addr>(m.memsys().l2().sets()) * lineBytes;
    const unsigned ways = 8;
    const Addr big = m.memory().allocate((ways + 2) * l2_stride + 4096,
                                         4096);
    const Addr set_match =
        big + (lineNumber(a_) & (m.memsys().l2().sets() - 1)) *
                  lineBytes -
        (lineNumber(big) & (m.memsys().l2().sets() - 1)) * lineBytes;
    for (unsigned i = 0; i < ways + 1; ++i)
        rd(1, set_match + i * l2_stride);

    // Whether or not a_'s entry survived, a new writer must still be
    // told about core 0's speculative write (signature recreation).
    beginTx(2);
    const MemResult r = twr(2, a_, 13);
    EXPECT_NE(r.threatenedBy & 1u, 0u);
    EXPECT_TRUE(m.context(2).cst.ww.test(0));
}

// ---- Overflow table ---------------------------------------------------

class OverflowProtocolTest : public ProtocolTest
{
  protected:
    OverflowTable ot{2048, 4};

    void
    installOt(CoreId c)
    {
        m.context(c).ot = &ot;
    }

    /** Fill one L1 set + victim buffer with TMI lines to force
     *  spills; returns the addresses written. */
    std::vector<Addr>
    forceSpill(CoreId c, unsigned n)
    {
        beginTx(c);
        installOt(c);
        const Addr stride =
            static_cast<Addr>(m.memsys().l1(c).sets()) * lineBytes;
        const Addr base = m.memory().allocate((n + 1) * stride, 4096);
        std::vector<Addr> addrs;
        for (unsigned i = 0; i < n; ++i) {
            const Addr a = base + i * stride;
            twr(c, a, 1000 + i);
            addrs.push_back(a);
        }
        return addrs;
    }
};

/**
 * Multiple-owner directory entries under pressure: three cores hold
 * TMI on the same line, one copy is pushed through the victim buffer
 * into its overflow table mid-stream, a fourth core's TGETX arrives
 * while the directory still carries the (sticky) evicted owner, and
 * the evicted copy refills from the OT.  The owner vector must
 * accumulate monotonically through all of it - dropping a sticky bit
 * would let the evicted writer's commit publish unthreatened state.
 */
TEST_F(OverflowProtocolTest, MultiOwnerSurvivesEvictionsAndTgetx)
{
    OverflowTable ot1{2048, 4}, ot2{2048, 4}, ot3{2048, 4};
    beginTx(0);
    installOt(0);  // the fixture's ot
    beginTx(1);
    m.context(1).ot = &ot1;
    beginTx(2);
    m.context(2).ot = &ot2;

    twr(0, a_, 100);
    L2Line *l2l = m.memsys().l2().probe(a_);
    ASSERT_NE(l2l, nullptr);
    EXPECT_EQ(l2l->dir.owners & 0xfu, 0x1u);
    twr(1, a_, 200);
    EXPECT_EQ(l2l->dir.owners & 0xfu, 0x3u);
    twr(2, a_, 300);
    EXPECT_EQ(l2l->dir.owners & 0xfu, 0x7u);
    EXPECT_EQ(state(0, a_), LineState::TMI);
    EXPECT_EQ(state(1, a_), LineState::TMI);
    EXPECT_EQ(state(2, a_), LineState::TMI);
    // Pairwise W-W conflicts recorded on the later writers.
    EXPECT_TRUE(m.context(1).cst.ww.test(0));
    EXPECT_TRUE(m.context(2).cst.ww.test(0));
    EXPECT_TRUE(m.context(2).cst.ww.test(1));

    // Push core 1's copy of the contended line out through the
    // victim buffer: fill its set with other speculative lines.
    const unsigned sets = m.memsys().l1(1).sets();
    const Addr stride = static_cast<Addr>(sets) * lineBytes;
    const Addr big = m.memory().allocate(65 * stride, 4096);
    // Fill lines must land in a_'s set or nothing is displaced.
    const Addr fill =
        big + ((lineNumber(a_) - lineNumber(big)) & (sets - 1)) *
                  lineBytes;
    unsigned filled = 0;
    while (state(1, a_) == LineState::TMI && filled < 64) {
        twr(1, fill + filled * stride, 5000 + filled);
        ++filled;
    }
    ASSERT_EQ(state(1, a_), LineState::I)
        << "could not force the eviction";
    EXPECT_TRUE(ot1.mayContain(a_));
    // The directory's owner bit for the evicted copy is sticky.
    l2l = m.memsys().l2().probe(a_);
    ASSERT_NE(l2l, nullptr);
    EXPECT_EQ(l2l->dir.owners & 0xfu, 0x7u);

    // Mid-stream TGETX from a fourth core: cached AND evicted owners
    // must all threaten it (the evicted one through its Wsig).
    beginTx(3);
    m.context(3).ot = &ot3;
    const MemResult r = twr(3, a_, 400);
    EXPECT_TRUE(r.hasConflict());
    EXPECT_TRUE(m.context(3).cst.ww.test(0));
    EXPECT_TRUE(m.context(3).cst.ww.test(1));
    EXPECT_TRUE(m.context(3).cst.ww.test(2));
    EXPECT_EQ(l2l->dir.owners & 0xfu, 0xfu);
    EXPECT_EQ(state(3, a_), LineState::TMI);
    // Existing cached copies survive (multiple TMI owners coexist).
    EXPECT_EQ(state(0, a_), LineState::TMI);
    EXPECT_EQ(state(2, a_), LineState::TMI);

    // Refill core 1's speculative copy from its OT: value intact,
    // owner vector unchanged.
    EXPECT_EQ(trd(1, a_), 200u);
    EXPECT_EQ(state(1, a_), LineState::TMI);
    EXPECT_EQ(l2l->dir.owners & 0xfu, 0xfu);
}

TEST_F(OverflowProtocolTest, TmiEvictionSpillsToOt)
{
    // 2 ways + 32 victim entries: 40 TMI lines in one set overflow.
    forceSpill(0, 40);
    EXPECT_FALSE(ot.empty());
    EXPECT_GT(m.stats().counterValue("ot.spills"), 0u);
}

TEST_F(OverflowProtocolTest, OtRefillRestoresSpeculativeLine)
{
    const auto addrs = forceSpill(0, 40);
    // The first-written lines were spilled; re-access one.
    EXPECT_EQ(trd(0, addrs[0]), 1000u);
    EXPECT_EQ(state(0, addrs[0]), LineState::TMI);
    EXPECT_GT(m.stats().counterValue("ot.refills"), 0u);
}

TEST_F(OverflowProtocolTest, CommitCopiesOtBack)
{
    const Addr tsw = m.memory().allocate(lineBytes, lineBytes);
    std::uint64_t one = 1;
    m.memsys().access(0, AccessType::Store, tsw, 4, &one, now);
    const auto addrs = forceSpill(0, 40);
    const CommitResult r = m.memsys().casCommit(0, tsw, 1, 2, now);
    EXPECT_EQ(r.outcome, CommitOutcome::Committed);
    m.context(0).inTx = false;
    m.context(0).ot = nullptr;
    for (unsigned i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(peek64(addrs[i]), 1000u + i) << i;
}

TEST_F(OverflowProtocolTest, RacingAccessNackedDuringCopyback)
{
    const Addr tsw = m.memory().allocate(lineBytes, lineBytes);
    std::uint64_t one = 1;
    m.memsys().access(0, AccessType::Store, tsw, 4, &one, now);
    const auto addrs = forceSpill(0, 40);
    const Cycles commit_time = now;
    const CommitResult cr = m.memsys().casCommit(0, tsw, 1, 2, now);
    ASSERT_EQ(cr.outcome, CommitOutcome::Committed);
    m.context(0).inTx = false;
    m.context(0).ot = nullptr;

    // An access racing with the copy-back pays the NACK delay.
    std::uint64_t v = 0;
    const MemResult rr = m.memsys().access(
        1, AccessType::Load, addrs[0], 8, &v, commit_time + 1);
    EXPECT_EQ(v, 1000u);
    EXPECT_GT(rr.latency, m.memsys().otLatency());
    EXPECT_GT(m.stats().counterValue("ot.nacks"), 0u);

    // Long after the copy-back completes, no NACK.
    std::uint64_t v2 = 0;
    const MemResult r2 = m.memsys().access(
        2, AccessType::Load, addrs[1], 8, &v2,
        commit_time + 1000000);
    EXPECT_EQ(v2, 1001u);
    EXPECT_LT(r2.latency, 200u);
}

TEST_F(OverflowProtocolTest, AbortDiscardsOtContents)
{
    const auto addrs = forceSpill(0, 40);
    now += m.memsys().abortTx(0, now);
    m.context(0).inTx = false;
    EXPECT_TRUE(ot.empty());
    for (Addr a : addrs)
        EXPECT_EQ(peek64(a), 0u);
}

TEST_F(OverflowProtocolTest, OtAllocTrapFiresOnFirstSpill)
{
    beginTx(0);
    TrapRecorder trap(m.context(0), &ot);
    const Addr stride =
        static_cast<Addr>(m.memsys().l1(0).sets()) * lineBytes;
    const Addr base = m.memory().allocate(41 * stride, 4096);
    for (unsigned i = 0; i < 40; ++i)
        twr(0, base + i * stride, i);
    EXPECT_EQ(trap.otAllocTraps, 1u);
    EXPECT_GT(m.stats().counterValue("ot.allocations"), 0u);
}

TEST_F(OverflowProtocolTest, UnboundedVictimBufferNeverSpills)
{
    MachineConfig c = cfg();
    c.unboundedVictimBuffer = true;
    Machine m2(c);
    m2.context(0).inTx = true;
    const Addr stride =
        static_cast<Addr>(m2.memsys().l1(0).sets()) * lineBytes;
    const Addr base = m2.memory().allocate(81 * stride, 4096);
    Cycles t = 0;
    for (unsigned i = 0; i < 80; ++i) {
        std::uint64_t v = i;
        t += m2.memsys()
                 .access(0, AccessType::TStore, base + i * stride, 8,
                         &v, t)
                 .latency;
    }
    EXPECT_EQ(m2.stats().counterValue("ot.spills"), 0u);
    EXPECT_EQ(m2.memsys().l1(0).countState(LineState::TMI), 80u);
}

} // anonymous namespace
} // namespace flextm
