/**
 * @file
 * DRAM backend core tests.
 *
 * Three layers:
 *  - BankState: protocol legality is asserted (RD on a closed row,
 *    ACT over an open row, issuing before a timing gate are simulator
 *    bugs), and the tRCD/tRAS/tRP/tRC gates hold exactly.
 *  - DramChannel: row hit < miss < conflict latency ordering, write
 *    queue forwarding, FR-FCFS vs FCFS arbitration under a crafted
 *    pattern, refresh blackouts, and the bounded in-flight window.
 *  - Whole machine: a golden faulted workload in DRAM mode stays
 *    deterministic (pinned fingerprint) and actually exercises the
 *    row buffer (nonzero hit rate).
 *
 * To regenerate the DRAM-mode golden after an intentional timing
 * change:  FLEXTM_GOLDEN_PRINT=1 ./dram_test
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "mem/dram/address_map.hh"
#include "mem/dram/bank_state.hh"
#include "mem/dram/command_queue.hh"
#include "mem/dram/dram_backend.hh"
#include "mem/dram/mem_backend.hh"
#include "workloads/fault_harness.hh"

namespace flextm
{
namespace
{

const DramTiming kT{};  // default timing table

// ---- BankState ---------------------------------------------------

TEST(DramBankState, ColumnCommandsNeedTheRightOpenRow)
{
    BankState b(kT);
    EXPECT_DEATH(b.issue(DramCmd::Rd, 5, 100),
                 "closed or mismatched");
    b.issue(DramCmd::Act, 5, 0);
    EXPECT_DEATH(b.issue(DramCmd::Wr, 6, kT.tRCD),
                 "closed or mismatched");
}

TEST(DramBankState, ActOverOpenRowAndPreOverClosedAreBugs)
{
    BankState b(kT);
    EXPECT_DEATH(b.issue(DramCmd::Pre, -1, 0), "no row open");
    b.issue(DramCmd::Act, 1, 0);
    EXPECT_DEATH(b.issue(DramCmd::Act, 2, kT.tRAS + kT.tRP),
                 "already open");
    EXPECT_DEATH(b.issue(DramCmd::Ref, -1, kT.tRAS + kT.tRP),
                 "row open");
}

TEST(DramBankState, TimingGatesAreEnforced)
{
    BankState b(kT);
    b.issue(DramCmd::Act, 1, 0);
    // tRCD: no column access before the row is really open.
    EXPECT_EQ(b.earliestIssue(DramCmd::Rd, 0), kT.tRCD);
    EXPECT_DEATH(b.issue(DramCmd::Rd, 1, kT.tRCD - 1), "timing gate");
    // tRAS: the row must stay open long enough to restore the cells.
    EXPECT_EQ(b.earliestIssue(DramCmd::Pre, 0), kT.tRAS);
    EXPECT_DEATH(b.issue(DramCmd::Pre, -1, kT.tRAS - 1),
                 "timing gate");
}

TEST(DramBankState, ActToActRespectsTrc)
{
    BankState b(kT);
    b.issue(DramCmd::Act, 1, 0);
    b.issue(DramCmd::Pre, -1, kT.tRAS);
    // PRE at tRAS -> next ACT at tRAS + tRP = tRC.
    EXPECT_EQ(b.earliestIssue(DramCmd::Act, 0), kT.tRAS + kT.tRP);
    b.issue(DramCmd::Act, 2, kT.tRAS + kT.tRP);
    EXPECT_EQ(b.openRow(), 2);
}

TEST(DramBankState, ReadAndWriteRecoveryGatePrecharge)
{
    BankState b(kT);
    b.issue(DramCmd::Act, 1, 0);
    b.issue(DramCmd::Rd, 1, kT.tRCD);
    EXPECT_EQ(b.earliestIssue(DramCmd::Pre, 0),
              std::max(kT.tRAS, kT.tRCD + kT.tRTP));
    BankState w(kT);
    w.issue(DramCmd::Act, 1, 0);
    w.issue(DramCmd::Wr, 1, kT.tRCD);
    EXPECT_EQ(w.earliestIssue(DramCmd::Pre, 0),
              std::max(kT.tRAS,
                       kT.tRCD + kT.tCWL + kT.tBURST + kT.tWR));
}

// ---- Address map -------------------------------------------------

TEST(DramAddressMap, InterleavesChannelsThenFillsRows)
{
    DramConfig cfg;  // 2 channels, 1 rank, 8 banks, 2 KiB rows
    DramAddressMap map(cfg);
    ASSERT_EQ(map.linesPerRow(), 2048u / lineBytes);

    // Consecutive lines alternate channels.
    EXPECT_EQ(map.map(0 * lineBytes).channel, 0u);
    EXPECT_EQ(map.map(1 * lineBytes).channel, 1u);
    // Same channel again two lines later, next column.
    const DramAddress a = map.map(0);
    const DramAddress b = map.map(2 * lineBytes);
    EXPECT_EQ(b.channel, a.channel);
    EXPECT_EQ(b.bankIndex, a.bankIndex);
    EXPECT_EQ(b.row, a.row);
    EXPECT_EQ(b.column, a.column + 1);

    // One full row per bank per channel, then the bank advances;
    // after all banks, the row advances.
    const std::uint64_t rowSpan = std::uint64_t{cfg.channels} *
                                  map.linesPerRow() * lineBytes;
    EXPECT_EQ(map.map(rowSpan).bankIndex, a.bankIndex + 1);
    const std::uint64_t fullSweep = rowSpan * map.banksPerChannel();
    const DramAddress r1 = map.map(fullSweep);
    EXPECT_EQ(r1.bankIndex, a.bankIndex);
    EXPECT_EQ(r1.row, a.row + 1);
}

// ---- DramChannel -------------------------------------------------

/** Hand-crafted coordinate (channel tests bypass the decoder). */
DramAddress
at(unsigned bankIndex, std::uint64_t row, unsigned column = 0)
{
    DramAddress d;
    d.bankIndex = bankIndex;
    d.row = row;
    d.column = column;
    return d;
}

/** A channel plus its own registry, refresh off unless asked. */
struct Rig
{
    explicit Rig(DramConfig c = DramConfig{}, bool refresh = false)
        : cfg(c)
    {
        if (!refresh)
            cfg.timing.tREFI = 0;
        stats = std::make_unique<DramStats>(reg);
        ch = std::make_unique<DramChannel>(cfg, *stats, 0);
    }
    DramConfig cfg;
    StatRegistry reg;
    std::unique_ptr<DramStats> stats;
    std::unique_ptr<DramChannel> ch;
};

TEST(DramChannel, HitMissConflictLatencyOrdering)
{
    Rig r;
    const DramTiming &t = r.cfg.timing;

    // Cold miss: ACT + RD from a closed bank.
    const Cycles miss = r.ch->readComplete(100, at(0, 0), 0);
    EXPECT_EQ(miss, t.tCtrl + t.tRCD + t.tCL + t.tBURST);
    // Row hit: column access only.
    const Cycles hit = r.ch->readComplete(101, at(0, 0, 1), 1000);
    EXPECT_EQ(hit - 1000, t.tCtrl + t.tCL + t.tBURST);
    // Row conflict: PRE + ACT + RD.
    const Cycles conf = r.ch->readComplete(102, at(0, 7), 2000);
    EXPECT_EQ(conf - 2000,
              t.tCtrl + t.tRP + t.tRCD + t.tCL + t.tBURST);

    EXPECT_EQ(r.stats->rowMisses.value, 1u);
    EXPECT_EQ(r.stats->rowHits.value, 1u);
    EXPECT_EQ(r.stats->rowConflicts.value, 1u);
    EXPECT_LT(hit - 1000, miss);
    EXPECT_LT(miss, conf - 2000);
}

TEST(DramChannel, ReadIsForwardedFromThePostedWriteQueue)
{
    Rig r;
    const DramTiming &t = r.cfg.timing;
    EXPECT_EQ(r.ch->postWrite(500, at(0, 3), 0), 0u);
    const Cycles done = r.ch->readComplete(500, at(0, 3), 10);
    EXPECT_EQ(done - 10, t.tCtrl + t.tBURST);
    EXPECT_EQ(r.stats->wqForwards.value, 1u);
    // Forwarding serves the data without draining the write.
    EXPECT_EQ(r.ch->pendingWrites(), 1u);
}

TEST(DramChannel, FrFcfsDrainsOnlyRowHitWritesBeforeARead)
{
    DramConfig frCfg;
    frCfg.frfcfs = true;
    DramConfig fcfsCfg;
    fcfsCfg.frfcfs = false;

    auto run = [](Rig &r) -> Cycles {
        // Open row 0 in bank 0, then park one row-hit write and one
        // row-conflict write, then read from bank 1.
        r.ch->readComplete(100, at(0, 0), 0);
        r.ch->postWrite(200, at(0, 0, 2), 200);
        r.ch->postWrite(300, at(0, 5), 201);
        return r.ch->readComplete(400, at(1, 0), 300) - 300;
    };

    Rig fr(frCfg), fcfs(fcfsCfg);
    const Cycles frLat = run(fr);
    const Cycles fcfsLat = run(fcfs);

    // FR-FCFS let the read bypass the row-conflict write...
    EXPECT_LT(frLat, fcfsLat);
    // ...which is still parked, while FCFS drained everything older.
    EXPECT_EQ(fr.ch->pendingWrites(), 1u);
    EXPECT_EQ(fcfs.ch->pendingWrites(), 0u);
    EXPECT_EQ(fr.stats->wqDrains.value, 1u);
    EXPECT_EQ(fcfs.stats->wqDrains.value, 2u);
}

TEST(DramChannel, RefreshClosesRowsAndBlocksTheBank)
{
    Rig r(DramConfig{}, /*refresh=*/true);
    const DramTiming &t = r.cfg.timing;

    const Cycles miss = r.ch->readComplete(100, at(0, 0), 0);
    // Arrive just after the first tREFI epoch: the refresh must have
    // closed our row and the bank is dark for tRFC.
    const Cycles lat =
        r.ch->readComplete(101, at(0, 0, 1), t.tREFI + 100) -
        (t.tREFI + 100);
    EXPECT_EQ(r.stats->refreshes.value, 1u);
    EXPECT_GT(lat, t.tRFC);
    EXPECT_GT(lat, miss);
    // The row had to be re-activated: a miss, not a hit.
    EXPECT_EQ(r.stats->rowHits.value, 0u);
    EXPECT_EQ(r.stats->rowMisses.value, 2u);
}

TEST(DramChannel, InFlightWindowSerializesWhenFull)
{
    DramConfig wide;
    DramConfig narrow;
    narrow.window = 1;

    auto twoReads = [](Rig &r) -> Cycles {
        r.ch->readComplete(100, at(0, 0), 0);
        // Different bank: only the window (and buses) can couple it
        // to the first read.
        return r.ch->readComplete(200, at(1, 0), 0);
    };

    Rig w(wide), n(narrow);
    const Cycles overlapped = twoReads(w);
    const Cycles serialized = twoReads(n);
    EXPECT_GT(serialized, overlapped);
    EXPECT_EQ(n.stats->windowStalls.value, 1u);
    EXPECT_EQ(w.stats->windowStalls.value, 0u);
}

TEST(DramChannel, FullWriteQueueStallsTheRequestor)
{
    DramConfig cfg;
    cfg.writeQueueDepth = 1;
    Rig r(cfg);
    EXPECT_EQ(r.ch->postWrite(100, at(0, 0), 0), 0u);
    // Second post finds the queue full: the oldest write drains and
    // the requestor eats the wait.
    const Cycles stall = r.ch->postWrite(200, at(0, 1), 1);
    EXPECT_GT(stall, 0u);
    EXPECT_EQ(r.stats->wqStalls.value, 1u);
    EXPECT_EQ(r.ch->pendingWrites(), 1u);
}

// ---- Backend plumbing --------------------------------------------

TEST(MemBackendFactory, FixedIsTheDefaultAndChargesFlatReads)
{
    MachineConfig cfg;
    StatRegistry reg;
    auto be = makeMemBackend(cfg, reg);
    EXPECT_STREQ(be->name(), "fixed");
    EXPECT_EQ(be->read(0, 123), FixedBackend::memLatency);
    // Legacy posted writebacks are free - the determinism goldens
    // pin this.
    EXPECT_EQ(be->write(0, 123), 0u);
}

TEST(MemBackendFactory, DramBackendSpreadsLinesOverChannels)
{
    MachineConfig cfg;
    cfg.memBackend = MemBackendKind::Dram;
    StatRegistry reg;
    auto be = makeMemBackend(cfg, reg);
    EXPECT_STREQ(be->name(), "dram");
    // Touch every channel; each cold read is a row miss.
    for (unsigned i = 0; i < cfg.dram.channels; ++i)
        EXPECT_GT(be->read(i * lineBytes, 0), 0u);
    EXPECT_EQ(reg.counterValue("dram.row_misses"),
              cfg.dram.channels);
}

// ---- Whole-machine DRAM mode -------------------------------------

struct DramFingerprint
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
};

DramFingerprint
dramCell(std::uint64_t seed)
{
    FaultRunOptions opt;
    opt.seed = seed;
    opt.quiet = true;
    opt.machine.memBackend = MemBackendKind::Dram;
    DramFingerprint fp;
    opt.inspect = [&fp](Machine &m) {
        fp.rowHits = m.stats().counterValue("dram.row_hits");
        fp.rowMisses = m.stats().counterValue("dram.row_misses");
        fp.dramReads = m.stats().counterValue("dram.reads");
        fp.dramWrites = m.stats().counterValue("dram.writes");
    };
    const ExperimentResult r = runFaultedExperiment(
        WorkloadKind::HashTable, RuntimeKind::FlexTmEager, opt);
    EXPECT_TRUE(r.report.ok) << r.report.message;
    EXPECT_FALSE(r.timedOut) << r.context;
    fp.commits = r.commits;
    fp.aborts = r.aborts;
    fp.cycles = r.cycles;
    return fp;
}

TEST(DramGolden, FaultedCellIsDeterministicAndPinned)
{
    const DramFingerprint got = dramCell(4242);

    if (std::getenv("FLEXTM_GOLDEN_PRINT") != nullptr) {
        std::printf("    {%llu, %llu, %llu, %llu, %llu, %llu, "
                    "%llu};\n",
                    (unsigned long long)got.commits,
                    (unsigned long long)got.aborts,
                    (unsigned long long)got.cycles,
                    (unsigned long long)got.rowHits,
                    (unsigned long long)got.rowMisses,
                    (unsigned long long)got.dramReads,
                    (unsigned long long)got.dramWrites);
        return;
    }

    // Identical rerun: bit-identical (run-to-run determinism).
    const DramFingerprint again = dramCell(4242);
    EXPECT_EQ(got.cycles, again.cycles);
    EXPECT_EQ(got.commits, again.commits);
    EXPECT_EQ(got.rowHits, again.rowHits);

    // Pinned golden (regenerate with FLEXTM_GOLDEN_PRINT=1).
    const DramFingerprint want = {96, 4, 3814, 361, 14, 375, 0};
    EXPECT_EQ(got.commits, want.commits);
    EXPECT_EQ(got.aborts, want.aborts);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.rowHits, want.rowHits);
    EXPECT_EQ(got.rowMisses, want.rowMisses);
    EXPECT_EQ(got.dramReads, want.dramReads);
    EXPECT_EQ(got.dramWrites, want.dramWrites);
}

TEST(DramGolden, RowBufferIsActuallyExercised)
{
    const DramFingerprint fp = dramCell(77);
    EXPECT_GT(fp.dramReads, 0u);
    EXPECT_GT(fp.rowHits, 0u) << "open-page policy never hit";
    EXPECT_GT(fp.rowMisses, 0u);
}

} // namespace
} // namespace flextm
