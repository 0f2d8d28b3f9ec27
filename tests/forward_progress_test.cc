/**
 * @file
 * Forward-progress suite: starvation escalation, the
 * serial-irrevocable fallback, and the livelock watchdog.
 *
 * The core sweep runs every runtime on the two livelock-prone
 * workloads under an adversarial plan (forced signature false
 * positives + random scheduler tie-breaking + occasional remote
 * aborts) across many seeds, with a hair-trigger escalation
 * threshold: every run must terminate within its cycle bound and
 * pass the serializability oracle, and every runtime must show the
 * irrevocable fallback engaging.  Two demonstration tests then show
 * the layer's teeth: with escalation disabled an Aggressive-policy
 * run livelocks (or blows through 10x the escalated completion
 * time), and the watchdog alone - thresholds and karma off -
 * rescues the same configuration.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/parallel.hh"
#include "sim/progress.hh"
#include "workloads/fault_harness.hh"

namespace flextm
{
namespace
{

constexpr WorkloadKind kWorkloads[] = {
    WorkloadKind::RandomGraph,
    WorkloadKind::HashTable,
};
/** 6 runtimes x 2 workloads x 9 seeds = 108 adversarial runs. */
constexpr unsigned kSeedsPerCell = 9;

FaultRunOptions
adversarialOptions(std::uint64_t seed)
{
    FaultRunOptions opt;
    opt.seed = seed;
    opt.threads = 4;
    opt.totalOps = 96;
    // Manufacture conflicts that are not real (signature false
    // positives), shuffle interleavings (scheduler tie-break
    // window), and land occasional enemy-style kills.
    opt.machine.fault.seed = seed;
    opt.machine.fault.sigFalsePositivePct = 8;
    opt.machine.fault.remoteAbortPct = 1;
    opt.machine.fault.schedWindowCycles = 64;
    // Hair-trigger escalation so the serial fallback engages within
    // a small run; the watchdog backstops it.
    opt.machine.progress.escalationThreshold = 2;
    opt.machine.progress.watchdogCycles = 1'000'000;
    // Hard termination bound: a livelocked run fails loudly instead
    // of wedging the suite.
    opt.maxCycles = 100'000'000;
    return opt;
}

void
sweepRuntime(RuntimeKind rk, unsigned rt_index)
{
    // Independent adversarial cells across a thread pool; the gtest
    // assertions run after the join, over pre-sized result slots.
    const std::size_t cells = std::size(kWorkloads) * kSeedsPerCell;
    std::vector<ExperimentResult> results(cells);
    parallelFor(cells, defaultJobs(), [&](std::size_t i) {
        const std::size_t w = i / kSeedsPerCell;
        const std::uint64_t seed =
            7000 +
            (std::uint64_t{rt_index} * std::size(kWorkloads) + w) *
                kSeedsPerCell +
            i % kSeedsPerCell;
        FaultRunOptions opt = adversarialOptions(seed);
        opt.quiet = true;
        results[i] = runFaultedExperiment(kWorkloads[w], rk, opt);
    });
    std::uint64_t entries = 0;
    for (const ExperimentResult &r : results) {
        ASSERT_FALSE(r.timedOut) << r.report.message;
        ASSERT_TRUE(r.report.ok) << r.report.message;
        EXPECT_GT(r.commits, 0u) << r.context;
        EXPECT_GT(r.report.checkedTxns, 0u) << r.context;
        entries += r.irrevocableEntries;
    }
    if (entries == 0) {
        // CGL never aborts, so it cannot trip the consecutive-abort
        // threshold organically: demonstrate the fallback through
        // the programmer-requested irrevocability API instead.
        FaultRunOptions opt = adversarialOptions(8900 + rt_index);
        opt.irrevocableEveryN = 4;
        const ExperimentResult r = runFaultedExperiment(
            WorkloadKind::HashTable, rk, opt);
        ASSERT_FALSE(r.timedOut) << r.report.message;
        ASSERT_TRUE(r.report.ok) << r.report.message;
        entries += r.irrevocableEntries;
    }
    // Every runtime must have demonstrated the serial fallback.
    EXPECT_GT(entries, 0u) << runtimeKindName(rk);
}

} // anonymous namespace

TEST(ForwardProgressSweep, FlexTmEager)
{
    sweepRuntime(RuntimeKind::FlexTmEager, 0);
}
TEST(ForwardProgressSweep, FlexTmLazy)
{
    sweepRuntime(RuntimeKind::FlexTmLazy, 1);
}
TEST(ForwardProgressSweep, Cgl) { sweepRuntime(RuntimeKind::Cgl, 2); }
TEST(ForwardProgressSweep, Rstm)
{
    sweepRuntime(RuntimeKind::Rstm, 3);
}
TEST(ForwardProgressSweep, Tl2) { sweepRuntime(RuntimeKind::Tl2, 4); }
TEST(ForwardProgressSweep, RtmF)
{
    sweepRuntime(RuntimeKind::RtmF, 5);
}

namespace
{

/** The livelock victim: Aggressive conflict management with flat
 *  back-off on the conflict-heavy random graph - colliding
 *  transactions kill each other on sight, restart after a constant
 *  stall, and collide again. */
FaultRunOptions
livelockProneOptions()
{
    FaultRunOptions opt;
    opt.seed = 4321;
    opt.threads = 4;
    opt.totalOps = 48;
    opt.machine.cmPolicy = CmPolicy::Aggressive;
    opt.machine.fault.seed = 4321;
    opt.machine.fault.schedWindowCycles = 64;
    opt.machine.progress.backoffShiftCap = 0;
    return opt;
}

} // anonymous namespace

/** Escalation disabled => the Aggressive configuration livelocks
 *  (acceptance bound: it cannot finish within 10x the escalated
 *  run's completion time).  Escalation enabled => same seed, same
 *  policy drains through the serial fallback. */
TEST(ForwardProgress, EscalationRescuesAggressiveLivelock)
{
    FaultRunOptions good_opt = livelockProneOptions();
    good_opt.machine.progress.escalationThreshold = 4;
    good_opt.machine.progress.watchdogCycles = 2'000'000;
    good_opt.maxCycles = 200'000'000;
    const ExperimentResult good = runFaultedExperiment(
        WorkloadKind::RandomGraph, RuntimeKind::FlexTmEager,
        good_opt);
    ASSERT_FALSE(good.timedOut) << good.report.message;
    ASSERT_TRUE(good.report.ok) << good.report.message;
    EXPECT_GT(good.irrevocableEntries, 0u);

    FaultRunOptions bad_opt = livelockProneOptions();
    bad_opt.machine.progress.escalationThreshold = 0;
    bad_opt.machine.progress.karmaAbortBoost = 0;
    bad_opt.machine.progress.watchdogCycles = 0;
    bad_opt.maxCycles = 10 * good.cycles;
    const ExperimentResult bad = runFaultedExperiment(
        WorkloadKind::RandomGraph, RuntimeKind::FlexTmEager,
        bad_opt);
    EXPECT_TRUE(bad.timedOut)
        << "unescalated run finished in " << bad.cycles
        << " cycles (escalated: " << good.cycles << ")";
}

/** With the consecutive-abort threshold and karma boost disabled,
 *  the watchdog alone detects the commit drought and rescues the
 *  run by force-escalating the oldest transaction. */
TEST(ForwardProgress, WatchdogAloneRescuesLivelock)
{
    FaultRunOptions opt = livelockProneOptions();
    opt.machine.progress.escalationThreshold = 0;
    opt.machine.progress.karmaAbortBoost = 0;
    opt.machine.progress.watchdogCycles = 100'000;
    opt.maxCycles = 400'000'000;
    const ExperimentResult r = runFaultedExperiment(
        WorkloadKind::RandomGraph, RuntimeKind::FlexTmEager, opt);
    ASSERT_FALSE(r.timedOut) << r.report.message;
    ASSERT_TRUE(r.report.ok) << r.report.message;
    EXPECT_GT(r.watchdogTrips, 0u);
    EXPECT_GT(r.irrevocableEntries, 0u);
}

/** Starvation escalation in isolation: the karma bonus grows with
 *  consecutive aborts and resets on commit. */
TEST(ProgressManagerUnit, KarmaAndThreshold)
{
    ProgressConfig pc;
    pc.escalationThreshold = 3;
    pc.karmaAbortBoost = 10;
    StatRegistry st;
    ProgressManager pm(pc, st);

    EXPECT_EQ(pm.bonusKarma(5), 0u);
    pm.txnBegan(5, 0, 100);
    pm.txnAborted(5);
    pm.txnBegan(5, 0, 200);
    pm.txnAborted(5);
    EXPECT_EQ(pm.consecutiveAborts(5), 2u);
    EXPECT_EQ(pm.bonusKarma(5), 20u);
    EXPECT_FALSE(pm.shouldEscalate(5));

    pm.txnBegan(5, 0, 300);
    pm.txnAborted(5);
    EXPECT_TRUE(pm.shouldEscalate(5));
    EXPECT_EQ(pm.bonusKarma(5), 30u);

    pm.txnBegan(5, 0, 400);
    pm.txnCommitted(5, 500);
    EXPECT_EQ(pm.consecutiveAborts(5), 0u);
    EXPECT_EQ(pm.bonusKarma(5), 0u);
    EXPECT_FALSE(pm.shouldEscalate(5));
}

TEST(ProgressManagerUnit, TokenProtocol)
{
    ProgressConfig pc;
    StatRegistry st;
    ProgressManager pm(pc, st);

    EXPECT_FALSE(pm.tokenHeldByOther(1));
    EXPECT_TRUE(pm.tryAcquireToken(1, 0));
    EXPECT_TRUE(pm.tryAcquireToken(1, 0));  // idempotent for holder
    EXPECT_EQ(pm.irrevocableEntries(), 1u);
    EXPECT_TRUE(pm.isIrrevocable(1));
    EXPECT_TRUE(pm.isIrrevocableCore(0));
    EXPECT_FALSE(pm.tryAcquireToken(2, 1));
    EXPECT_TRUE(pm.tokenHeldByOther(2));
    EXPECT_FALSE(pm.tokenHeldByOther(1));
    // The holder keeps the token across aborted retries...
    pm.txnBegan(1, 0, 100);
    pm.txnAborted(1);
    EXPECT_TRUE(pm.isIrrevocable(1));
    // ...and releases it at commit.
    pm.txnBegan(1, 0, 200);
    pm.txnCommitted(1, 300);
    EXPECT_FALSE(pm.isIrrevocable(1));
    EXPECT_FALSE(pm.tokenHeldByOther(2));
    EXPECT_TRUE(pm.tryAcquireToken(2, 1));
    EXPECT_EQ(pm.irrevocableEntries(), 2u);
}

TEST(ProgressManagerUnit, WatchdogTripsOnlyWithActiveTxns)
{
    ProgressConfig pc;
    pc.watchdogCycles = 100;
    pc.escalationThreshold = 0;
    StatRegistry st;
    ProgressManager pm(pc, st);

    pm.watchdogPoll(500);  // idle machine: the window just restarts
    EXPECT_EQ(pm.watchdogTrips(), 0u);

    pm.txnBegan(1, 0, 520);
    pm.txnBegan(2, 1, 540);
    pm.watchdogPoll(560);  // inside the window
    EXPECT_EQ(pm.watchdogTrips(), 0u);

    pm.watchdogPoll(700);  // expired with transactions in flight
    EXPECT_EQ(pm.watchdogTrips(), 1u);
    EXPECT_TRUE(pm.shouldEscalate(1));  // oldest active escalated
    EXPECT_FALSE(pm.shouldEscalate(2));

    pm.txnCommitted(1, 710);  // feeds the watchdog, clears the flag
    EXPECT_FALSE(pm.shouldEscalate(1));
    pm.watchdogPoll(800);  // 90 cycles since the commit: no trip
    EXPECT_EQ(pm.watchdogTrips(), 1u);
}

TEST(ProgressManagerUnit, WatchdogDisabledNeverTrips)
{
    ProgressConfig pc;
    pc.watchdogCycles = 0;
    StatRegistry st;
    ProgressManager pm(pc, st);
    pm.txnBegan(1, 0, 10);
    pm.watchdogPoll(1'000'000'000);
    EXPECT_EQ(pm.watchdogTrips(), 0u);
    EXPECT_FALSE(pm.shouldEscalate(1));
}

} // namespace flextm
