/**
 * @file
 * HyTM (bounded best-effort HTM + TL2 fallback) suite.
 *
 * Unit tests pin the mode-selection policy (small transactions stay
 * on the hardware fast path; capacity overflow and the retry budget
 * drive the software fallback; irrevocable transactions go straight
 * to software; the fallback gate serializes the two modes), plus the
 * monotonicity smoke assertion the ablation bench relies on.  The
 * FaultSweep test is the same 3-workload x 18-seed chaos sweep the
 * other runtimes face (run under FLEXTM_AUDITOR=transition by the
 * hytm_audit_fault_sweep ctest entry), every cell validated by the
 * serializability oracle.
 */

#include <gtest/gtest.h>

#include "runtime/hytm_runtime.hh"
#include "runtime/runtime_factory.hh"
#include "sim/parallel.hh"
#include "workloads/fault_harness.hh"

namespace flextm
{
namespace
{

MachineConfig
smallConfig(unsigned cores = 4)
{
    MachineConfig cfg;
    cfg.cores = cores;
    cfg.memoryBytes = 64u << 20;
    return cfg;
}

/** Small transactions never leave the hardware path. */
TEST(HytmUnit, SmallTxnsCommitOnTheFastPath)
{
    Machine m(smallConfig());
    RuntimeFactory f(m, RuntimeKind::HyTm);
    const Addr counter = m.memory().allocate(8, 8);

    auto t = f.makeThread(0, 0);
    m.scheduler().spawn(0, [&] {
        for (int i = 0; i < 100; ++i) {
            t->txn([&] {
                const auto v = t->load<std::uint64_t>(counter);
                t->store<std::uint64_t>(counter, v + 1);
            });
        }
    });
    m.run();
    EXPECT_EQ(t->commits(), 100u);
    EXPECT_EQ(t->aborts(), 0u);
    EXPECT_EQ(m.stats().counterValue("hytm.htm_commits"), 100u);
    EXPECT_EQ(m.stats().counterValue("hytm.slow_commits"), 0u);

    std::uint64_t v = 0;
    m.memsys().peek(counter, &v, 8);
    EXPECT_EQ(v, 100u);
}

/** A footprint over the write bound capacity-aborts htmRetryLimit
 *  times, then completes on the TL2 slow path. */
TEST(HytmUnit, OversizedFootprintFallsBackAfterRetryBudget)
{
    MachineConfig cfg = smallConfig();
    cfg.htmWriteSetLines = 2;
    cfg.htmRetryLimit = 3;
    Machine m(cfg);
    RuntimeFactory f(m, RuntimeKind::HyTm);
    const unsigned lines = 8;  // > write bound, every attempt
    const Addr base = m.memory().allocate(lines * lineBytes, lineBytes);

    auto t = f.makeThread(0, 0);
    m.scheduler().spawn(0, [&] {
        t->txn([&] {
            for (unsigned i = 0; i < lines; ++i)
                t->store<std::uint64_t>(base + i * lineBytes, i + 1);
        });
    });
    m.run();
    EXPECT_EQ(t->commits(), 1u);
    // Exactly the retry budget's worth of hardware attempts died.
    EXPECT_EQ(t->aborts(), 3u);
    EXPECT_EQ(m.stats().counterValue("hytm.capacity_aborts"), 3u);
    EXPECT_EQ(m.stats().counterValue("hytm.htm_commits"), 0u);
    EXPECT_EQ(m.stats().counterValue("hytm.slow_commits"), 1u);
    for (unsigned i = 0; i < lines; ++i) {
        std::uint64_t v = 0;
        m.memsys().peek(base + i * lineBytes, &v, 8);
        EXPECT_EQ(v, i + 1) << i;
    }
}

/** The read bound counts the fallback-lock subscription: a read-only
 *  transaction of exactly htmReadSetLines data lines must already
 *  overflow. */
TEST(HytmUnit, SubscriptionConsumesAReadSetSlot)
{
    MachineConfig cfg = smallConfig();
    cfg.htmReadSetLines = 4;
    cfg.htmRetryLimit = 1;  // fall back on the first abort
    Machine m(cfg);
    RuntimeFactory f(m, RuntimeKind::HyTm);
    const Addr base = m.memory().allocate(4 * lineBytes, lineBytes);

    auto t = f.makeThread(0, 0);
    m.scheduler().spawn(0, [&] {
        // 3 data lines + gate = 4: fits exactly.
        t->txn([&] {
            for (unsigned i = 0; i < 3; ++i)
                (void)t->load<std::uint64_t>(base + i * lineBytes);
        });
        EXPECT_EQ(m.stats().counterValue("hytm.capacity_aborts"), 0u);
        // 4 data lines + gate = 5: capacity abort, then slow path.
        t->txn([&] {
            for (unsigned i = 0; i < 4; ++i)
                (void)t->load<std::uint64_t>(base + i * lineBytes);
        });
        EXPECT_EQ(m.stats().counterValue("hytm.capacity_aborts"), 1u);
    });
    m.run();
    EXPECT_EQ(t->commits(), 2u);
    EXPECT_EQ(m.stats().counterValue("hytm.htm_commits"), 1u);
    EXPECT_EQ(m.stats().counterValue("hytm.slow_commits"), 1u);
}

/** Irrevocable transactions skip the best-effort hardware entirely
 *  (an HTM attempt can always abort spuriously, which an irrevocable
 *  body must never do). */
TEST(HytmUnit, IrrevocableGoesStraightToTheSlowPath)
{
    Machine m(smallConfig());
    RuntimeFactory f(m, RuntimeKind::HyTm);
    const Addr counter = m.memory().allocate(8, 8);

    auto t = f.makeThread(0, 0);
    m.scheduler().spawn(0, [&] {
        t->requestIrrevocable();
        t->txn([&] {
            const auto v = t->load<std::uint64_t>(counter);
            t->store<std::uint64_t>(counter, v + 1);
        });
    });
    m.run();
    EXPECT_EQ(t->commits(), 1u);
    EXPECT_EQ(m.stats().counterValue("hytm.htm_commits"), 0u);
    EXPECT_EQ(m.stats().counterValue("hytm.slow_commits"), 1u);
}

/** Hardware and software modes serialize on the fallback gate: mixed
 *  footprints hammering one counter lose no updates. */
TEST(HytmUnit, GateSerializesFastAndSlowPaths)
{
    const unsigned threads = 4;
    MachineConfig cfg = smallConfig(threads);
    cfg.htmWriteSetLines = 2;
    cfg.htmRetryLimit = 2;
    Machine m(cfg);
    RuntimeFactory f(m, RuntimeKind::HyTm);
    const Addr counter = m.memory().allocate(8, 8);
    const Addr spill = m.memory().allocate(8 * lineBytes, lineBytes);

    std::vector<std::unique_ptr<TxThread>> ts;
    for (unsigned i = 0; i < threads; ++i)
        ts.push_back(f.makeThread(i, i));
    for (unsigned i = 0; i < threads; ++i) {
        TxThread *t = ts[i].get();
        const bool fat = (i % 2) == 0;  // forces the slow path
        m.scheduler().spawn(i, [t, counter, spill, fat] {
            for (int k = 0; k < 100; ++k) {
                t->txn([&] {
                    const auto v = t->load<std::uint64_t>(counter);
                    t->work(20);
                    t->store<std::uint64_t>(counter, v + 1);
                    if (fat) {
                        for (unsigned j = 0; j < 4; ++j) {
                            const auto w = t->load<std::uint64_t>(
                                spill + j * lineBytes);
                            t->store<std::uint64_t>(
                                spill + j * lineBytes, w + 1);
                        }
                    }
                });
            }
        });
    }
    m.run();

    std::uint64_t v = 0;
    m.memsys().peek(counter, &v, 8);
    EXPECT_EQ(v, std::uint64_t{threads} * 100);
    // Both modes must actually have run.
    EXPECT_GT(m.stats().counterValue("hytm.htm_commits"), 0u);
    EXPECT_GT(m.stats().counterValue("hytm.slow_commits"), 0u);
}

/**
 * The monotonicity assertion the ablation bench pins: on one
 * deterministic single-threaded mix of footprints, growing the write
 * bound strictly shrinks (or holds) the slow-path fraction.
 */
TEST(HytmUnit, SlowPathFractionDecreasesWithLargerBounds)
{
    auto slowFraction = [](unsigned write_bound) {
        MachineConfig cfg;
        cfg.cores = 2;
        cfg.memoryBytes = 64u << 20;
        cfg.htmReadSetLines = 64;
        cfg.htmWriteSetLines = write_bound;
        cfg.htmRetryLimit = 2;
        Machine m(cfg);
        RuntimeFactory f(m, RuntimeKind::HyTm);
        const unsigned maxSpan = 24;
        const Addr base =
            m.memory().allocate(maxSpan * lineBytes, lineBytes);
        auto t = f.makeThread(0, 0);
        m.scheduler().spawn(0, [&] {
            for (unsigned k = 0; k < 96; ++k) {
                const unsigned span = 1 + k % maxSpan;
                t->txn([&] {
                    for (unsigned j = 0; j < span; ++j) {
                        const Addr a = base + j * lineBytes;
                        const auto v = t->load<std::uint64_t>(a);
                        t->store<std::uint64_t>(a, v + 1);
                    }
                });
            }
        });
        m.run();
        const double slow = static_cast<double>(
            m.stats().counterValue("hytm.slow_commits"));
        const double commits = static_cast<double>(
            m.stats().counterValue("tx.commits"));
        return slow / commits;
    };

    double prev = 2.0;
    for (unsigned bound : {2u, 4u, 8u, 16u, 32u}) {
        const double frac = slowFraction(bound);
        EXPECT_LE(frac, prev) << "slow-path fraction rose when the "
                                 "write bound grew to "
                              << bound;
        prev = frac;
    }
    // The extremes behave as the design demands.
    EXPECT_GT(slowFraction(2), 0.8);
    EXPECT_EQ(slowFraction(32), 0.0);
}

/** The full chaos sweep, identical in shape to the per-runtime
 *  FaultSweep cells of fault_injection_test: 3 workloads x 18 seeds,
 *  every history oracle-validated. */
TEST(HytmFaultSweep, FiftyFourSeedsSerializable)
{
    constexpr WorkloadKind workloads[] = {
        WorkloadKind::HashTable,
        WorkloadKind::RBTree,
        WorkloadKind::LFUCache,
    };
    constexpr unsigned seedsPerCell = 18;
    const std::size_t cells = std::size(workloads) * seedsPerCell;
    std::vector<ExperimentResult> results(cells);
    parallelFor(cells, defaultJobs(), [&](std::size_t i) {
        FaultRunOptions opt;
        opt.seed = 9000 + i;
        opt.threads = 4;
        opt.totalOps = 96;
        opt.quiet = true;
        results[i] = runFaultedExperiment(workloads[i / seedsPerCell],
                                          RuntimeKind::HyTm, opt);
    });
    std::uint64_t fired = 0;
    for (const ExperimentResult &r : results) {
        ASSERT_TRUE(r.report.ok) << r.report.message;
        EXPECT_FALSE(r.timedOut) << r.context;
        EXPECT_GT(r.commits, 0u) << r.context;
        EXPECT_GT(r.report.checkedTxns, 0u) << r.context;
        fired += r.faultsFired;
    }
    EXPECT_GT(fired, 0u);
}

} // anonymous namespace
} // namespace flextm
