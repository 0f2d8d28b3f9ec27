/**
 * @file
 * Two Machines on separate OS threads must not interfere: all
 * simulator state is per-instance or thread-local (the active fault
 * plan, the active fiber scheduler, and the trace configuration).
 * This is the contract the parallel seed sweeps rely on, checked
 * here directly (and under ASan/TSan-style scrutiny via the `fault`
 * label) by comparing concurrent runs against their serial twins.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "sim/trace.hh"
#include "workloads/fault_harness.hh"

using namespace flextm;

namespace
{

/** Two deliberately different cells: distinct runtimes, workloads,
 *  seeds, and (via chaos defaults) fault mixes. */
FaultRunOptions
cellOptions(int which)
{
    FaultRunOptions opt;
    opt.seed = which == 0 ? 4242 : 9099;
    opt.threads = 4;
    opt.totalOps = 96;
    opt.quiet = true;
    return opt;
}

ExperimentResult
runCell(int which)
{
    return which == 0
               ? runFaultedExperiment(WorkloadKind::HashTable,
                                      RuntimeKind::FlexTmEager,
                                      cellOptions(0))
               : runFaultedExperiment(WorkloadKind::LFUCache,
                                      RuntimeKind::FlexTmLazy,
                                      cellOptions(1));
}

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_TRUE(a.report.ok) << a.report.message;
    EXPECT_TRUE(b.report.ok) << b.report.message;
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_EQ(a.faultsFired, b.faultsFired);
    EXPECT_EQ(a.report.checkedTxns, b.report.checkedTxns);
    EXPECT_EQ(a.report.checkedOps, b.report.checkedOps);
    EXPECT_EQ(a.cycles, b.cycles);
}

} // anonymous namespace

/** Concurrent faulted runs reproduce their serial twins exactly -
 *  the fault plans (thread_local actives) cannot cross-fire. */
TEST(ConcurrentMachines, FaultedRunsMatchSerialTwins)
{
    const ExperimentResult serial0 = runCell(0);
    const ExperimentResult serial1 = runCell(1);

    ExperimentResult conc0, conc1;
    std::thread t0([&] { conc0 = runCell(0); });
    std::thread t1([&] { conc1 = runCell(1); });
    t0.join();
    t1.join();

    expectIdentical(serial0, conc0);
    expectIdentical(serial1, conc1);
    // The two cells are genuinely different experiments.
    EXPECT_NE(serial0.commits + serial0.cycles,
              serial1.commits + serial1.cycles);
}

/** Trace configuration is thread-local: one thread tracing into a
 *  private sink must not leak lines into - or flip the mask of - a
 *  concurrently simulating thread. */
TEST(ConcurrentMachines, TraceStateIsPerThread)
{
    std::vector<std::string> lines;
    unsigned quiet_mask_seen = ~0u;

    std::thread tracer([&] {
        trace::setMask(trace::Fault);
        trace::setSink([&](const std::string &l) {
            lines.push_back(l);
        });
        runCell(0);
        trace::setSink(nullptr);
        trace::setMask(0);
    });
    std::thread quiet([&] {
        runCell(1);
        quiet_mask_seen = trace::mask();
    });
    tracer.join();
    quiet.join();

    EXPECT_GT(lines.size(), 0u);
    EXPECT_EQ(quiet_mask_seen, 0u);
}
