/**
 * @file
 * Regression tests for thread_local leakage across parallelFor
 * sweeps.  Pool threads - and the driver thread, which also executes
 * tasks - are reused across consecutive sweeps; resetTaskTls() must
 * hand every task fresh-thread TLS (no active fault plan, no stale
 * trace mask/sink), so the Nth sweep of a long-lived process behaves
 * exactly like a fresh-process run.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/fault.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"
#include "workloads/fault_harness.hh"

namespace flextm
{
namespace
{

/** Pollute this OS thread's simulator TLS the way a buggy or aborted
 *  task would leave it. */
void
polluteTls(FaultPlan &plan)
{
    FaultPlan::setActive(&plan);
    trace::setMask(trace::All);
    trace::setSink([](const std::string &) {});
}

TEST(ParallelTls, TasksStartWithFreshThreadState)
{
    FaultPlan stale;
    polluteTls(stale);

    std::vector<const FaultPlan *> plans(4, &stale);
    std::vector<unsigned> masks(4, 1234u);
    parallelFor(4, 2, [&](std::size_t i) {
        plans[i] = FaultPlan::active();
        masks[i] = trace::mask();
    });
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(plans[i], nullptr) << "task " << i;
        // FLEXTM_TRACE is unset in the test env, so a fresh thread's
        // mask re-initializes to zero.
        EXPECT_EQ(masks[i], 0u) << "task " << i;
    }

    // The serial path resets too (it runs tasks on the polluted
    // driver thread).
    polluteTls(stale);
    const FaultPlan *serial_plan = &stale;
    parallelFor(1, 1,
                [&](std::size_t) { serial_plan = FaultPlan::active(); });
    EXPECT_EQ(serial_plan, nullptr);

    FaultPlan::setActive(nullptr);
    trace::setMask(0);
    trace::setSink({});
}

/** Back-to-back sweeps over the same seed matrix must be identical
 *  to the first (fresh-process) sweep, even when the TLS was
 *  polluted between them. */
TEST(ParallelTls, BackToBackSweepsReplayExactly)
{
    const std::uint64_t seeds[] = {11, 23};
    struct Cell
    {
        std::uint64_t commits = 0, aborts = 0, checkedOps = 0;
        bool ok = false;
    };

    auto sweep = [&] {
        std::vector<Cell> out(2);
        parallelFor(2, 2, [&](std::size_t i) {
            FaultRunOptions opt;
            opt.seed = seeds[i];
            opt.threads = 2;
            opt.totalOps = 24;
            opt.quiet = true;
            ExperimentResult r = runFaultedExperiment(
                WorkloadKind::HashTable, RuntimeKind::Tl2, opt);
            out[i] = Cell{r.commits, r.aborts, r.report.checkedOps,
                          r.report.ok};
        });
        return out;
    };

    const std::vector<Cell> fresh = sweep();
    for (const Cell &c : fresh)
        ASSERT_TRUE(c.ok);

    // Leave a live plan + trace mask on the driver thread, as a
    // misbehaving previous sweep would.
    FaultPlan stale;
    FaultConfig chaos = FaultConfig::chaos(999);
    stale.configure(chaos, 999);
    polluteTls(stale);

    const std::vector<Cell> again = sweep();
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(again[i].commits, fresh[i].commits) << "cell " << i;
        EXPECT_EQ(again[i].aborts, fresh[i].aborts) << "cell " << i;
        EXPECT_EQ(again[i].checkedOps, fresh[i].checkedOps)
            << "cell " << i;
        EXPECT_TRUE(again[i].ok) << "cell " << i;
    }

    FaultPlan::setActive(nullptr);
    trace::setMask(0);
    trace::setSink({});
}

} // anonymous namespace
} // namespace flextm
