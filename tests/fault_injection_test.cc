/**
 * @file
 * Fault-injection sweeps: every runtime x workload cell runs under a
 * chaos FaultPlan for several seeds, and every committed history
 * must pass the serializability oracle.  Failure messages name the
 * reproducing seed (replayable with FLEXTM_FAULT_SEED=<seed>).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "runtime/runtime_factory.hh"
#include "sim/fault.hh"
#include "sim/parallel.hh"
#include "workloads/fault_harness.hh"

using namespace flextm;

namespace
{

constexpr WorkloadKind kWorkloads[] = {
    WorkloadKind::HashTable,
    WorkloadKind::RBTree,
    WorkloadKind::LFUCache,
    WorkloadKind::RandomGraph,
};
constexpr unsigned kSeedsPerCell = 3;

/** Distinct seeds for every (runtime, workload, k) cell across the
 *  per-runtime sweep tests below (12 per registered runtime). */
std::uint64_t
cellSeed(unsigned rt_index, unsigned wl_index, unsigned k)
{
    return 1000 +
           (std::uint64_t{rt_index} * std::size(kWorkloads) + wl_index) *
               kSeedsPerCell +
           k;
}

/** Position in the registry doubles as the seed index, so every
 *  runtime's sweep cells stay on the seeds their goldens were
 *  recorded against as new runtimes append to the registry. */
unsigned
registryIndex(RuntimeKind rk)
{
    const auto &kinds = allRuntimeKinds();
    for (unsigned i = 0; i < kinds.size(); ++i)
        if (kinds[i] == rk)
            return i;
    ADD_FAILURE() << "runtime " << runtimeKindName(rk)
                  << " is not registered";
    return 0;
}

void
sweepRuntime(RuntimeKind rk, unsigned rt_index)
{
    // The cells are independent Machines, so they run across a
    // thread pool; gtest assertions happen only after the join.
    const std::size_t cells = std::size(kWorkloads) * kSeedsPerCell;
    std::vector<ExperimentResult> results(cells);
    parallelFor(cells, defaultJobs(), [&](std::size_t i) {
        FaultRunOptions opt;
        opt.seed = cellSeed(rt_index,
                            static_cast<unsigned>(i / kSeedsPerCell),
                            static_cast<unsigned>(i % kSeedsPerCell));
        opt.threads = 4;
        opt.totalOps = 96;
        opt.quiet = true;
        results[i] =
            runFaultedExperiment(kWorkloads[i / kSeedsPerCell], rk, opt);
    });
    std::uint64_t fired = 0;
    for (const ExperimentResult &r : results) {
        ASSERT_TRUE(r.report.ok) << r.report.message;
        EXPECT_GT(r.commits, 0u) << r.context;
        EXPECT_GT(r.report.checkedTxns, 0u) << r.context;
        // The reproduction recipe must name the seed used.
        EXPECT_NE(r.context.find("seed=" + std::to_string(r.seed)),
                  std::string::npos);
        fired += r.faultsFired;
    }
    // The chaos plan must actually have perturbed the sweep.
    EXPECT_GT(fired, 0u) << runtimeKindName(rk);
}

} // anonymous namespace

class FaultSweep : public ::testing::TestWithParam<RuntimeKind>
{
};

TEST_P(FaultSweep, SerializableUnderChaos)
{
    sweepRuntime(GetParam(), registryIndex(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, FaultSweep, ::testing::ValuesIn(allRuntimeKinds()),
    [](const ::testing::TestParamInfo<RuntimeKind> &info) {
        std::string n = runtimeKindName(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/** Forced TMI evictions must drive the Overflow Table through its
 *  spill and refill paths - and the history must stay serializable.
 *  The mix configured in MachineConfig::fault is the one that runs:
 *  forced evictions are the only injections that fire. */
TEST(FaultInjection, ForcedEvictionsExerciseOverflowTable)
{
    FaultRunOptions opt;
    opt.seed = 4242;
    opt.threads = 4;
    opt.totalOps = 96;
    opt.machine.fault.seed = 4242;
    opt.machine.fault.tmiEvictPct = 30;
    opt.machine.fault.schedWindowCycles = 32;

    std::uint64_t evictions = 0, spills = 0, refills = 0, tmi_fired = 0;
    opt.inspect = [&](Machine &m) {
        evictions = m.stats().counterValue("fault.tmi_evictions");
        spills = m.stats().counterValue("ot.spills");
        refills = m.stats().counterValue("ot.refills");
        tmi_fired = m.faultPlan()->fired(FaultKind::TmiEvict);
    };
    ExperimentResult r = runFaultedExperiment(
        WorkloadKind::LFUCache, RuntimeKind::FlexTmLazy, opt);
    EXPECT_TRUE(r.report.ok) << r.report.message;
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(spills, 0u);
    EXPECT_GT(refills, 0u);
    EXPECT_GT(tmi_fired, 0u);
    EXPECT_EQ(r.faultsFired, tmi_fired);
}

/** Same plan + seed replays identically; different seeds diverge. */
TEST(FaultPlanDeterminism, SameSeedSameDecisions)
{
    FaultConfig cfg = FaultConfig::chaos(7);
    FaultPlan a, b;
    a.configure(cfg, 1);
    b.configure(cfg, 1);
    for (int i = 0; i < 1000; ++i) {
        const auto k = static_cast<FaultKind>(i % 5);
        ASSERT_EQ(a.fire(k), b.fire(k));
        ASSERT_EQ(a.pickIndex(8), b.pickIndex(8));
    }
    EXPECT_EQ(a.totalFired(), b.totalFired());

    FaultPlan c;
    c.configure(FaultConfig::chaos(8), 1);
    unsigned diverged = 0;
    for (int i = 0; i < 1000; ++i) {
        const auto k = static_cast<FaultKind>(i % 5);
        if (a.fire(k) != c.fire(k))
            ++diverged;
    }
    EXPECT_GT(diverged, 0u);
}

TEST(FaultPlanDeterminism, HarnessRunsReplayExactly)
{
    auto run = [] {
        FaultRunOptions opt;
        opt.seed = 1234;
        opt.threads = 3;
        opt.totalOps = 48;
        return runFaultedExperiment(WorkloadKind::HashTable,
                                    RuntimeKind::FlexTmEager, opt);
    };
    ExperimentResult a = run();
    ExperimentResult b = run();
    EXPECT_TRUE(a.report.ok) << a.report.message;
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_EQ(a.faultsFired, b.faultsFired);
    EXPECT_EQ(a.report.checkedTxns, b.report.checkedTxns);
    EXPECT_EQ(a.report.checkedOps, b.report.checkedOps);
}

TEST(FaultSeedEnv, OverrideParsesStrictly)
{
    unsetenv("FLEXTM_FAULT_SEED");
    EXPECT_EQ(envFaultSeed(5), 5u);
    setenv("FLEXTM_FAULT_SEED", "123", 1);
    EXPECT_EQ(envFaultSeed(5), 123u);
    // Base 0: failure reports print seeds in hex.
    setenv("FLEXTM_FAULT_SEED", "0x20", 1);
    EXPECT_EQ(envFaultSeed(5), 0x20u);
    // Garbage no longer silently replays the fallback seed.
    setenv("FLEXTM_FAULT_SEED", "botched", 1);
    EXPECT_DEATH(envFaultSeed(5), "FLEXTM_FAULT_SEED");
    setenv("FLEXTM_FAULT_SEED", "12x", 1);
    EXPECT_DEATH(envFaultSeed(5), "FLEXTM_FAULT_SEED");
    unsetenv("FLEXTM_FAULT_SEED");
}
