/**
 * @file
 * The contention-management suite under fire.  Three parts:
 *
 *  - Teeth tests for auditor invariant I9 (progressiveness): a kill
 *    with no recorded conflict against the victim must trip, a kill
 *    of the irrevocability-token holder must trip even when a
 *    conflict justifies it, and the violation must come with a
 *    deterministic repro bundle.  Collect mode, like the other
 *    auditor teeth tests: a tripped invariant here means the teeth
 *    work, not that the protocol broke.
 *
 *  - The adversarial pack sweep: every policy x every registered
 *    runtime x seed on the hot-spot storm and the cyclic-conflict
 *    generator, through the fault harness with the auditor armed.
 *    Every history must stay serializable with zero starved threads
 *    and at most one watchdog trip per run - the acceptance bar for
 *    calling a policy progressive.
 *
 *  - A 54-seed oracle-validated chaos sweep per policy (3 workloads
 *    x 18 seeds, the HyTM sweep's shape): the non-adversarial
 *    workloads under chaos injection, proving a policy swap never
 *    costs serializability.
 */

#include <gtest/gtest.h>

#include <vector>

#include "runtime/conflict_manager.hh"
#include "runtime/runtime_factory.hh"
#include "sim/auditor.hh"
#include "sim/parallel.hh"
#include "workloads/fault_harness.hh"

namespace flextm
{
namespace
{

const std::vector<CmPolicy> kPolicies = {
    CmPolicy::Polka,
    CmPolicy::Aggressive,
    CmPolicy::Timid,
    CmPolicy::TimestampGreedy,
    CmPolicy::RandomizedBackoff,
    CmPolicy::SerialIrrevocableFirst,
};

unsigned
policyIndex(CmPolicy p)
{
    for (unsigned i = 0; i < kPolicies.size(); ++i)
        if (kPolicies[i] == p)
            return i;
    ADD_FAILURE() << "policy " << cmPolicyName(p) << " not in suite";
    return 0;
}

std::string
policyTestName(const ::testing::TestParamInfo<CmPolicy> &info)
{
    std::string n = cmPolicyName(info.param);
    for (auto &c : n)
        if (c == '-')
            c = '_';
    return n;
}

// ---------------------------------------------------------------
// I9 teeth.
// ---------------------------------------------------------------

class ProgressivenessTeeth : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MachineConfig c;
        c.cores = 4;
        c.memoryBytes = 16u << 20;
        c.auditor = AuditLevel::Transition;
        m = std::make_unique<Machine>(c);
        aud = m->memsys().auditor();
        if (!aud)
            GTEST_SKIP() << "auditor disabled by environment";
        aud->setCollect(true);
    }

    std::unique_ptr<Machine> m;
    StateAuditor *aud = nullptr;
};

TEST_F(ProgressivenessTeeth, UnjustifiedKillTrips)
{
    aud->noteCmTxnStart(0);
    aud->clearViolations();
    // Core 0 kills core 1 with no conflict on record anywhere.
    aud->noteEnemyAbort(100, 0, 1);
    ASSERT_FALSE(aud->violations().empty())
        << "unjustified kill not detected";
    EXPECT_EQ(aud->violations()[0].invariant, "I9 progressiveness");
}

TEST_F(ProgressivenessTeeth, ConflictOnRecordJustifiesTheKill)
{
    aud->noteCmTxnStart(0);
    aud->noteCmConflict(0, 1);
    aud->clearViolations();
    aud->noteEnemyAbort(100, 0, 1);
    EXPECT_TRUE(aud->violations().empty())
        << aud->violations()[0].detail;
}

TEST_F(ProgressivenessTeeth, RetryResetsTheJustification)
{
    // The conflict log is per-attempt: a conflict observed on the
    // last attempt does not license a kill on this one.
    aud->noteCmTxnStart(0);
    aud->noteCmConflict(0, 1);
    aud->noteCmTxnStart(0);
    aud->clearViolations();
    aud->noteEnemyAbort(100, 0, 1);
    ASSERT_FALSE(aud->violations().empty())
        << "stale-attempt justification accepted";
    EXPECT_EQ(aud->violations()[0].invariant, "I9 progressiveness");
}

TEST_F(ProgressivenessTeeth, TokenHolderKillTripsEvenWhenJustified)
{
    // The transaction on core 1 holds the irrevocability token.
    ASSERT_TRUE(m->progress().tryAcquireToken(/*tid=*/1, /*core=*/1));
    aud->noteCmTxnStart(0);
    aud->noteCmConflict(0, 1);
    aud->clearViolations();
    aud->noteEnemyAbort(100, 0, 1);
    ASSERT_FALSE(aud->violations().empty())
        << "token-holder kill not detected";
    EXPECT_EQ(aud->violations()[0].invariant, "I9 progressiveness");
}

TEST_F(ProgressivenessTeeth, ViolationCarriesReproBundle)
{
    aud->noteCmTxnStart(0);
    aud->clearViolations();
    aud->noteEnemyAbort(100, 0, 1);
    ASSERT_FALSE(aud->violations().empty());
    const std::string &b = aud->lastBundle();
    EXPECT_NE(b.find("invariant: I9 progressiveness"),
              std::string::npos);
    EXPECT_NE(b.find("seed="), std::string::npos);
    EXPECT_NE(b.find("last events"), std::string::npos);
}

// ---------------------------------------------------------------
// The adversarial pack, swept policy x runtime x seed.
// ---------------------------------------------------------------

constexpr WorkloadKind kAdversarial[] = {
    WorkloadKind::HotSpot,
    WorkloadKind::CyclicConflict,
};
constexpr unsigned kAdvSeedsPerCell = 2;

class CmAdversarialSweep : public ::testing::TestWithParam<CmPolicy>
{
};

TEST_P(CmAdversarialSweep, PackProgressesAndStaysSerializable)
{
    const CmPolicy policy = GetParam();
    const auto &kinds = allRuntimeKinds();
    const std::size_t cells =
        kinds.size() * std::size(kAdversarial) * kAdvSeedsPerCell;
    std::vector<ExperimentResult> results(cells);
    parallelFor(cells, defaultJobs(), [&](std::size_t i) {
        const std::size_t rt =
            i / (std::size(kAdversarial) * kAdvSeedsPerCell);
        const std::size_t wl =
            (i / kAdvSeedsPerCell) % std::size(kAdversarial);
        FaultRunOptions opt;
        // Distinct seeds for every (policy, runtime, workload, k).
        opt.seed = 20000 + policyIndex(policy) * cells + i;
        opt.threads = 4;
        opt.totalOps = 64;
        opt.quiet = true;
        opt.machine.cmPolicy = policy;
        // Arm the auditor: an I9 violation (unjustified kill,
        // token-holder kill) panics the run and fails the sweep.
        opt.machine.auditor = AuditLevel::TxnBoundary;
        // Livelock bound: a policy that cannot finish 64 ops on the
        // pack within this budget reports timedOut instead of
        // wedging the suite.
        opt.maxCycles = 80'000'000;
        results[i] =
            runFaultedExperiment(kAdversarial[wl], kinds[rt], opt);
    });
    for (const ExperimentResult &r : results) {
        EXPECT_FALSE(r.timedOut) << r.context;
        if (r.timedOut)
            continue;
        ASSERT_TRUE(r.report.ok) << r.report.message;
        EXPECT_GT(r.commits, 0u) << r.context;
        // Progressiveness score: nobody starves, and the watchdog
        // (the backstop for a policy gone cyclic) fires at most
        // once per run.
        EXPECT_EQ(r.starvedThreads, 0u) << r.context;
        EXPECT_LE(r.watchdogTrips, 1u) << r.context;
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CmAdversarialSweep,
                         ::testing::ValuesIn(kPolicies),
                         policyTestName);

// The adversarial workloads must actually be adversarial: at 4
// threads the hot-spot storm has to generate aborts (otherwise the
// pack tests nothing), and the harness has to surface the tail /
// starvation metrics the bench scores.
TEST(AdversarialPack, HotSpotStormsAndMetricsSurface)
{
    FaultRunOptions opt;
    opt.seed = 77;
    opt.threads = 4;
    opt.totalOps = 64;
    opt.quiet = true;
    const ExperimentResult r = runFaultedExperiment(
        WorkloadKind::HotSpot, RuntimeKind::FlexTmEager, opt);
    ASSERT_TRUE(r.report.ok) << r.report.message;
    EXPECT_GT(r.aborts, 0u) << "hot-spot storm produced no conflicts";
    EXPECT_EQ(r.threadCommits.size(), 4u);
    EXPECT_EQ(r.threadAborts.size(), 4u);
    std::uint64_t tc = 0;
    for (std::uint64_t c : r.threadCommits)
        tc += c;
    EXPECT_EQ(tc, r.commits);
    EXPECT_GT(r.maxConsecAborts, 0u);
    EXPECT_GT(r.commitLatencyP999, 0u);
    EXPECT_GE(r.commitLatencyP999, r.commitLatencyP99);
}

TEST(AdversarialPack, CyclicConflictGeneratesCycles)
{
    FaultRunOptions opt;
    opt.seed = 78;
    opt.threads = 4;
    opt.totalOps = 64;
    opt.quiet = true;
    const ExperimentResult r = runFaultedExperiment(
        WorkloadKind::CyclicConflict, RuntimeKind::FlexTmEager, opt);
    ASSERT_TRUE(r.report.ok) << r.report.message;
    EXPECT_GT(r.aborts, 0u)
        << "cyclic-conflict generator produced no conflicts";
}

// ---------------------------------------------------------------
// 54-seed oracle chaos sweep per policy (the HyTM sweep's shape).
// ---------------------------------------------------------------

class CmPolicyFaultSweep : public ::testing::TestWithParam<CmPolicy>
{
};

TEST_P(CmPolicyFaultSweep, FiftyFourSeedsSerializable)
{
    const CmPolicy policy = GetParam();
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
        opt.seed = 30000 + policyIndex(policy) * cells + i;
        opt.threads = 4;
        opt.totalOps = 64;
        opt.quiet = true;
        opt.machine.cmPolicy = policy;
        results[i] = runFaultedExperiment(
            workloads[i / seedsPerCell], RuntimeKind::FlexTmEager,
            opt);
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

INSTANTIATE_TEST_SUITE_P(AllPolicies, CmPolicyFaultSweep,
                         ::testing::ValuesIn(kPolicies),
                         policyTestName);

} // anonymous namespace
} // namespace flextm
