/**
 * @file
 * Tests for transactional pause/restart (Section 3.5) and the
 * conflict-management policy variants.
 */

#include <gtest/gtest.h>

#include "runtime/runtime_factory.hh"
#include "workloads/workload.hh"

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

/** Paused-region writes survive an abort of the surrounding txn. */
TEST(PauseTest, PausedWritesAreNotRolledBack)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);
    const Addr tx_cell = m.memory().allocate(lineBytes, lineBytes);
    const Addr log_cell = m.memory().allocate(lineBytes, lineBytes);
    auto t = f.makeThread(0, 0);

    unsigned attempts = 0;
    m.scheduler().spawn(0, [&] {
        t->txn([&] {
            ++attempts;
            t->store<std::uint64_t>(tx_cell, attempts);
            // Software metadata update that must not roll back:
            // count every attempt, transactionally invisible.
            t->pauseTx();
            const auto n = t->load<std::uint64_t>(log_cell);
            t->store<std::uint64_t>(log_cell, n + 1);
            t->unpauseTx();
            if (attempts == 1)
                t->restartTx();  // explicit self-restart
        });
    });
    m.run();

    EXPECT_EQ(attempts, 2u);
    EXPECT_EQ(t->commits(), 1u);
    EXPECT_EQ(t->aborts(), 1u);
    std::uint64_t logged = 0, committed = 0;
    m.memsys().peek(log_cell, &logged, 8);
    m.memsys().peek(tx_cell, &committed, 8);
    EXPECT_EQ(logged, 2u);     // both attempts logged (pause)
    EXPECT_EQ(committed, 2u);  // only the second attempt committed
}

/** Pause state is reset when the body aborts while paused. */
TEST(PauseTest, AbortWhilePausedResets)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    auto t = f.makeThread(0, 0);

    unsigned attempts = 0;
    m.scheduler().spawn(0, [&] {
        t->txn([&] {
            ++attempts;
            t->store<std::uint64_t>(cell, 1);
            if (attempts == 1) {
                t->pauseTx();
                t->restartTx();  // thrown while paused
            }
            EXPECT_FALSE(t->paused());
        });
    });
    m.run();
    EXPECT_EQ(attempts, 2u);
    EXPECT_EQ(t->commits(), 1u);
}

/** Reads in a paused region do not join the conflict set. */
TEST(PauseTest, PausedReadsDontConflict)
{
    Machine m(cfg4());
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);
    const Addr shared = m.memory().allocate(lineBytes, lineBytes);
    const Addr mine = m.memory().allocate(lineBytes, lineBytes);
    auto ta = f.makeThread(0, 0);
    auto tb = f.makeThread(1, 1);
    SimBarrier read_done(m.scheduler(), 2);
    SimBarrier committed(m.scheduler(), 2);

    m.scheduler().spawn(0, [&] {
        ta->txn([&] {
            static bool once = false;
            ta->store<std::uint64_t>(mine, 1);
            // Peek at statistics/shared state without creating a
            // dependence.
            ta->pauseTx();
            (void)ta->load<std::uint64_t>(shared);
            ta->unpauseTx();
            if (!once) {
                once = true;
                read_done.wait();
                committed.wait();  // B commits a write to `shared`
            }
        });
    });
    m.scheduler().spawn(1, [&] {
        read_done.wait();
        tb->txn([&] { tb->store<std::uint64_t>(shared, 9); });
        committed.wait();
    });
    m.run();
    // A must not have been aborted by B's commit.
    EXPECT_EQ(ta->aborts(), 0u);
    EXPECT_EQ(ta->commits(), 1u);
}

/** Policy variants: all three manage the same conflict correctly. */
class CmPolicyTest : public ::testing::TestWithParam<CmPolicy>
{
};

TEST_P(CmPolicyTest, ConflictsResolveAndWorkCompletes)
{
    ExperimentOptions o;
    o.threads = 4;
    o.totalOps = 200;
    o.machine.cores = 8;
    o.machine.memoryBytes = 64u << 20;
    o.machine.cmPolicy = GetParam();
    const ExperimentResult r = runExperiment(
        WorkloadKind::LFUCache, RuntimeKind::FlexTmEager, o);
    EXPECT_EQ(r.commits, 200u);
    EXPECT_GT(r.throughput, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CmPolicyTest,
                         ::testing::Values(CmPolicy::Polka,
                                           CmPolicy::Aggressive,
                                           CmPolicy::Timid),
                         [](const ::testing::TestParamInfo<CmPolicy>
                                &info) {
                             return cmPolicyName(info.param);
                         });

/** Timid self-aborts; Aggressive kills enemies - observable in the
 *  stats the policies leave behind. */
TEST(CmPolicyBehaviour, TimidSelfAbortsAggressiveKills)
{
    auto run_policy = [](CmPolicy p, const char *counter) {
        ExperimentOptions o;
        o.threads = 4;
        o.totalOps = 200;
        o.machine.cores = 8;
        o.machine.memoryBytes = 64u << 20;
        o.machine.cmPolicy = p;
        std::uint64_t count = 0;
        o.inspect = [&](Machine &m) {
            count = m.stats().counterValue(counter);
        };
        runExperiment(WorkloadKind::LFUCache,
                      RuntimeKind::FlexTmEager, o);
        return count;
    };
    EXPECT_GT(run_policy(CmPolicy::Timid, "cm.self_aborts"), 0u);
    EXPECT_GT(run_policy(CmPolicy::Aggressive, "cm.enemy_aborts"),
              0u);
}

} // anonymous namespace
} // namespace flextm
