/**
 * @file
 * Unit tests for the pluggable contention-management suite driven
 * through a scripted CmEnemy: the Aggressive and Timid extreme points,
 * Polka's deficit-proportional patience, the configurable patience
 * cap, the serial-irrevocable override that outranks every policy,
 * and the PR 7 additions - TimestampGreedy's oldest-wins
 * arbitration, RandomizedBackoff's requester-abort discipline,
 * SerialIrrevocableFirst's escalate-on-repeat-conflict, plus the
 * lazy-commit gate / lock-wait / mutex-wait / HTM-conflict surfaces.
 */

#include <gtest/gtest.h>

#include <vector>

#include "runtime/conflict_manager.hh"
#include "runtime/tx_thread.hh"
#include "sim/progress.hh"

namespace flextm
{
namespace
{

/** Minimal concrete TxThread: resolve() only needs machine(), rng(),
 *  work() and the abort poll, never the transaction machinery. */
class StubThread : public TxThread
{
  public:
    using TxThread::TxThread;
    std::string name() const override { return "Stub"; }

    /** Scripted abort poll (unset: never killed while waiting). */
    std::function<void()> onPoll;

  protected:
    void beginTx() override {}
    bool commitTx() override { return true; }
    void abortCleanup() override {}
    std::uint64_t txRead(Addr, unsigned) override { return 0; }
    void txWrite(Addr, std::uint64_t, unsigned) override {}

    void
    pollAbort() override
    {
        if (onPoll)
            onPoll();
    }
};

MachineConfig
smallCfg()
{
    MachineConfig c;
    c.cores = 2;
    c.memoryBytes = 16u << 20;
    return c;
}

/** A scripted enemy.  By default it stays active until killed, is
 *  revocable, has karma 0 and no core; tests override the parts of
 *  the script they exercise.  kills counts abort() calls. */
struct ScriptedEnemy final : CmEnemy
{
    /** Overrides "active until killed" when set. */
    std::function<bool()> isActive;
    std::function<bool()> isIrrevocable = [] { return false; };
    std::uint64_t karmaValue = 0;
    CoreId coreId = invalidCore;

    unsigned kills = 0;
    bool alive = true;

    bool active() override { return isActive ? isActive() : alive; }

    void
    abort() override
    {
        ++kills;
        alive = false;
    }

    std::uint64_t karma() override { return karmaValue; }
    bool irrevocable() override { return isIrrevocable(); }
    CoreId core() const override { return coreId; }
};

/** One machine + stub thread; resolve() charges cycles (which
 *  yields), so every call runs on a scheduler fiber. */
struct Rig
{
    Machine m;
    StubThread t;

    explicit Rig(const MachineConfig &cfg = smallCfg())
        : m(cfg), t(m, 0, 0)
    {
    }

    void
    resolveOn(std::uint64_t my_karma, CmEnemy &enemy, CmPolicy policy,
              bool *threw = nullptr)
    {
        onFiber([&] {
            cmPolicyFor(policy).resolve(t, my_karma, enemy);
        }, threw);
    }

    /** Run @p body on a scheduler fiber, recording whether it threw
     *  TxAbort. */
    void
    onFiber(const std::function<void()> &body, bool *threw = nullptr)
    {
        m.scheduler().spawn(0, [&body, threw] {
            try {
                body();
            } catch (const TxAbort &) {
                if (threw)
                    *threw = true;
            }
        });
        m.run();
    }

    std::uint64_t
    count(const char *name)
    {
        return m.stats().counterValue(name);
    }
};

TEST(AggressivePolicy, KillsTheEnemyImmediately)
{
    Rig r;
    ScriptedEnemy e;
    e.karmaValue = 999;

    r.resolveOn(0, e, CmPolicy::Aggressive);
    EXPECT_EQ(e.kills, 1u);
    EXPECT_EQ(r.count("cm.enemy_aborts"), 1u);
    EXPECT_EQ(r.count("cm.backoffs"), 0u);
}

TEST(AggressivePolicy, NoKillWhenEnemyAlreadyGone)
{
    Rig r;
    ScriptedEnemy e;
    e.alive = false;

    r.resolveOn(0, e, CmPolicy::Aggressive);
    EXPECT_EQ(e.kills, 0u);
    EXPECT_EQ(r.count("cm.enemy_aborts"), 0u);
}

TEST(TimidPolicy, SelfAbortsOnConflict)
{
    Rig r;
    bool threw = false;
    ScriptedEnemy e;
    e.isActive = [] { return true; };

    r.resolveOn(100, e, CmPolicy::Timid, &threw);
    EXPECT_TRUE(threw);
    EXPECT_EQ(e.kills, 0u);
    EXPECT_EQ(r.count("cm.self_aborts"), 1u);
}

TEST(TimidPolicy, NoConflictNoAbort)
{
    Rig r;
    bool threw = false;
    ScriptedEnemy e;
    e.alive = false;

    r.resolveOn(0, e, CmPolicy::Timid, &threw);
    EXPECT_FALSE(threw);
    EXPECT_EQ(e.kills, 0u) << "abort() on a gone enemy";
    EXPECT_EQ(r.count("cm.self_aborts"), 0u);
}

TEST(PolkaPolicy, NoKarmaDeficitMeansMinimalPatience)
{
    Rig r;
    ScriptedEnemy e;

    // Attacker outranks the enemy: patience clamps to one interval.
    r.resolveOn(100, e, CmPolicy::Polka);
    EXPECT_EQ(e.kills, 1u);
    EXPECT_EQ(r.count("cm.backoffs"), 1u);
}

TEST(PolkaPolicy, LargeDeficitWaitsFullPatience)
{
    Rig r;
    ScriptedEnemy e;
    e.karmaValue = 1'000'000;

    r.resolveOn(0, e, CmPolicy::Polka);
    EXPECT_EQ(e.kills, 1u);
    // The deficit is astronomical: patience caps at the configured
    // maximum (default ProgressConfig::cmMaxPatience).
    EXPECT_EQ(r.count("cm.backoffs"),
              ProgressConfig{}.cmMaxPatience);
}

TEST(PolkaPolicy, ConfiguredMaxPatienceIsHonored)
{
    MachineConfig cfg = smallCfg();
    cfg.progress.cmMaxPatience = 2;
    Rig r(cfg);
    ScriptedEnemy e;
    e.karmaValue = 1'000'000;

    r.resolveOn(0, e, CmPolicy::Polka);
    EXPECT_EQ(e.kills, 1u);
    EXPECT_EQ(r.count("cm.backoffs"), 2u);
}

TEST(PolkaPolicy, ReturnsWithoutKillWhenEnemyDrains)
{
    Rig r;
    unsigned active_checks = 0;
    ScriptedEnemy e;
    // The enemy commits on its own after two back-off intervals.
    e.isActive = [&] { return ++active_checks <= 2; };
    e.karmaValue = 1'000'000;

    r.resolveOn(0, e, CmPolicy::Polka);
    EXPECT_EQ(e.kills, 0u);
    EXPECT_EQ(r.count("cm.enemy_aborts"), 0u);
    EXPECT_EQ(r.count("cm.backoffs"), 2u);
}

TEST(IrrevocableOverride, EnemySurvivesAggressive)
{
    Rig r;
    unsigned irr_checks = 0;
    ScriptedEnemy e;
    // Irrevocable enemy drains (commits) after three stall rounds.
    e.isActive = [&] { return irr_checks < 3; };
    e.isIrrevocable = [&] {
        ++irr_checks;
        return true;
    };

    r.resolveOn(1'000'000, e, CmPolicy::Aggressive);
    EXPECT_EQ(e.kills, 0u);
    EXPECT_EQ(r.count("cm.enemy_aborts"), 0u);
    EXPECT_EQ(r.count("cm.irrevocable_stalls"), 3u);
}

TEST(IrrevocableOverride, EnemySurvivesPolka)
{
    Rig r;
    unsigned irr_checks = 0;
    ScriptedEnemy e;
    e.isActive = [&] { return irr_checks < 5; };
    e.isIrrevocable = [&] {
        ++irr_checks;
        return true;
    };

    // Even a maximal-karma attacker may not touch the token holder.
    r.resolveOn(1'000'000, e, CmPolicy::Polka);
    EXPECT_EQ(e.kills, 0u);
    EXPECT_EQ(r.count("cm.irrevocable_stalls"), 5u);
}

TEST(IrrevocableOverride, StalledAttackerNoticesOwnDeath)
{
    Rig r;
    unsigned polls = 0;
    bool threw = false;
    ScriptedEnemy e;
    e.isActive = [] { return true; };
    e.isIrrevocable = [] { return true; };
    // The attacker is killed while stalling: its abort poll fires on
    // the second round and the stall must unwind via TxAbort.
    r.t.onPoll = [&] {
        if (++polls == 2)
            throw TxAbort{};
    };

    r.resolveOn(0, e, CmPolicy::Polka, &threw);
    EXPECT_TRUE(threw);
    EXPECT_EQ(e.kills, 0u);
    EXPECT_EQ(polls, 2u);
}

TEST(TimestampGreedy, OlderAttackerKillsYoungerEnemy)
{
    Rig r;
    // Self (tid 0, core 0) began at cycle 10; the enemy (core 1) at
    // cycle 500: self is older and wins immediately.
    r.m.progress().txnBegan(0, 0, 10);
    r.m.progress().txnBegan(1, 1, 500);
    ScriptedEnemy e;
    e.coreId = 1;

    r.resolveOn(0, e, CmPolicy::TimestampGreedy);
    EXPECT_EQ(e.kills, 1u);
    EXPECT_EQ(r.count("cm.enemy_aborts"), 1u);
    EXPECT_EQ(r.count("cm.self_aborts"), 0u);
}

TEST(TimestampGreedy, YoungerAttackerSelfAborts)
{
    Rig r;
    r.m.progress().txnBegan(0, 0, 500);
    r.m.progress().txnBegan(1, 1, 10);
    bool threw = false;
    ScriptedEnemy e;
    e.isActive = [] { return true; };
    e.coreId = 1;

    r.resolveOn(1'000'000, e, CmPolicy::TimestampGreedy, &threw);
    EXPECT_TRUE(threw);
    EXPECT_EQ(e.kills, 0u);
    EXPECT_EQ(r.count("cm.self_aborts"), 1u);
}

TEST(TimestampGreedy, CoreIdBreaksBeginCycleTies)
{
    Rig r;
    // Same begin cycle: the lower core id is "older" and wins.
    r.m.progress().txnBegan(0, 0, 100);
    r.m.progress().txnBegan(1, 1, 100);
    ScriptedEnemy e;
    e.coreId = 1;

    r.resolveOn(0, e, CmPolicy::TimestampGreedy);
    EXPECT_EQ(e.kills, 1u);
}

TEST(TimestampGreedy, StampSurvivesRetries)
{
    Rig r;
    // A victimized transaction keeps its first-attempt stamp: after
    // an abort + re-begin at a later cycle, its priority is
    // unchanged (the Greedy starvation-freedom ingredient).
    r.m.progress().txnBegan(0, 0, 10);
    r.m.progress().txnAborted(0);
    r.m.progress().txnBegan(0, 0, 900);  // retry, much later
    r.m.progress().txnBegan(1, 1, 500);
    ScriptedEnemy e;
    e.coreId = 1;

    r.resolveOn(0, e, CmPolicy::TimestampGreedy);
    EXPECT_EQ(e.kills, 1u);  // stamp 10 beats stamp 500 despite retry
}

TEST(RandomizedBackoff, NeverKillsAndYieldsAfterPatience)
{
    Rig r;
    bool threw = false;
    ScriptedEnemy e;
    e.isActive = [] { return true; };

    r.resolveOn(1'000'000, e, CmPolicy::RandomizedBackoff, &threw);
    EXPECT_TRUE(threw);
    EXPECT_EQ(e.kills, 0u);
    EXPECT_EQ(r.count("cm.enemy_aborts"), 0u);
    EXPECT_EQ(r.count("cm.self_aborts"), 1u);
    EXPECT_EQ(r.count("cm.backoffs"),
              ProgressConfig{}.cmMaxPatience);
    EXPECT_TRUE(cmPolicyFor(CmPolicy::RandomizedBackoff)
                    .requesterAbortsOnly());
}

TEST(RandomizedBackoff, ReturnsWhenEnemyDrainsWithinPatience)
{
    Rig r;
    unsigned active_checks = 0;
    bool threw = false;
    ScriptedEnemy e;
    e.isActive = [&] { return ++active_checks <= 2; };

    r.resolveOn(0, e, CmPolicy::RandomizedBackoff, &threw);
    EXPECT_FALSE(threw);
    EXPECT_EQ(r.count("cm.self_aborts"), 0u);
    EXPECT_EQ(r.count("cm.backoffs"), 2u);
}

TEST(RandomizedBackoff, LazyGateYieldsToAnyActiveEnemy)
{
    Rig r;
    bool threw = false;
    r.onFiber([&] {
        cmPolicyFor(CmPolicy::RandomizedBackoff)
            .lazyCommitGate(r.t, 0b10);
    }, &threw);
    EXPECT_TRUE(threw);
    EXPECT_EQ(r.count("cm.self_aborts"), 1u);

    // No active enemy: the commit proceeds.
    bool threw2 = false;
    r.onFiber([&] {
        cmPolicyFor(CmPolicy::RandomizedBackoff).lazyCommitGate(r.t, 0);
    }, &threw2);
    EXPECT_FALSE(threw2);
}

TEST(TimestampGreedy, LazyGateYieldsOnlyToOlderEnemies)
{
    Rig r;
    r.m.progress().txnBegan(0, 0, 500);  // self
    r.m.progress().txnBegan(1, 1, 900);  // younger enemy
    ProgressManager &pm = r.m.progress();

    bool threw = false;
    r.onFiber([&] {
        cmPolicyFor(CmPolicy::TimestampGreedy).lazyCommitGate(r.t, 0b10);
    }, &threw);
    EXPECT_FALSE(threw);  // all enemies younger: committer proceeds

    // Now the enemy is older: the committer must yield.
    pm.txnCommitted(1, 901);
    pm.txnBegan(1, 1, 10);
    bool threw2 = false;
    r.onFiber([&] {
        cmPolicyFor(CmPolicy::TimestampGreedy).lazyCommitGate(r.t, 0b10);
    }, &threw2);
    EXPECT_TRUE(threw2);
    EXPECT_EQ(r.count("cm.self_aborts"), 1u);
}

TEST(SerialIrrevocableFirst, FirstConflictResolvesLikePolka)
{
    Rig r;
    ScriptedEnemy e;

    r.resolveOn(100, e, CmPolicy::SerialIrrevocableFirst);
    EXPECT_EQ(e.kills, 1u);
    EXPECT_FALSE(r.m.progress().shouldEscalate(0));
}

TEST(SerialIrrevocableFirst, RepeatConflictEscalatesToTheToken)
{
    Rig r;
    // One prior abort on this thread: the next conflict must claim
    // the serial-irrevocability token and retry unkillable.
    r.m.progress().txnBegan(0, 0, 10);
    r.m.progress().txnAborted(0);
    r.m.progress().txnBegan(0, 0, 20);
    bool threw = false;
    ScriptedEnemy e;
    e.isActive = [] { return true; };

    r.resolveOn(0, e, CmPolicy::SerialIrrevocableFirst, &threw);
    EXPECT_TRUE(threw);
    EXPECT_EQ(e.kills, 0u);
    EXPECT_TRUE(r.m.progress().shouldEscalate(0));
    EXPECT_EQ(r.count("cm.self_aborts"), 1u);
}

/** Rounds 1..5 of @p policy's TL2 lock wait on a fiber: the
 *  verdicts, and whether anything threw. */
std::vector<bool>
lockWaitVerdicts(Rig &r, CmPolicy policy, bool &threw)
{
    std::vector<bool> verdicts;
    r.onFiber([&] {
        for (unsigned round = 1; round <= 5; ++round)
            verdicts.push_back(
                cmPolicyFor(policy).lockWaitRound(r.t, round));
    }, &threw);
    return verdicts;
}

TEST(WaitSurfaces, BaseLockWaitRoundYieldsAfterPatience)
{
    Rig r;
    bool threw = false;
    // Bounded patience: four rounds of waiting, then round 5 gives
    // up by value.
    EXPECT_EQ(lockWaitVerdicts(r, CmPolicy::Polka, threw),
              (std::vector<bool>{true, true, true, true, false}));
    EXPECT_FALSE(threw);
}

TEST(WaitSurfaces, SerialLockWaitRoundEscalatesBeforeYielding)
{
    Rig r;
    bool threw = false;
    EXPECT_EQ(lockWaitVerdicts(r, CmPolicy::SerialIrrevocableFirst, threw),
              (std::vector<bool>{true, true, true, true, false}));
    EXPECT_FALSE(threw);
    EXPECT_TRUE(r.m.progress().shouldEscalate(0));
}

TEST(WaitSurfaces, MutexWaitRoundNeverThrows)
{
    Rig r;
    bool threw = false;
    r.onFiber([&] {
        for (unsigned round = 0; round < 12; ++round)
            cmPolicyFor(CmPolicy::RandomizedBackoff)
                .mutexWaitRound(r.t, round);
    }, &threw);
    EXPECT_FALSE(threw);
}

TEST(WaitSurfaces, HtmConflictAlwaysThrows)
{
    Rig r;
    bool threw = false;
    r.onFiber([&] {
        cmPolicyFor(CmPolicy::Polka).htmConflict(r.t);
    }, &threw);
    EXPECT_TRUE(threw);

    // SerialIrrevocableFirst escalates the retry after a repeat
    // conflict (one prior abort).
    r.m.progress().txnBegan(0, 0, 10);
    r.m.progress().txnAborted(0);
    bool threw2 = false;
    r.onFiber([&] {
        cmPolicyFor(CmPolicy::SerialIrrevocableFirst)
            .htmConflict(r.t);
    }, &threw2);
    EXPECT_TRUE(threw2);
    EXPECT_TRUE(r.m.progress().shouldEscalate(0));
}

TEST(PolicyRegistry, NamesAndEnvSelection)
{
    EXPECT_STREQ(cmPolicyName(CmPolicy::TimestampGreedy),
                 "TimestampGreedy");
    EXPECT_STREQ(cmPolicyFor(CmPolicy::RandomizedBackoff).name(),
                 "RandomizedBackoff");
    EXPECT_EQ(cmPolicyFor(CmPolicy::SerialIrrevocableFirst).kind(),
              CmPolicy::SerialIrrevocableFirst);
    // Same kind always resolves to the same singleton.
    EXPECT_EQ(&cmPolicyFor(CmPolicy::Polka),
              &cmPolicyFor(CmPolicy::Polka));
}

} // anonymous namespace
} // namespace flextm
