/**
 * @file
 * TxOracle unit tests plus the "teeth" tests: a deliberately seeded
 * isolation bug (FlexTmGlobals::chaosSkipWrAbort) must make the
 * oracle report a non-serializable history, both in a hand-built
 * deterministic write-skew schedule and somewhere within a seed
 * sweep of a real workload.
 */

#include <gtest/gtest.h>

#include <map>

#include "runtime/runtime_factory.hh"
#include "sim/oracle.hh"
#include "workloads/fault_harness.hh"

using namespace flextm;

namespace
{

/** Map-backed fake of final machine memory for unit tests. */
class FakeMemory
{
  public:
    void
    set(Addr a, std::uint64_t v, unsigned size)
    {
        for (unsigned i = 0; i < size; ++i)
            bytes_[a + i] =
                static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
    }

    TxOracle::PeekFn
    peek() const
    {
        return [this](Addr a, void *out, unsigned size) {
            auto *p = static_cast<std::uint8_t *>(out);
            for (unsigned i = 0; i < size; ++i) {
                auto it = bytes_.find(a + i);
                p[i] = it == bytes_.end() ? 0 : it->second;
            }
        };
    }

  private:
    std::map<Addr, std::uint8_t> bytes_;
};

} // anonymous namespace

TEST(Oracle, SerialHistoryPasses)
{
    TxOracle o;
    o.beginTxn(1);
    o.recordWrite(1, 0x100, 8, 5);
    o.stamp(1);
    o.commitTxn(1);
    o.beginTxn(2);
    o.recordRead(2, 0x100, 8, 5);
    o.recordWrite(2, 0x108, 8, 6);
    o.stamp(2);
    o.commitTxn(2);

    FakeMemory mem;
    mem.set(0x100, 5, 8);
    mem.set(0x108, 6, 8);
    TxOracle::Report r = o.validate(mem.peek());
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_EQ(r.checkedTxns, 2u);
    EXPECT_EQ(r.checkedOps, 3u);
}

TEST(Oracle, FirstTouchReadSeedsShadow)
{
    // A read of a location the history never wrote defines its
    // expected value; the final-state diff must agree with it.
    TxOracle o;
    o.beginTxn(1);
    o.recordRead(1, 0x200, 4, 0xabcd);
    o.stamp(1);
    o.commitTxn(1);

    FakeMemory mem;
    mem.set(0x200, 0xabcd, 4);
    EXPECT_TRUE(o.validate(mem.peek()).ok);

    FakeMemory wrong;
    wrong.set(0x200, 0xabce, 4);
    TxOracle::Report r = o.validate(wrong.peek());
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("final"), std::string::npos)
        << r.message;
}

TEST(Oracle, StaleReadFails)
{
    TxOracle o;
    o.setContext("seed=77 runtime=X workload=Y");
    o.beginTxn(1);
    o.recordWrite(1, 0x100, 8, 5);
    o.stamp(1);
    o.commitTxn(1);
    // Later-stamped txn read the pre-write value: not serializable
    // in stamp order.
    o.beginTxn(2);
    o.recordRead(2, 0x100, 8, 0);
    o.stamp(2);
    o.commitTxn(2);

    FakeMemory mem;
    mem.set(0x100, 5, 8);
    TxOracle::Report r = o.validate(mem.peek());
    EXPECT_FALSE(r.ok);
    // Failure reports name the run context (the reproducing seed).
    EXPECT_NE(r.message.find("seed=77"), std::string::npos)
        << r.message;
}

TEST(Oracle, LostUpdateFails)
{
    // Two writers both committed but the final memory only shows
    // one: the final-state diff catches it.
    TxOracle o;
    o.beginTxn(1);
    o.recordWrite(1, 0x100, 8, 5);
    o.stamp(1);
    o.commitTxn(1);
    o.beginTxn(2);
    o.recordWrite(2, 0x100, 8, 9);
    o.stamp(2);
    o.commitTxn(2);

    FakeMemory mem;
    mem.set(0x100, 5, 8);  // txn 2's update lost
    EXPECT_FALSE(o.validate(mem.peek()).ok);
    mem.set(0x100, 9, 8);
    EXPECT_TRUE(o.validate(mem.peek()).ok);
}

TEST(Oracle, AbortedTxnsAreDiscarded)
{
    TxOracle o;
    o.beginTxn(1);
    o.recordWrite(1, 0x100, 8, 99);
    o.abortTxn(1);
    EXPECT_EQ(o.committedCount(), 0u);
    EXPECT_EQ(o.abortedCount(), 1u);

    FakeMemory mem;  // the aborted write never happened
    EXPECT_TRUE(o.validate(mem.peek()).ok);
}

TEST(Oracle, PlainOpsActAsSingletonTxns)
{
    TxOracle o;
    o.plainWrite(1, 0x300, 8, 7);
    o.plainRead(2, 0x300, 8, 7);
    EXPECT_EQ(o.committedCount(), 2u);

    FakeMemory mem;
    mem.set(0x300, 7, 8);
    TxOracle::Report r = o.validate(mem.peek());
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_EQ(r.checkedTxns, 2u);
}

TEST(Oracle, UnstampedCommitGetsFallbackStamp)
{
    // A runtime that forgets to stamp still produces a checkable
    // history (stamped at commit record time).
    TxOracle o;
    o.beginTxn(1);
    o.recordWrite(1, 0x400, 8, 1);
    o.commitTxn(1);

    FakeMemory mem;
    mem.set(0x400, 1, 8);
    EXPECT_TRUE(o.validate(mem.peek()).ok);
}

/**
 * Deterministic teeth test: hand-built write skew on FlexTM-Lazy.
 * Two transactions read each other's write target before either
 * writes (a barrier forces the overlap).  Correct FlexTM aborts one
 * of them at commit (W-R enemy); with chaosSkipWrAbort both commit
 * and the history is not serializable - the oracle must say so.
 */
static TxOracle::Report
runWriteSkew(bool buggy, std::uint64_t *commits)
{
    MachineConfig cfg;
    cfg.cores = 2;
    cfg.seed = 42;
    Machine m(cfg);
    TxOracle oracle;
    oracle.setContext(std::string("write-skew seed=42 buggy=") +
                      (buggy ? "1" : "0"));
    m.setOracle(&oracle);

    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);
    f.flexGlobals()->chaosSkipWrAbort = buggy;

    const Addr x = m.memory().allocate(lineBytes, lineBytes);
    const Addr y = m.memory().allocate(lineBytes, lineBytes);

    auto t0 = f.makeThread(1, 0);
    auto t1 = f.makeThread(2, 1);
    SimBarrier bar(m.scheduler(), 2);

    // The barrier only synchronizes first attempts; a retried
    // transaction must not wait for a partner that already left.
    bool first0 = true;
    bool first1 = true;
    m.scheduler().spawn(0, [&] {
        t0->txn([&] {
            const std::uint64_t r = t0->read(y, 8);
            if (first0) {
                first0 = false;
                bar.wait();
            }
            t0->write(x, r + 1, 8);
        });
    });
    m.scheduler().spawn(1, [&] {
        t1->txn([&] {
            const std::uint64_t r = t1->read(x, 8);
            if (first1) {
                first1 = false;
                bar.wait();
            }
            t1->write(y, r + 1, 8);
        });
    });
    m.run();

    if (commits)
        *commits = t0->commits() + t1->commits();
    return oracle.validate([&m](Addr a, void *out, unsigned s) {
        m.memsys().peek(a, out, s);
    });
}

TEST(OracleTeeth, WriteSkewPassesOnCorrectRuntime)
{
    std::uint64_t commits = 0;
    TxOracle::Report r = runWriteSkew(false, &commits);
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_EQ(commits, 2u);
}

TEST(OracleTeeth, WriteSkewCaughtUnderSeededBug)
{
    TxOracle::Report r = runWriteSkew(true, nullptr);
    ASSERT_FALSE(r.ok) << "seeded W-R-skip bug escaped the oracle";
    // The report names the reproduction context.
    EXPECT_NE(r.message.find("seed=42"), std::string::npos)
        << r.message;
}

/**
 * Sweep teeth test: the same seeded bug must also be caught by the
 * full fault-injection harness somewhere within a modest seed sweep
 * of a real workload.
 */
TEST(OracleTeeth, SweepCatchesSeededBug)
{
    unsigned caught = 0;
    for (std::uint64_t seed = 9000; seed < 9012; ++seed) {
        FaultRunOptions opt;
        opt.seed = seed;
        opt.threads = 4;
        opt.totalOps = 96;
        opt.flexSkipWrAbort = true;
        // Structural verify may panic on the corrupted structure
        // before the oracle can report; keep it out of teeth runs.
        opt.runVerify = false;
        ExperimentResult r = runFaultedExperiment(
            WorkloadKind::HashTable, RuntimeKind::FlexTmLazy, opt);
        if (!r.report.ok) {
            EXPECT_NE(r.report.message.find(
                          "seed=" + std::to_string(seed)),
                      std::string::npos)
                << r.report.message;
            ++caught;
        }
    }
    EXPECT_GE(caught, 1u)
        << "seeded W-R-skip bug never caught across the sweep";
}
