/**
 * @file
 * Machine-geometry property sweeps: the protocol and runtimes must
 * stay correct across core counts, cache sizes, victim-buffer
 * depths, and signature widths - tiny caches force the overflow
 * table into constant use, narrow signatures force false conflicts,
 * and both must change only performance, never results.
 *
 * Also: bit-exact determinism for a fixed seed, and seed sensitivity.
 */

#include <gtest/gtest.h>

#include "mem/dram/mem_backend.hh"
#include "runtime/runtime_factory.hh"
#include "workloads/workload.hh"

namespace flextm
{
namespace
{

struct Geometry
{
    unsigned cores;
    std::size_t l1Bytes;
    unsigned victim;
    unsigned sigBits;
    const char *name;
};

class GeometrySweep : public ::testing::TestWithParam<Geometry>
{
};

/** The transfer economy stays conserved on every geometry. */
TEST_P(GeometrySweep, EconomyConservedEverywhere)
{
    const Geometry g = GetParam();
    constexpr unsigned cells = 8;
    constexpr std::uint64_t initial = 200;

    MachineConfig cfg;
    cfg.cores = g.cores;
    cfg.l1Bytes = g.l1Bytes;
    cfg.victimEntries = g.victim;
    cfg.signatureBits = g.sigBits;
    cfg.memoryBytes = 64u << 20;
    Machine m(cfg);
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);

    const Addr base =
        m.memory().allocate(cells * lineBytes, lineBytes);
    for (unsigned i = 0; i < cells; ++i)
        m.memory().store<std::uint64_t>(base + i * lineBytes,
                                        initial);

    const unsigned threads = g.cores < 4 ? g.cores : 4;
    std::vector<std::unique_ptr<TxThread>> ts;
    for (unsigned i = 0; i < threads; ++i) {
        ts.push_back(f.makeThread(i, i));
        TxThread *t = ts.back().get();
        m.scheduler().spawn(i, [&, t] {
            for (unsigned k = 0; k < 120; ++k) {
                t->txn([&] {
                    const unsigned a = t->rng().nextInt(cells);
                    const unsigned b = (a + 3) % cells;
                    const auto va = t->load<std::uint64_t>(
                        base + a * lineBytes);
                    const auto vb = t->load<std::uint64_t>(
                        base + b * lineBytes);
                    const std::uint64_t amt =
                        t->rng().nextInt(va / 2 + 1);
                    t->store<std::uint64_t>(base + a * lineBytes,
                                            va - amt);
                    t->store<std::uint64_t>(base + b * lineBytes,
                                            vb + amt);
                });
            }
        });
    }
    m.run();

    std::uint64_t sum = 0;
    for (unsigned i = 0; i < cells; ++i) {
        std::uint64_t v = 0;
        m.memsys().peek(base + i * lineBytes, &v, 8);
        sum += v;
    }
    EXPECT_EQ(sum, std::uint64_t{cells} * initial) << g.name;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(
        Geometry{2, 32 * 1024, 32, 2048, "two_core"},
        Geometry{8, 32 * 1024, 32, 2048, "eight_core"},
        Geometry{16, 32 * 1024, 32, 2048, "paper"},
        Geometry{4, 2 * 1024, 4, 2048, "tiny_l1_forces_ot"},
        Geometry{4, 2 * 1024, 2, 2048, "tinier_victim"},
        Geometry{4, 32 * 1024, 32, 128, "narrow_signature"},
        Geometry{4, 32 * 1024, 32, 8192, "wide_signature"},
        Geometry{64, 8 * 1024, 8, 1024, "max_cores"}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return info.param.name;
    });

/** A tiny L1 really does exercise the overflow table. */
TEST(GeometryBehaviour, TinyL1SpillsToOverflowTable)
{
    MachineConfig cfg;
    cfg.cores = 2;
    cfg.l1Bytes = 2 * 1024;
    cfg.victimEntries = 2;
    cfg.memoryBytes = 64u << 20;
    Machine m(cfg);
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);

    const unsigned lines = 128;
    const Addr base =
        m.memory().allocate(lines * lineBytes, lineBytes);
    auto t = f.makeThread(0, 0);
    m.scheduler().spawn(0, [&] {
        t->txn([&] {
            for (unsigned i = 0; i < lines; ++i)
                t->store<std::uint64_t>(base + i * lineBytes, i + 1);
            // Read everything back through the OT.
            for (unsigned i = 0; i < lines; ++i) {
                ASSERT_EQ(t->load<std::uint64_t>(base +
                                                 i * lineBytes),
                          i + 1);
            }
        });
    });
    m.run();
    EXPECT_EQ(t->commits(), 1u);
    EXPECT_GT(m.stats().counterValue("ot.spills"), 0u);
    EXPECT_GT(m.stats().counterValue("ot.refills"), 0u);
    for (unsigned i = 0; i < lines; ++i) {
        std::uint64_t v = 0;
        m.memsys().peek(base + i * lineBytes, &v, 8);
        ASSERT_EQ(v, i + 1) << i;
    }
}

/** The promoted forward-progress knobs (Polka patience cap, retry
 *  back-off shift cap) change only performance, never results. */
TEST(ProgressKnobs, CmMaxPatienceSweep)
{
    for (unsigned patience : {1u, 2u, 6u, 16u}) {
        ExperimentOptions o;
        o.threads = 4;
        o.totalOps = 200;
        o.machine.cores = 8;
        o.machine.memoryBytes = 64u << 20;
        o.machine.progress.cmMaxPatience = patience;
        const ExperimentResult r = runExperiment(
            WorkloadKind::LFUCache, RuntimeKind::FlexTmEager, o);
        EXPECT_EQ(r.commits, 200u) << "cmMaxPatience=" << patience;
    }
}

TEST(ProgressKnobs, BackoffShiftCapSweep)
{
    for (unsigned cap : {0u, 4u, 10u, 20u}) {
        ExperimentOptions o;
        o.threads = 4;
        o.totalOps = 200;
        o.machine.cores = 8;
        o.machine.memoryBytes = 64u << 20;
        o.machine.progress.backoffShiftCap = cap;
        const ExperimentResult r = runExperiment(
            WorkloadKind::RBTree, RuntimeKind::FlexTmLazy, o);
        EXPECT_EQ(r.commits, 200u) << "backoffShiftCap=" << cap;
    }
}

/** Same seed => bit-identical execution (simulator determinism). */
TEST(Determinism, IdenticalRunsForSameSeed)
{
    auto run = [](std::uint64_t seed) {
        ExperimentOptions o;
        o.threads = 4;
        o.totalOps = 200;
        o.seed = seed;
        o.machine.cores = 8;
        o.machine.memoryBytes = 64u << 20;
        const ExperimentResult r = runExperiment(
            WorkloadKind::RBTree, RuntimeKind::FlexTmLazy, o);
        return std::make_tuple(r.cycles, r.commits, r.aborts);
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(std::get<0>(run(7)), std::get<0>(run(8)));
}

/** Runtime results agree across runtimes for a sequential history. */
TEST(Determinism, SingleThreadResultsAgreeAcrossRuntimes)
{
    auto final_state = [](RuntimeKind rk) {
        MachineConfig cfg;
        cfg.cores = 2;
        cfg.memoryBytes = 64u << 20;
        Machine m(cfg);
        RuntimeFactory f(m, rk);
        const Addr base = m.memory().allocate(16 * 8, lineBytes);
        auto t = f.makeThread(0, 0);
        m.scheduler().spawn(0, [&] {
            for (unsigned k = 0; k < 300; ++k) {
                t->txn([&] {
                    const unsigned i = t->rng().nextInt(16);
                    const auto v =
                        t->load<std::uint64_t>(base + i * 8);
                    t->store<std::uint64_t>(base + i * 8,
                                            v * 3 + k);
                });
            }
        });
        m.run();
        std::vector<std::uint64_t> out(16);
        for (unsigned i = 0; i < 16; ++i)
            m.memsys().peek(base + i * 8, &out[i], 8);
        return out;
    };
    const auto ref = final_state(RuntimeKind::Cgl);
    for (RuntimeKind rk : allRuntimeKinds()) {
        if (rk == RuntimeKind::Cgl)
            continue;
        EXPECT_EQ(final_state(rk), ref) << runtimeKindName(rk);
    }
}

// ---- DRAM backend knob validation -------------------------------
//
// All DRAM geometry/queue knobs are validated in one place
// (validateDramConfig, run before the backend is built); a machine
// cannot come up on a config the model cannot represent.

TEST(DramConfigValidation, RejectsZeroChannels)
{
    DramConfig c;
    c.channels = 0;
    EXPECT_DEATH(validateDramConfig(c), "channels must be nonzero");
}

TEST(DramConfigValidation, RejectsZeroRanks)
{
    DramConfig c;
    c.ranksPerChannel = 0;
    EXPECT_DEATH(validateDramConfig(c),
                 "ranksPerChannel must be nonzero");
}

TEST(DramConfigValidation, RejectsZeroBanks)
{
    DramConfig c;
    c.banksPerRank = 0;
    EXPECT_DEATH(validateDramConfig(c),
                 "banksPerRank must be nonzero");
}

TEST(DramConfigValidation, RejectsNonPowerOfTwoRowSize)
{
    DramConfig c;
    c.rowBytes = 3000;
    EXPECT_DEATH(validateDramConfig(c), "power of two");
    c.rowBytes = lineBytes / 2;  // smaller than one line
    EXPECT_DEATH(validateDramConfig(c), "power of two");
}

TEST(DramConfigValidation, RejectsZeroWindow)
{
    DramConfig c;
    c.window = 0;
    EXPECT_DEATH(validateDramConfig(c), "window must be nonzero");
}

TEST(DramConfigValidation, RejectsZeroWriteQueueDepth)
{
    DramConfig c;
    c.writeQueueDepth = 0;
    EXPECT_DEATH(validateDramConfig(c),
                 "writeQueueDepth must be nonzero");
}

TEST(DramConfigValidation, MachineConstructionRunsTheValidator)
{
    MachineConfig cfg;
    cfg.memBackend = MemBackendKind::Dram;
    cfg.dram.channels = 0;
    EXPECT_DEATH(Machine m(cfg), "channels must be nonzero");
}

// ---- Bounded-HTM knob validation --------------------------------
//
// Same policy as the DRAM knobs: validateHtmConfig runs before any
// HyTM shared state is built, so a HyTM machine cannot come up on
// capacity bounds the hardware could not implement.

TEST(HtmConfigValidation, RejectsReadSetWithoutSubscriptionRoom)
{
    MachineConfig c;
    c.htmReadSetLines = 0;
    EXPECT_DEATH(validateHtmConfig(c),
                 "htmReadSetLines must be at least 2");
    c.htmReadSetLines = 1;  // no room beside the gate subscription
    EXPECT_DEATH(validateHtmConfig(c),
                 "htmReadSetLines must be at least 2");
}

TEST(HtmConfigValidation, RejectsZeroWriteSet)
{
    MachineConfig c;
    c.htmWriteSetLines = 0;
    EXPECT_DEATH(validateHtmConfig(c),
                 "htmWriteSetLines must be nonzero");
}

TEST(HtmConfigValidation, RejectsZeroRetryLimit)
{
    MachineConfig c;
    c.htmRetryLimit = 0;
    EXPECT_DEATH(validateHtmConfig(c), "htmRetryLimit must be nonzero");
}

TEST(HtmConfigValidation, RejectsWriteBoundTheL1CannotRetain)
{
    MachineConfig c;
    c.l1Ways = 2;
    c.victimEntries = 0;
    c.htmWriteSetLines = 16;  // > ways + victim entries
    EXPECT_DEATH(validateHtmConfig(c),
                 "exceeds what the L1 can retain");
}

TEST(HtmConfigValidation, FactoryConstructionRunsTheValidator)
{
    MachineConfig cfg;
    cfg.cores = 2;
    cfg.memoryBytes = 64u << 20;
    cfg.htmRetryLimit = 0;
    Machine m(cfg);
    // Only building a HyTM runtime consults the HTM knobs; the other
    // runtimes must keep working on the same (invalid-for-HyTM)
    // config.
    RuntimeFactory ok(m, RuntimeKind::FlexTmLazy);
    EXPECT_DEATH(RuntimeFactory f(m, RuntimeKind::HyTm),
                 "htmRetryLimit must be nonzero");
}

} // anonymous namespace
} // namespace flextm
