/**
 * @file
 * Trace-facility tests: category parsing/masking, sink capture, and
 * end-to-end trace emission from the protocol, TM and OS layers.
 */

#include <gtest/gtest.h>

#include "os/tx_os.hh"
#include "runtime/runtime_factory.hh"
#include "sim/trace.hh"
#include "workloads/fault_harness.hh"

namespace flextm
{
namespace
{

/** RAII: capture trace lines and restore the mask on exit. */
struct TraceCapture
{
    std::vector<std::string> lines;
    unsigned savedMask;

    explicit TraceCapture(unsigned mask)
        : savedMask(trace::setMask(mask))
    {
        trace::setSink(
            [this](const std::string &l) { lines.push_back(l); });
    }

    ~TraceCapture()
    {
        trace::setSink(nullptr);
        trace::setMask(savedMask);
    }

    unsigned
    count(const std::string &needle) const
    {
        unsigned n = 0;
        for (const auto &l : lines)
            if (l.find(needle) != std::string::npos)
                ++n;
        return n;
    }
};

TEST(TraceTest, ParseCategories)
{
    EXPECT_EQ(trace::parseCategories("protocol"), trace::Protocol);
    EXPECT_EQ(trace::parseCategories("protocol,tm"),
              trace::Protocol | trace::Tm);
    EXPECT_EQ(trace::parseCategories("all"), trace::All);
    EXPECT_EQ(trace::parseCategories("os,watch"),
              trace::Os | trace::Watch);
}

TEST(TraceTestDeath, UnknownCategoryIsFatal)
{
    EXPECT_DEATH(trace::parseCategories("tm,bogus"),
                 "FLEXTM_TRACE token \"bogus\" is not recognized");
}

TEST(TraceTest, DisabledCategoryEmitsNothing)
{
    TraceCapture cap(0);
    trace::logf(trace::Protocol, 1, "should not appear");
    // logf itself always emits; the FTRACE macro is the gate:
    FTRACE(Protocol, 2, "gated out");
    EXPECT_EQ(cap.count("gated out"), 0u);
}

TEST(TraceTest, LinesCarryCycleAndCategory)
{
    TraceCapture cap(trace::All);
    trace::logf(trace::Tm, 1234, "hello %d", 7);
    ASSERT_EQ(cap.lines.size(), 1u);
    EXPECT_NE(cap.lines[0].find("1234"), std::string::npos);
    EXPECT_NE(cap.lines[0].find("tm:"), std::string::npos);
    EXPECT_NE(cap.lines[0].find("hello 7"), std::string::npos);
}

TEST(TraceTest, ProtocolAndTmEventsTraced)
{
    TraceCapture cap(trace::Protocol | trace::Tm);

    MachineConfig cfg;
    cfg.cores = 2;
    cfg.memoryBytes = 64u << 20;
    Machine m(cfg);
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    auto t = f.makeThread(0, 0);
    m.scheduler().spawn(0, [&] {
        t->txn([&] {
            const auto v = t->load<std::uint64_t>(cell);
            t->store<std::uint64_t>(cell, v + 1);
        });
    });
    m.run();

    EXPECT_GE(cap.count("begin tx"), 1u);
    EXPECT_GE(cap.count("CAS-Commit success"), 1u);
    EXPECT_GE(cap.count("GETS"), 1u);
    EXPECT_GE(cap.count("TGETX"), 1u);
}

TEST(TraceTest, ConflictResponsesTraced)
{
    TraceCapture cap(trace::Protocol);

    MachineConfig cfg;
    cfg.cores = 2;
    cfg.memoryBytes = 64u << 20;
    Machine m(cfg);
    Cycles now = 0;
    const Addr a = m.memory().allocate(lineBytes, lineBytes);
    m.context(0).inTx = true;
    std::uint64_t v = 1;
    now += m.memsys()
               .access(0, AccessType::TStore, a, 8, &v, now)
               .latency;
    m.context(1).inTx = true;
    now += m.memsys()
               .access(1, AccessType::TStore, a, 8, &v, now)
               .latency;
    EXPECT_GE(cap.count("Threatened"), 1u);
}

TEST(TraceTest, ParseFaultAndOracleCategories)
{
    EXPECT_EQ(trace::parseCategories("fault"), trace::Fault);
    EXPECT_EQ(trace::parseCategories("oracle"), trace::Oracle);
    EXPECT_EQ(trace::parseCategories("fault,oracle"),
              trace::Fault | trace::Oracle);
    EXPECT_EQ(trace::parseCategories("fault,tm"),
              trace::Fault | trace::Tm);
    EXPECT_NE(trace::All & trace::Fault, 0u);
    EXPECT_NE(trace::All & trace::Oracle, 0u);
}

TEST(TraceTest, FaultAndOracleSinkRoundTrip)
{
    // Category gating + sink capture for the new categories.
    {
        TraceCapture cap(trace::Oracle);
        FTRACE(Fault, 1, "masked-out fault line");
        FTRACE(Oracle, 2, "oracle ping");
        EXPECT_EQ(cap.count("masked-out fault line"), 0u);
        ASSERT_EQ(cap.count("oracle ping"), 1u);
        EXPECT_NE(cap.lines[0].find("oracle:"), std::string::npos);
    }
    {
        TraceCapture cap(trace::Fault);
        FTRACE(Fault, 3, "fault ping");
        ASSERT_EQ(cap.count("fault ping"), 1u);
        EXPECT_NE(cap.lines[0].find("fault:"), std::string::npos);
    }
}

TEST(TraceTest, OracleEventsTracedEndToEnd)
{
    // A real faulted run must emit oracle commit lines through the
    // capture sink.
    TraceCapture cap(trace::Fault | trace::Oracle);
    FaultRunOptions opt;
    opt.seed = 31;
    opt.threads = 2;
    opt.totalOps = 24;
    ExperimentResult r = runFaultedExperiment(
        WorkloadKind::HashTable, RuntimeKind::FlexTmLazy, opt);
    EXPECT_TRUE(r.report.ok) << r.report.message;
    EXPECT_GE(cap.count("oracle:"), 1u);
}

TEST(TraceTest, OsEventsTraced)
{
    TraceCapture cap(trace::Os);

    MachineConfig cfg;
    cfg.cores = 2;
    cfg.memoryBytes = 64u << 20;
    Machine m(cfg);
    RuntimeFactory f(m, RuntimeKind::FlexTmLazy);
    TxOs os(m, *f.flexGlobals());
    const Addr cell = m.memory().allocate(lineBytes, lineBytes);
    auto t = f.makeThread(0, 0);
    auto *ft = static_cast<FlexTmThread *>(t.get());
    m.scheduler().spawn(0, [&] {
        t->txn([&] {
            t->store<std::uint64_t>(cell, 3);
            os.suspend(*ft);
            t->work(100);
            os.resume(*ft);
        });
    });
    m.run();
    EXPECT_GE(cap.count("suspend tx"), 1u);
}

} // anonymous namespace
} // namespace flextm
