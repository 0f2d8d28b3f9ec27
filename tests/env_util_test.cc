/**
 * @file
 * The strict FLEXTM_* environment contract (sim/env_util.hh): every
 * knob's parser accepts its documented spellings and dies loudly -
 * naming the variable - on garbage, instead of the old silent
 * warn-and-fallback.  One death test per site.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "mem/dram/mem_backend.hh"
#include "sim/auditor.hh"
#include "sim/env_util.hh"
#include "sim/fault.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"

namespace flextm
{
namespace
{

/** RAII env var that always restores the pre-test state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_;
    std::string old_;
};

TEST(EnvUtil, ParseU64AcceptsCleanNumbers)
{
    EXPECT_EQ(env::parseU64("X", "0", 0, 100), 0u);
    EXPECT_EQ(env::parseU64("X", "42", 0, 100), 42u);
    EXPECT_EQ(env::parseU64("X", "0x10", 0, 100, 0), 16u);
    EXPECT_EQ(env::parseU64("X", "18446744073709551615", 0,
                            UINT64_MAX),
              UINT64_MAX);
}

TEST(EnvUtil, ParseU64RejectsGarbage)
{
    EXPECT_DEATH(env::parseU64("X", "12abc", 0, 100), "X");
    EXPECT_DEATH(env::parseU64("X", "abc", 0, 100), "X");
    EXPECT_DEATH(env::parseU64("X", " 1", 0, 100), "X");
    EXPECT_DEATH(env::parseU64("X", "-1", 0, 100), "X");
    EXPECT_DEATH(env::parseU64("X", "+1", 0, 100), "X");
    // Overflow past 2^64 and out-of-range both die.
    EXPECT_DEATH(env::parseU64("X", "18446744073709551616", 0,
                               UINT64_MAX),
                 "X");
    EXPECT_DEATH(env::parseU64("X", "101", 0, 100), "X");
}

TEST(EnvUtil, ParseF64AcceptsCleanNumbersAndRejectsGarbage)
{
    EXPECT_EQ(env::parseF64("X", "0", 0, 10), 0.0);
    EXPECT_EQ(env::parseF64("X", "0.75", 0, 10), 0.75);
    EXPECT_EQ(env::parseF64("X", "1e1", 0, 10), 10.0);
    EXPECT_DEATH(env::parseF64("X", "", 0, 10), "X");
    EXPECT_DEATH(env::parseF64("X", "x", 0, 10), "X");
    EXPECT_DEATH(env::parseF64("X", "0.5x", 0, 10), "X");
    EXPECT_DEATH(env::parseF64("X", " 1", 0, 10), "X");
    EXPECT_DEATH(env::parseF64("X", "nan", 0, 10), "X");
    EXPECT_DEATH(env::parseF64("X", "inf", 0, 1e300), "X");
    EXPECT_DEATH(env::parseF64("X", "-0.5", 0, 10), "X");
    EXPECT_DEATH(env::parseF64("X", "10.5", 0, 10), "X");
}

TEST(EnvUtil, U64OrFallsBackOnlyWhenUnset)
{
    ScopedEnv e("FLEXTM_TEST_KNOB", nullptr);
    EXPECT_EQ(env::u64Or("FLEXTM_TEST_KNOB", 7, 0, 100), 7u);
    setenv("FLEXTM_TEST_KNOB", "", 1);
    EXPECT_EQ(env::u64Or("FLEXTM_TEST_KNOB", 7, 0, 100), 7u);
    setenv("FLEXTM_TEST_KNOB", "9", 1);
    EXPECT_EQ(env::u64Or("FLEXTM_TEST_KNOB", 7, 0, 100), 9u);
}

TEST(EnvUtil, ChoiceOrMatchesAndDies)
{
    ScopedEnv e("FLEXTM_TEST_CHOICE", "beta");
    EXPECT_EQ(env::choiceOr("FLEXTM_TEST_CHOICE", {"alpha", "beta"}),
              1);
    unsetenv("FLEXTM_TEST_CHOICE");
    EXPECT_EQ(env::choiceOr("FLEXTM_TEST_CHOICE", {"alpha", "beta"}),
              -1);
    setenv("FLEXTM_TEST_CHOICE", "gamma", 1);
    EXPECT_DEATH(
        env::choiceOr("FLEXTM_TEST_CHOICE", {"alpha", "beta"}),
        "FLEXTM_TEST_CHOICE.*alpha / beta");
}

TEST(EnvSiteDeath, Jobs)
{
    ScopedEnv e("FLEXTM_JOBS", "1O");  // the classic typo
    EXPECT_DEATH(defaultJobs(), "FLEXTM_JOBS");
}

TEST(EnvSite, JobsParsesAndSerializesZero)
{
    ScopedEnv e("FLEXTM_JOBS", "3");
    EXPECT_EQ(defaultJobs(), 3u);
    setenv("FLEXTM_JOBS", "0", 1);
    EXPECT_EQ(defaultJobs(), 1u);
}

TEST(EnvSiteDeath, Auditor)
{
    ScopedEnv e("FLEXTM_AUDITOR", "txnn");
    EXPECT_DEATH(envAuditLevel(AuditLevel::Off), "FLEXTM_AUDITOR");
}

TEST(EnvSite, AuditorAcceptsAllLevels)
{
    ScopedEnv e("FLEXTM_AUDITOR", "off");
    EXPECT_EQ(envAuditLevel(AuditLevel::Transition), AuditLevel::Off);
    setenv("FLEXTM_AUDITOR", "txn", 1);
    EXPECT_EQ(envAuditLevel(AuditLevel::Off), AuditLevel::TxnBoundary);
    setenv("FLEXTM_AUDITOR", "transition", 1);
    EXPECT_EQ(envAuditLevel(AuditLevel::Off), AuditLevel::Transition);
}

TEST(EnvSiteDeath, MemBackend)
{
    ScopedEnv e("FLEXTM_MEM_BACKEND", "dramm");
    EXPECT_DEATH(envMemBackend(MemBackendKind::Fixed),
                 "FLEXTM_MEM_BACKEND");
}

TEST(EnvSiteDeath, Trace)
{
    ScopedEnv e("FLEXTM_TRACE", "protcol,tm");
    EXPECT_DEATH(trace::detail::initMaskFromEnv(), "FLEXTM_TRACE");
}

TEST(EnvSite, TraceEnvParsesKnownTokens)
{
    ScopedEnv e("FLEXTM_TRACE", "tm,fault");
    trace::detail::maskInitialized = false;
    trace::detail::activeMask = 0;
    trace::detail::initMaskFromEnv();
    EXPECT_EQ(trace::detail::activeMask,
              unsigned{trace::Tm} | unsigned{trace::Fault});
    trace::detail::maskInitialized = false;
    trace::detail::activeMask = 0;
}

TEST(EnvSiteDeath, FaultSeed)
{
    ScopedEnv e("FLEXTM_FAULT_SEED", "0xZZ");
    EXPECT_DEATH(envFaultSeed(1), "FLEXTM_FAULT_SEED");
}

TEST(EnvSiteDeath, DumpByte)
{
    // The oracle phase routes FLEXTM_DUMP_BYTE through parseU64.
    EXPECT_DEATH(env::parseU64("FLEXTM_DUMP_BYTE", "0x12junk", 0,
                               UINT64_MAX, 0),
                 "FLEXTM_DUMP_BYTE");
}

} // anonymous namespace
} // namespace flextm
