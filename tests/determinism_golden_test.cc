/**
 * @file
 * Determinism regression goldens.
 *
 * The simulator promises bit-identical behaviour for a fixed seed:
 * same commit/abort totals, same oracle-checked history, same cycle
 * counts, same machine counters.  Perf work (container swaps, stat
 * interning, caching layers) must not perturb any of that, so this
 * test pins a fingerprint per runtime - two faulted cells (HashTable
 * and LFUCache, fixed seeds, 4 threads, 96 ops) summarised as counts
 * plus an FNV-1a hash over a curated counter list.
 *
 * The counter list is curated, not exhaustive, on purpose: adding a
 * *new* diagnostic counter must not invalidate goldens, while any
 * change to the architectural counters below means simulated
 * behaviour changed and the golden must be re-derived deliberately.
 *
 * A second table pins every contention-management policy the same
 * way: one fingerprint per CmPolicy, summed over every registered
 * runtime on the adversarial pack (HotSpot and CyclicConflict), with
 * the contention counters (back-offs, irrevocable stalls, commit
 * defers) folded into the hash as well.
 *
 * A third table pins the plain recipe the figure benches run (no
 * fault plan, no oracle): per runtime, HashTable at 16 threads plus
 * RandomGraph with the Figure 5e-f prime background at 4 threads,
 * hashing every result field those benches read on top of
 * kHashedCounters.
 *
 * To regenerate after an intentional semantic change:
 *   FLEXTM_GOLDEN_PRINT=1 ./determinism_golden_test
 * and paste the emitted tables over kGoldens / kCmGoldens /
 * kPlainGoldens below.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include <gtest/gtest.h>

#include "runtime/conflict_manager.hh"
#include "runtime/runtime_factory.hh"
#include "workloads/fault_harness.hh"

namespace flextm
{
namespace
{

/** Architectural counters folded into the fingerprint hash.  Keep
 *  this list append-only-by-intent: it is the contract of what the
 *  perf layer may never change. */
const char *const kHashedCounters[] = {
    "l1.hits",
    "l1.writebacks",
    "l1.uncached_loads",
    "l1.silent_evictions",
    "l2.misses",
    "l2.evictions",
    "dir.requests",
    "dir.forwards",
    "dir.flushes",
    "mem.cas_ops",
    "commit.success",
    "commit.failed_csts",
    "commit.failed_aborted",
    "abort.flash",
    "ot.spills",
    "ot.refills",
    "ot.nacks",
    "ot.false_positives",
    "si.aborts",
    "pdi.tmi_installs",
    "pdi.ti_installs",
    "aou.ti_aloads",
    "tx.commits",
    "tx.aborts",
    "cm.enemy_aborts",
    "cm.self_aborts",
    "progress.irrevocable_entries",
    "progress.watchdog_trips",
};

/** Contention counters the policy goldens hash on top of
 *  kHashedCounters. */
const char *const kCmHashedCounters[] = {
    "cm.backoffs",
    "cm.irrevocable_stalls",
    "progress.commit_defers",
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

struct Fingerprint
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t faultsFired = 0;
    std::uint64_t checkedTxns = 0;
    std::uint64_t checkedOps = 0;
    std::uint64_t cycles = 0;
    std::uint64_t statHash = kFnvOffset;
};

/** Run one faulted cell and fold it into @p fp; @p cm_counters also
 *  hashes kCmHashedCounters. */
void
addCell(Fingerprint &fp, WorkloadKind wk, RuntimeKind rk,
        FaultRunOptions opt, bool cm_counters)
{
    opt.quiet = true;
    opt.inspect = [&fp, cm_counters](Machine &m) {
        for (const char *name : kHashedCounters)
            fnv(fp.statHash, m.stats().counterValue(name));
        if (cm_counters)
            for (const char *name : kCmHashedCounters)
                fnv(fp.statHash, m.stats().counterValue(name));
    };
    const ExperimentResult r = runFaultedExperiment(wk, rk, opt);
    EXPECT_TRUE(r.report.ok) << r.report.message;
    EXPECT_FALSE(r.timedOut) << r.context;
    fp.commits += r.commits;
    fp.aborts += r.aborts;
    fp.faultsFired += r.faultsFired;
    fp.checkedTxns += r.report.checkedTxns;
    fp.checkedOps += r.report.checkedOps;
    fnv(fp.statHash, r.cycles);
    fp.cycles += r.cycles;
}

/** With FLEXTM_GOLDEN_PRINT set, print @p got as a golden-table row
 *  for @p kind::@p name; otherwise check it against @p want. */
void
printOrCheck(const char *kind, const char *name, const Fingerprint &got,
             const Fingerprint &want)
{
    if (std::getenv("FLEXTM_GOLDEN_PRINT") != nullptr) {
        std::printf("    {%s::%s, \"%s\",\n"
                    "     {%llu, %llu, %llu, %llu, %llu, %llu, "
                    "0x%llxull}},\n",
                    kind, name, name, (unsigned long long)got.commits,
                    (unsigned long long)got.aborts,
                    (unsigned long long)got.faultsFired,
                    (unsigned long long)got.checkedTxns,
                    (unsigned long long)got.checkedOps,
                    (unsigned long long)got.cycles,
                    (unsigned long long)got.statHash);
        return;
    }

    EXPECT_EQ(got.commits, want.commits);
    EXPECT_EQ(got.aborts, want.aborts);
    EXPECT_EQ(got.faultsFired, want.faultsFired);
    EXPECT_EQ(got.checkedTxns, want.checkedTxns);
    EXPECT_EQ(got.checkedOps, want.checkedOps);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.statHash, want.statHash)
        << "architectural counters changed for " << name;
}

/** Two fixed faulted cells, accumulated into one fingerprint. */
Fingerprint
fingerprint(RuntimeKind rk)
{
    Fingerprint fp;
    FaultRunOptions opt;
    opt.seed = 4242;
    addCell(fp, WorkloadKind::HashTable, rk, opt, false);
    opt.seed = 4243;
    addCell(fp, WorkloadKind::LFUCache, rk, opt, false);
    return fp;
}

struct Golden
{
    RuntimeKind rk;
    const char *name;
    Fingerprint want;
};

// Regenerate with FLEXTM_GOLDEN_PRINT=1 (see file comment).
const Golden kGoldens[] = {
    {RuntimeKind::FlexTmEager, "FlexTmEager",
     {192, 113, 409, 6427, 8180, 57223, 0xe8d41289a93c1d48ull}},
    {RuntimeKind::FlexTmLazy, "FlexTmLazy",
     {192, 65, 399, 6430, 8395, 61978, 0xd8ee008e636797c4ull}},
    {RuntimeKind::Cgl, "Cgl",
     {192, 0, 68, 6433, 8412, 20092, 0x8c073f02d114c5a5ull}},
    {RuntimeKind::Rstm, "Rstm",
     {192, 164, 95, 6439, 7965, 105334, 0xc05a06b20465cbd7ull}},
    {RuntimeKind::Tl2, "Tl2",
     {192, 83, 152, 6440, 8564, 99209, 0xa15361a7278f097eull}},
    {RuntimeKind::RtmF, "RtmF",
     {192, 91, 691, 6431, 8128, 90821, 0x9fba5d086fd24f6full}},
    {RuntimeKind::HyTm, "HyTm",
     {192, 174, 353, 6433, 8311, 81985, 0x4c78ababdfb7650eull}},
};

class DeterminismGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(DeterminismGolden, FingerprintMatches)
{
    const Golden &g = GetParam();
    printOrCheck("RuntimeKind", g.name, fingerprint(g.rk), g.want);
}

INSTANTIATE_TEST_SUITE_P(AllRuntimes, DeterminismGolden,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

// ---------------------------------------------------------------
// One golden per runtime for the plain recipe.
// ---------------------------------------------------------------

/** Fold the result fields the figure benches read into @p fp; the
 *  run's inspect hook has already hashed kHashedCounters. */
void
foldPlainResult(Fingerprint &fp, const ExperimentResult &r)
{
    fp.commits += r.commits;
    fp.aborts += r.aborts;
    fp.cycles += r.cycles;
    fnv(fp.statHash, r.cycles);
    fnv(fp.statHash, r.conflictMedian);
    fnv(fp.statHash, r.conflictMax);
    fnv(fp.statHash, r.otSpills);
    fnv(fp.statHash, std::bit_cast<std::uint64_t>(r.throughput));
    fnv(fp.statHash, std::bit_cast<std::uint64_t>(r.primeThroughput));
}

/** HashTable at 16 threads, then RandomGraph with the prime
 *  background at 4 threads, accumulated into one fingerprint. */
Fingerprint
plainFingerprint(RuntimeKind rk)
{
    Fingerprint fp;
    ExperimentOptions opt;
    opt.inspect = [&fp](Machine &m) {
        for (const char *name : kHashedCounters)
            fnv(fp.statHash, m.stats().counterValue(name));
    };
    opt.seed = 5200;
    opt.threads = 16;
    opt.totalOps = 320;
    foldPlainResult(fp, runExperiment(WorkloadKind::HashTable, rk, opt));
    opt.seed = 5201;
    opt.threads = 4;
    opt.totalOps = 128;
    opt.primeBackground = true;
    foldPlainResult(fp, runExperiment(WorkloadKind::RandomGraph, rk, opt));
    return fp;
}

// Regenerate with FLEXTM_GOLDEN_PRINT=1 (see file comment).
const Golden kPlainGoldens[] = {
    {RuntimeKind::FlexTmEager, "FlexTmEager",
     {448, 64, 0, 0, 0, 85657, 0x144ecc3191e770f6ull}},
    {RuntimeKind::FlexTmLazy, "FlexTmLazy",
     {448, 43, 0, 0, 0, 97832, 0x4284397a53fb37b3ull}},
    {RuntimeKind::Cgl, "Cgl",
     {448, 0, 0, 0, 0, 163574, 0xac43cee1deba6ccaull}},
    {RuntimeKind::Rstm, "Rstm",
     {448, 120, 0, 0, 0, 420537, 0xdc5aac5114e334d9ull}},
    {RuntimeKind::Tl2, "Tl2",
     {448, 87, 0, 0, 0, 248538, 0x69f3edaf69b1bae5ull}},
    {RuntimeKind::RtmF, "RtmF",
     {448, 84, 0, 0, 0, 239627, 0xac39f12579d06be4ull}},
    {RuntimeKind::HyTm, "HyTm",
     {448, 156, 0, 0, 0, 411781, 0x1ca723fd4b54b189ull}},
};

class PlainRecipeGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(PlainRecipeGolden, FingerprintMatches)
{
    const Golden &g = GetParam();
    printOrCheck("RuntimeKind", g.name, plainFingerprint(g.rk), g.want);
}

INSTANTIATE_TEST_SUITE_P(AllRuntimes, PlainRecipeGolden,
                         ::testing::ValuesIn(kPlainGoldens),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

/** Teeth: registering a runtime without recording its goldens (or
 *  unregistering one while a golden lingers) fails here, so a new
 *  runtime cannot silently skip the determinism contract. */
TEST(DeterminismGolden, EveryRegisteredRuntimeHasExactlyOneGolden)
{
    const auto &kinds = allRuntimeKinds();
    auto check = [&kinds](const char *table, const auto &goldens) {
        for (RuntimeKind rk : kinds) {
            unsigned found = 0;
            for (const Golden &g : goldens)
                if (g.rk == rk)
                    ++found;
            EXPECT_EQ(found, 1u)
                << "registered runtime " << runtimeKindName(rk)
                << " must have exactly one " << table
                << " golden (regenerate with FLEXTM_GOLDEN_PRINT=1)";
        }
        EXPECT_EQ(std::size(goldens), kinds.size())
            << table << " goldens recorded for unregistered runtimes";
    };
    check("determinism", kGoldens);
    check("plain-recipe", kPlainGoldens);
}

// ---------------------------------------------------------------
// One golden per contention-management policy.
// ---------------------------------------------------------------

/** Every registered runtime on both adversarial workloads under
 *  @p policy, accumulated into one fingerprint. */
Fingerprint
cmFingerprint(CmPolicy policy)
{
    constexpr WorkloadKind workloads[] = {
        WorkloadKind::HotSpot,
        WorkloadKind::CyclicConflict,
    };
    FaultRunOptions opt;
    opt.seed = 6100;
    opt.threads = 4;
    opt.totalOps = 64;
    opt.machine.cmPolicy = policy;
    // Livelock bound, as in the adversarial sweep.
    opt.maxCycles = 80'000'000;
    Fingerprint fp;
    for (RuntimeKind rk : allRuntimeKinds()) {
        for (WorkloadKind wk : workloads) {
            addCell(fp, wk, rk, opt, true);
            ++opt.seed;
        }
    }
    return fp;
}

struct CmGolden
{
    CmPolicy policy;
    const char *name;
    Fingerprint want;
};

// Regenerate with FLEXTM_GOLDEN_PRINT=1 (see file comment).
const CmGolden kCmGoldens[] = {
    {CmPolicy::Polka, "Polka",
     {910, 1402, 1081, 1470, 6160, 582401, 0xf531d543f1d82401ull}},
    {CmPolicy::Aggressive, "Aggressive",
     {910, 1139, 969, 1470, 6160, 633682, 0xd0039df7ce434449ull}},
    {CmPolicy::Timid, "Timid",
     {910, 1178, 922, 1470, 6160, 599346, 0xe28a1e7cfe717e20ull}},
    {CmPolicy::TimestampGreedy, "TimestampGreedy",
     {910, 1725, 1175, 1470, 6160, 582561, 0xda58a26ce9cc16acull}},
    {CmPolicy::RandomizedBackoff, "RandomizedBackoff",
     {910, 1266, 1014, 1470, 6160, 704460, 0xe237b934a0f8ad6ull}},
    {CmPolicy::SerialIrrevocableFirst, "SerialIrrevocableFirst",
     {910, 1177, 874, 1470, 6160, 530114, 0x704d3634b2cd03ccull}},
};

class CmPolicyGolden : public ::testing::TestWithParam<CmGolden>
{
};

TEST_P(CmPolicyGolden, FingerprintMatches)
{
    const CmGolden &g = GetParam();
    printOrCheck("CmPolicy", g.name, cmFingerprint(g.policy), g.want);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CmPolicyGolden,
                         ::testing::ValuesIn(kCmGoldens),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

/** Teeth: every policy cmPolicyName() knows (the enum is dense from
 *  zero) has exactly one golden, so a new policy cannot skip the
 *  contract. */
TEST(CmPolicyGolden, EveryPolicyHasExactlyOneGolden)
{
    unsigned policies = 0;
    for (;; ++policies) {
        const auto p = static_cast<CmPolicy>(policies);
        if (std::string_view(cmPolicyName(p)) == "?")
            break;
        unsigned found = 0;
        for (const CmGolden &g : kCmGoldens)
            if (g.policy == p)
                ++found;
        EXPECT_EQ(found, 1u)
            << "policy " << cmPolicyName(p)
            << " must have exactly one golden "
               "(regenerate with FLEXTM_GOLDEN_PRINT=1)";
    }
    EXPECT_EQ(policies, 6u);
    EXPECT_EQ(std::size(kCmGoldens), policies)
        << "goldens recorded for unknown policies";
}

} // namespace
} // namespace flextm
