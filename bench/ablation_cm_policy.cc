/**
 * @file
 * Conflict-management policy ablation (the interplay study the paper
 * lists as future work, Section 9): FlexTM's eager mode under the
 * full pluggable policy suite - Polka (the paper's choice),
 * Aggressive (always abort the enemy), Timid (always abort self),
 * TimestampGreedy (oldest-wins), RandomizedBackoff (requester-abort
 * only), and SerialIrrevocableFirst (escalate on repeat conflict) -
 * on a scalable and a non-scalable workload.
 *
 * Part two is the adversarial score sheet: the same suite pushed
 * through the fault harness on the hot-spot storm and the
 * cyclic-conflict generator (plus a context-switch/paging flood in
 * commit windows), scored on what a throughput number hides - commit
 * latency tails (p99/p999), worst consecutive-abort run, and starved
 * threads.  A policy can win the throughput table and still lose
 * here; that is the point.
 *
 * Expected: Polka dominates or ties the throughput table (that is
 * why the paper uses it); Aggressive causes mutual-abort livelock
 * energy on contended workloads; Timid wastes the attacker's
 * investment; TimestampGreedy trades a little throughput for the
 * clean starvation story; RandomizedBackoff shows the worst tails
 * (nobody gets killed, so everybody waits); SerialIrrevocableFirst
 * buys bounded tails with token serialization.  All six run on
 * identical hardware - the policy is a software swap.
 */

#include "bench/bench_util.hh"
#include "runtime/conflict_manager.hh"
#include "workloads/fault_harness.hh"

using namespace flextm;
using namespace flextm::bench;

namespace
{

const std::vector<CmPolicy> kPolicies = {
    CmPolicy::Polka,          CmPolicy::Aggressive,
    CmPolicy::Timid,          CmPolicy::TimestampGreedy,
    CmPolicy::RandomizedBackoff,
    CmPolicy::SerialIrrevocableFirst,
};

/** One adversarial scenario: a workload plus a fault mix. */
struct Scenario
{
    const char *name;
    WorkloadKind wk;
    FaultConfig fault;
};

FaultConfig
stormFaults(std::uint64_t seed)
{
    // Paging (TMI evictions) + context-switch flood landing in
    // commit windows: the ISSUE's "commit-window flood" scenario.
    FaultConfig f;
    f.seed = seed;
    f.ctxSwitchPct = 12;
    f.tmiEvictPct = 8;
    f.schedWindowCycles = 40;
    return f;
}

FaultConfig
quietFaults(std::uint64_t seed)
{
    // Schedule perturbation only: the workload itself is the storm.
    FaultConfig f;
    f.seed = seed;
    f.schedWindowCycles = 25;
    return f;
}

void
adversarialTable(const Scenario &sc, RuntimeKind rk)
{
    std::printf("\n%s on %s (8 threads, %u ops)\n", sc.name,
                runtimeKindName(rk), opsFor(sc.wk) / 4);
    std::printf("%24s %8s %8s %10s %10s %9s %8s %8s\n", "policy",
                "commits", "aborts", "p99(cyc)", "p999(cyc)",
                "maxConsec", "starved", "wdog");
    for (CmPolicy p : kPolicies) {
        FaultRunOptions o;
        o.threads = 8;
        o.totalOps = opsFor(sc.wk) / 4;
        o.seed = 1;
        o.machine.fault = sc.fault;
        o.machine.cmPolicy = p;
        o.quiet = true;
        o.machine.cores = 16;
        o.machine.memoryBytes = 128u << 20;
        const ExperimentResult r = runFaultedExperiment(sc.wk, rk, o);
        std::printf("%24s %8llu %8llu %10llu %10llu %9llu %8u %8llu%s\n",
                    cmPolicyName(p),
                    static_cast<unsigned long long>(r.commits),
                    static_cast<unsigned long long>(r.aborts),
                    static_cast<unsigned long long>(r.commitLatencyP99),
                    static_cast<unsigned long long>(r.commitLatencyP999),
                    static_cast<unsigned long long>(r.maxConsecAborts),
                    r.starvedThreads,
                    static_cast<unsigned long long>(r.watchdogTrips),
                    r.report.ok ? "" : "  ORACLE-FAIL");
    }
}

} // anonymous namespace

int
main()
{
    std::printf("Conflict-management policy ablation "
                "(FlexTM eager)\n");

    for (WorkloadKind wk :
         {WorkloadKind::RBTree, WorkloadKind::LFUCache,
          WorkloadKind::RandomGraph}) {
        std::vector<std::string> cols;
        for (CmPolicy p : kPolicies)
            cols.push_back(cmPolicyName(p));
        printHeader(workloadKindName(wk), cols);
        for (unsigned threads : {1u, 4u, 8u, 16u}) {
            std::vector<double> row;
            for (CmPolicy p : kPolicies) {
                const ExperimentResult r = avgExperiment(
                    wk, RuntimeKind::FlexTmEager, threads, p);
                row.push_back(r.throughput);
            }
            printRow(threads, row);
        }
    }

    std::printf("\n== Adversarial score sheet ==\n");
    const Scenario scenarios[] = {
        {"Hot-spot storm", WorkloadKind::HotSpot, quietFaults(1)},
        {"Hot-spot storm + ctx-switch/paging flood",
         WorkloadKind::HotSpot, stormFaults(1)},
        {"Cyclic-conflict generator", WorkloadKind::CyclicConflict,
         quietFaults(1)},
    };
    for (const Scenario &sc : scenarios) {
        adversarialTable(sc, RuntimeKind::FlexTmEager);
        adversarialTable(sc, RuntimeKind::FlexTmLazy);
    }
    return 0;
}
