/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: thread
 * sweeps, normalization to 1-thread CGL (the paper's throughput
 * metric), and aligned table printing.
 */

#ifndef FLEXTM_BENCH_BENCH_UTIL_HH
#define FLEXTM_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace flextm::bench
{

/** Thread counts swept in the paper's figures. */
inline const std::vector<unsigned> threadSweep = {1, 2, 4, 8, 16};

/** Per-workload operation budgets chosen so each experiment runs in
 *  seconds of host time while keeping hundreds of transactions per
 *  thread at 16 threads. */
inline unsigned
opsFor(WorkloadKind wk)
{
    switch (wk) {
      case WorkloadKind::RandomGraph:
        return 320;
      case WorkloadKind::Delaunay:
        return 160;
      case WorkloadKind::VacationLow:
      case WorkloadKind::VacationHigh:
        return 480;
      case WorkloadKind::HotSpot:
        return 480;
      case WorkloadKind::CyclicConflict:
        return 320;
      default:
        return 1600;
    }
}

inline ExperimentOptions
defaultOptions(WorkloadKind wk, unsigned threads,
               std::uint64_t seed = 1)
{
    ExperimentOptions o;
    o.threads = threads;
    o.totalOps = opsFor(wk);
    o.seed = seed;
    o.machine.cores = 16;
    o.machine.memoryBytes = 128u << 20;
    return o;
}

/** Seeds averaged per data point (interleaving variance at high
 *  thread counts is substantial, as on real hardware). */
inline constexpr unsigned benchSeeds = 3;

/**
 * Run one (workload, runtime, threads) cell over several seeds and
 * return the averaged result (conflict stats: max over seeds).
 */
inline ExperimentResult
avgExperiment(WorkloadKind wk, RuntimeKind rk, unsigned threads,
              CmPolicy policy = CmPolicy::Polka,
              bool unbounded_victim = false)
{
    ExperimentResult acc;
    for (unsigned s = 1; s <= benchSeeds; ++s) {
        ExperimentOptions o = defaultOptions(wk, threads, s);
        o.machine.cmPolicy = policy;
        o.machine.unboundedVictimBuffer = unbounded_victim;
        const ExperimentResult r = runExperiment(wk, rk, o);
        acc.throughput += r.throughput / benchSeeds;
        acc.commits += r.commits;
        acc.aborts += r.aborts;
        acc.cycles += r.cycles / benchSeeds;
        acc.otSpills += r.otSpills;
        acc.conflictMedian =
            std::max(acc.conflictMedian, r.conflictMedian);
        acc.conflictMax = std::max(acc.conflictMax, r.conflictMax);
    }
    acc.aborts /= benchSeeds;
    acc.commits /= benchSeeds;
    return acc;
}

/** Baseline: 1-thread coarse-grain locks (Figure 4 normalization). */
inline double
cglBaseline(WorkloadKind wk)
{
    return avgExperiment(wk, RuntimeKind::Cgl, 1).throughput;
}

inline void
printHeader(const std::string &title,
            const std::vector<std::string> &runtimes)
{
    std::printf("\n%s\n", title.c_str());
    std::printf("%8s", "threads");
    for (const auto &r : runtimes)
        std::printf(" %14s", r.c_str());
    std::printf("\n");
}

inline void
printRow(unsigned threads, const std::vector<double> &values)
{
    std::printf("%8u", threads);
    for (double v : values)
        std::printf(" %14.2f", v);
    std::printf("\n");
}

} // namespace flextm::bench

#endif // FLEXTM_BENCH_BENCH_UTIL_HH
