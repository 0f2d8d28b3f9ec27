/**
 * @file
 * sim-paper and sim-oracle: the benchmark drives every simulator
 * experiment ("cell") phase by phase itself - construct, warm-up
 * setup, parallel Machine::run, verify, TxOracle::validate - instead
 * of calling runExperiment/runFaultedExperiment as one black box, so
 * host time and simulated cycles split per phase.  Each phase does
 * exactly what those harnesses do, in the same order, so the
 * simulated work (and the work digest) is theirs.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "os/tx_os.hh"
#include "runtime/flextm_runtime.hh"
#include "sim/oracle.hh"
#include "trace.hh"
#include "workloads.hh"
#include "workloads/fault_harness.hh"

namespace perfbench
{
namespace
{

using namespace flextm;

struct Cell
{
    RuntimeKind rk;
    WorkloadKind wk;
    std::uint64_t seed;
    unsigned threads;
    unsigned ops;
    MachineConfig machine;
    /** The runFaultedExperiment recipe (chaos fault plan, TxOs fault
     *  hooks on FlexTM threads, oracle recording, verify, replay);
     *  otherwise the runExperiment (Figure 4) recipe plus a verify
     *  after the timed region. */
    bool faulted;
};

/** Stats-registry counters read before and after the parallel phase
 *  (order matches enum Ctr). */
constexpr const char *kCounterNames[] = {
    "l1.hits",          "l1.misses",          "l2.misses",
    "dir.requests",     "dir.forwards",       "sharer_cache.hits",
    "sharer_cache.misses", "mem.cas_ops",     "pdi.tmi_installs",
    "abort.flash",      "commit.failed_csts", "ot.spills",
    "os.suspends",      "os.resumes",         "os.summary_traps",
    "cm.backoffs",      "progress.irrevocable_entries",
};

enum Ctr : std::size_t
{
    L1Hits, L1Misses, L2Misses, DirRequests, DirForwards, SharerHits,
    SharerMisses, CasOps, TmiInstalls, FlashAborts, FailedCsts,
    OtSpills, OsSuspends, OsResumes, OsSummaryTraps, CmBackoffs,
    IrrevocableEntries, NumCtrs
};
static_assert(std::size(kCounterNames) == NumCtrs);

using Counters = std::array<std::uint64_t, NumCtrs>;

Counters
readCounters(Machine &m)
{
    Counters c{};
    for (std::size_t i = 0; i < NumCtrs; ++i)
        c[i] = m.stats().counterValue(kCounterNames[i]);
    return c;
}

struct CellResult
{
    bool ok = true;
    std::string message;
    double constructS = 0, setupS = 0, parallelS = 0, verifyS = 0,
           oracleS = 0, wallS = 0;
    Clock::time_point phasesEnd;
    Cycles setupCycles = 0;
    Cycles parallelCycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t checkedOps = 0;
    std::uint64_t faultsFired = 0;
    /** Parallel-phase deltas. */
    Counters counters{};
};

/** Figure 4: 6 runtimes x 6 Table 3b workloads at 16 threads, with
 *  the op budgets and machine of bench/bench_util.hh. */
std::vector<Cell>
paperCells(std::uint64_t seed)
{
    constexpr RuntimeKind runtimes[] = {
        RuntimeKind::Cgl,  RuntimeKind::FlexTmEager,
        RuntimeKind::FlexTmLazy, RuntimeKind::RtmF,
        RuntimeKind::Rstm, RuntimeKind::Tl2,
    };
    constexpr WorkloadKind workloads[] = {
        WorkloadKind::HashTable,   WorkloadKind::RBTree,
        WorkloadKind::LFUCache,    WorkloadKind::RandomGraph,
        WorkloadKind::Delaunay,    WorkloadKind::VacationLow,
    };
    std::vector<Cell> cells;
    for (const WorkloadKind wk : workloads) {
        for (const RuntimeKind rk : runtimes) {
            const ExperimentOptions o =
                bench::defaultOptions(wk, 16, seed + 1);
            cells.push_back(Cell{rk, wk, o.seed, o.threads, o.totalOps,
                                 o.machine, false});
        }
    }
    return cells;
}

/** perf_sim's frozen 54-cell matrix (same order, same per-cell seed
 *  derivation); seed 0 gives perf_sim's own cell seeds. */
std::vector<Cell>
oracleCells(std::uint64_t seed)
{
    constexpr RuntimeKind runtimes[] = {
        RuntimeKind::FlexTmEager, RuntimeKind::FlexTmLazy,
        RuntimeKind::Cgl,         RuntimeKind::Rstm,
        RuntimeKind::Tl2,         RuntimeKind::RtmF,
    };
    constexpr WorkloadKind workloads[] = {
        WorkloadKind::HashTable, WorkloadKind::LFUCache,
        WorkloadKind::RBTree,
    };
    constexpr unsigned seedsPerCell = 3;
    // 256 > the 129 cell seeds one base spans, so bases never overlap.
    const std::uint64_t base = 7000 + 256 * seed;
    const FaultRunOptions o;  // the harness defaults perf_sim runs
    std::vector<Cell> cells;
    for (unsigned r = 0; r < std::size(runtimes); ++r) {
        for (unsigned w = 0; w < std::size(workloads); ++w) {
            for (unsigned k = 0; k < seedsPerCell; ++k) {
                cells.push_back(Cell{
                    runtimes[r], workloads[w],
                    base + (std::uint64_t{r} * 8 + w) * seedsPerCell + k,
                    o.threads, o.totalOps, o.machine, true});
            }
        }
    }
    return cells;
}

void
spawnOps(Machine &m, CoreId core, TxThread *t, Workload *w,
         std::uint64_t *issued, unsigned total, Cycles start)
{
    const ThreadId tid = m.scheduler().spawn(core, [t, w, issued, total] {
        while (*issued < total) {
            ++*issued;
            w->runOne(*t);
        }
    });
    m.scheduler().thread(tid).syncClock(start);
}

/** Construct through oracle; the machine is torn down on return. */
CellResult
runPhases(const Cell &c, Tracer &tr, int span, Clock::time_point t0)
{
    CellResult r;
    MachineConfig cfg = c.machine;
    cfg.seed = c.seed;
    if (cfg.cores < c.threads)
        cfg.cores = c.threads;
    if (c.faulted)
        cfg.fault = FaultConfig::chaos(c.seed);
    const std::string context =
        "seed=" + std::to_string(c.seed) +
        " runtime=" + runtimeKindName(c.rk) +
        " workload=" + workloadKindName(c.wk);

    Machine m(cfg);
    TxOracle oracle;
    if (c.faulted) {
        oracle.setContext(context);
        m.setOracle(&oracle);
    }
    RuntimeFactory f(m, c.rk);
    std::unique_ptr<TxOs> os;
    if (c.faulted && f.flexGlobals() != nullptr &&
        m.faultPlan() != nullptr)
        os = std::make_unique<TxOs>(m, *f.flexGlobals());
    std::unique_ptr<Workload> wl = makeWorkload(c.wk);
    std::vector<std::unique_ptr<TxThread>> ts;
    if (c.faulted) {
        // runFaultedExperiment makes the workers before setup allocates
        // anything; runExperiment makes them after (below).
        for (unsigned i = 0; i < c.threads; ++i) {
            ts.push_back(f.makeThread(1 + i, i));
            if (os) {
                if (auto *ft = dynamic_cast<FlexTmThread *>(ts.back().get()))
                    os->installFaultHook(*ft, *m.faultPlan());
            }
        }
    }
    const Clock::time_point t1 = Clock::now();
    tr.add("construct", span, t0, t1);

    {
        auto t0thread = f.makeThread(0, 0);
        Workload *w = wl.get();
        TxThread *tp = t0thread.get();
        m.scheduler().spawn(0, [w, tp] { w->setup(*tp); });
        m.run();
    }
    const Cycles setupEnd = m.scheduler().maxClock();
    r.setupCycles = setupEnd;
    const Clock::time_point t2 = Clock::now();
    tr.add("setup", span, t1, t2);

    const Counters before = readCounters(m);
    std::uint64_t issued = 0;
    for (unsigned i = 0; i < c.threads; ++i) {
        if (!c.faulted)
            ts.push_back(f.makeThread(1 + i, i));
        spawnOps(m, i, ts[i].get(), wl.get(), &issued, c.ops, setupEnd);
    }
    m.run();
    r.parallelCycles = m.scheduler().maxClock() - setupEnd;
    const Counters after = readCounters(m);
    for (std::size_t i = 0; i < NumCtrs; ++i)
        r.counters[i] = after[i] - before[i];
    const Clock::time_point t3 = Clock::now();
    tr.add("parallel", span, t2, t3);

    {
        Workload *w = wl.get();
        TxThread *tp = ts[0].get();
        const ThreadId vtid =
            m.scheduler().spawn(0, [w, tp] { w->verify(*tp); });
        m.scheduler().thread(vtid).syncClock(m.scheduler().maxClock());
        m.run();
    }
    const Clock::time_point t4 = Clock::now();
    tr.add("verify", span, t3, t4);

    for (const auto &t : ts) {
        r.commits += t->commits();
        r.aborts += t->aborts();
    }
    if (const FaultPlan *fp = m.faultPlan())
        r.faultsFired = fp->totalFired();

    Clock::time_point t5 = t4;
    if (c.faulted) {
        const TxOracle::Report rep =
            oracle.validate([&m](Addr a, void *out, unsigned s) {
                m.memsys().peek(a, out, s);
            });
        r.ok = rep.ok;
        r.message = rep.ok ? context : rep.message;
        r.checkedOps = rep.checkedOps;
        t5 = Clock::now();
        tr.add("oracle", span, t4, t5);
    }

    r.constructS = secondsBetween(t0, t1);
    r.setupS = secondsBetween(t1, t2);
    r.parallelS = secondsBetween(t2, t3);
    r.verifyS = secondsBetween(t3, t4);
    r.oracleS = secondsBetween(t4, t5);
    r.phasesEnd = t5;
    return r;
}

CellResult
runCell(const Cell &c, Tracer &tr, int parent)
{
    const Clock::time_point t0 = Clock::now();
    const int span = tr.open("cell", parent, t0);
    CellResult r = runPhases(c, tr, span, t0);
    const Clock::time_point t1 = Clock::now();
    tr.add("teardown", span, r.phasesEnd, t1);
    tr.close(span, t1);
    r.wallS = secondsBetween(t0, t1);
    return r;
}

struct Pass
{
    double wallS = 0;
    bool traced = false;
    std::vector<CellResult> cells;
};

Pass
runPass(const std::vector<Cell> &cells, Tracer &tr)
{
    Pass p;
    p.traced = tr.enabled();
    const Clock::time_point t0 = Clock::now();
    const int span = tr.open("pass", -1, t0);
    for (const Cell &c : cells)
        p.cells.push_back(runCell(c, tr, span));
    const Clock::time_point t1 = Clock::now();
    tr.close(span, t1);
    p.wallS = secondsBetween(t0, t1);
    return p;
}

bool
sameWork(const CellResult &a, const CellResult &b)
{
    return a.commits == b.commits && a.aborts == b.aborts &&
           a.setupCycles == b.setupCycles &&
           a.parallelCycles == b.parallelCycles &&
           a.checkedOps == b.checkedOps && a.counters == b.counters;
}

void
printDigest(const std::string &name, const std::vector<Cell> &cells,
            const Pass &p)
{
    std::uint64_t commits = 0, aborts = 0, cycles = 0, checked = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &r = p.cells[i];
        std::printf("digest %s cell=%zu runtime=%s workload=%s seed=%llu "
                    "commits=%llu aborts=%llu cycles=%llu "
                    "checked_ops=%llu\n",
                    name.c_str(), i, runtimeKindName(cells[i].rk),
                    workloadKindName(cells[i].wk),
                    static_cast<unsigned long long>(cells[i].seed),
                    static_cast<unsigned long long>(r.commits),
                    static_cast<unsigned long long>(r.aborts),
                    static_cast<unsigned long long>(r.parallelCycles),
                    static_cast<unsigned long long>(r.checkedOps));
        commits += r.commits;
        aborts += r.aborts;
        cycles += r.parallelCycles;
        checked += r.checkedOps;
    }
    std::printf("digest %s total cells=%zu commits=%llu aborts=%llu "
                "cycles=%llu checked_ops=%llu\n",
                name.c_str(), cells.size(),
                static_cast<unsigned long long>(commits),
                static_cast<unsigned long long>(aborts),
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(checked));
}

} // anonymous namespace

Outcome
runSimWorkload(const RunArgs &args)
{
    const bool paper = args.workload == "sim-paper";
    const std::vector<Cell> cells =
        paper ? paperCells(args.seed) : oracleCells(args.seed);

    // A traced run alternates untraced and traced passes, so the
    // tracing overhead is measured in the same run.
    Tracer off(false), on(true);
    std::vector<Pass> passes;
    const Clock::time_point start = Clock::now();
    while (passes.size() < (args.trace ? 2u : 1u) ||
           secondsBetween(start, Clock::now()) + passes.back().wallS <=
               args.seconds) {
        Tracer &tr = args.trace && passes.size() % 2 == 1 ? on : off;
        passes.push_back(runPass(cells, tr));
    }

    Outcome out;
    for (const Pass &p : passes) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellResult &r = p.cells[i];
            ++out.attempted;
            if (!r.ok) {
                std::printf("FAIL %s: %s\n", args.workload.c_str(),
                            r.message.c_str());
            } else if (!sameWork(r, passes.front().cells[i])) {
                std::printf("FAIL %s: pass repeated cell %zu with "
                            "different simulated work\n",
                            args.workload.c_str(), i);
            } else {
                continue;
            }
            ++out.failed;
        }
    }
    out.correct = out.failed == 0;
    const Pass &first = passes.front();
    printDigest(args.workload, cells, first);

    std::uint64_t totalOps = 0;
    double logRate = 0;
    std::uint64_t commits = 0, aborts = 0, checked = 0, faults = 0;
    Cycles parallelCycles = 0, setupCycles = 0;
    Counters ctr{};
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &r = first.cells[i];
        totalOps += cells[i].ops;
        logRate += std::log(static_cast<double>(r.commits) * 1e6 /
                            static_cast<double>(r.parallelCycles));
        commits += r.commits;
        aborts += r.aborts;
        checked += r.checkedOps;
        faults += r.faultsFired;
        parallelCycles += r.parallelCycles;
        setupCycles += r.setupCycles;
        for (std::size_t k = 0; k < NumCtrs; ++k)
            ctr[k] += r.counters[k];
    }
    const double commitsPerMcycle =
        std::exp(logRate / static_cast<double>(cells.size()));
    const double parallelMcycles = static_cast<double>(parallelCycles) / 1e6;

    // Every pass repeats bit-identical simulated work (checked above),
    // so pass-to-pass differences are host interference, which on a
    // shared machine comes in bursts lasting seconds: each cell's
    // times are its medians over the untraced passes.
    std::vector<double> wall, cellUs;
    double setupS = 0, parallelS = 0, wallS = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::vector<double> cellWall, cellSetup, cellParallel;
        for (const Pass &p : passes) {
            if (p.traced)
                continue;
            const CellResult &r = p.cells[i];
            cellWall.push_back(r.wallS);
            cellSetup.push_back(r.constructS + r.setupS);
            cellParallel.push_back(r.parallelS);
        }
        const double cellS = median(cellWall);
        cellUs.push_back(cellS * 1e6);
        wallS += cellS;
        setupS += median(cellSetup);
        parallelS += median(cellParallel);
    }
    for (const Pass &p : passes) {
        if (!p.traced)
            wall.push_back(p.wallS);
    }
    const double fail = static_cast<double>(out.failed) /
                        static_cast<double>(out.attempted);
    std::printf("%s: batch, one host thread, %zu cells x %zu passes "
                "(%zu untraced), cell latency over %zu cells; pass "
                "wall_s:",
                args.workload.c_str(), cells.size(), passes.size(),
                wall.size(), cellUs.size());
    for (const Pass &p : passes)
        std::printf(" %.3f%s", p.wallS, p.traced ? "(traced)" : "");
    std::printf("\n");
    printMetrics("workload metrics",
                 {{"sim_mcycles_per_s", parallelMcycles / parallelS,
                   "Mcycles/s"},
                  {"sim_commits_per_mcycle", commitsPerMcycle, "1/Mcycle"},
                  {"fail_ratio", fail, "ratio"}});

    auto &v = out.values;
    v["wall_s"] = wallS;
    v["setup_s"] = setupS;
    v["ops_per_s"] = static_cast<double>(totalOps) / parallelS;
    v["latency_us_p50"] = percentile(cellUs, 50);
    v["latency_us_p99"] = percentile(cellUs, 99);
    if (!args.trace)
        return out;

    // Per-layer: counts from the first pass (every pass repeats them),
    // host times from the traced passes' spans.
    const double traced = static_cast<double>(passes.size() / 2);
    const std::map<std::string, double> spanS = on.totalSeconds();
    const std::map<std::string, double> selfS = on.selfSeconds();
    auto spanPerPass = [&](const char *name) {
        const auto it = spanS.find(name);
        return it == spanS.end() ? 0.0 : it->second / traced;
    };
    const double l1Accesses =
        static_cast<double>(ctr[L1Hits] + ctr[L1Misses]);
    const double sharerLookups =
        static_cast<double>(ctr[SharerHits] + ctr[SharerMisses]);
    const double parallelPerPass = spanPerPass("parallel");
    const double oraclePerPass = spanPerPass("oracle");

    v["runtime.construct_s"] = spanPerPass("construct");
    v["runtime.teardown_s"] = spanPerPass("teardown");
    v["runtime.commits"] = static_cast<double>(commits);
    v["runtime.aborts"] = static_cast<double>(aborts);
    v["runtime.commit_ratio"] = static_cast<double>(commits) /
                                static_cast<double>(commits + aborts);
    v["runtime.cm_backoffs"] = static_cast<double>(ctr[CmBackoffs]);
    v["runtime.irrevocable_entries"] =
        static_cast<double>(ctr[IrrevocableEntries]);
    v["runtime.commits_per_mcycle"] = commitsPerMcycle;
    v["workloads.setup_s"] = spanPerPass("setup");
    v["workloads.setup_mcycles"] = static_cast<double>(setupCycles) / 1e6;
    v["workloads.verify_s"] = spanPerPass("verify");
    v["sim.parallel_s"] = parallelPerPass;
    v["sim.parallel_mcycles"] = parallelMcycles;
    v["sim.mcycles_per_s"] = parallelMcycles / parallelPerPass;
    v["sim.host_ns_per_access"] = parallelPerPass * 1e9 / l1Accesses;
    v["sim.oracle_s"] = oraclePerPass;
    v["sim.oracle_checked_ops"] = static_cast<double>(checked);
    v["sim.oracle_ns_per_op"] =
        checked == 0 ? 0.0
                     : oraclePerPass * 1e9 / static_cast<double>(checked);
    v["sim.faults_fired"] = static_cast<double>(faults);
    v["mem.l1_accesses"] = l1Accesses;
    v["mem.l1_miss_ratio"] =
        static_cast<double>(ctr[L1Misses]) / l1Accesses;
    v["mem.l2_misses"] = static_cast<double>(ctr[L2Misses]);
    v["mem.dir_requests"] = static_cast<double>(ctr[DirRequests]);
    v["mem.dir_forwards"] = static_cast<double>(ctr[DirForwards]);
    v["mem.sharer_cache_hit_ratio"] =
        sharerLookups == 0 ? 0.0
                           : static_cast<double>(ctr[SharerHits]) /
                                 sharerLookups;
    v["mem.cas_ops"] = static_cast<double>(ctr[CasOps]);
    v["core.pdi_tmi_installs"] = static_cast<double>(ctr[TmiInstalls]);
    v["core.flash_aborts"] = static_cast<double>(ctr[FlashAborts]);
    v["core.commit_failed_csts"] = static_cast<double>(ctr[FailedCsts]);
    v["core.ot_spills"] = static_cast<double>(ctr[OtSpills]);
    v["os.suspends"] = static_cast<double>(ctr[OsSuspends]);
    v["os.resumes"] = static_cast<double>(ctr[OsResumes]);
    v["os.summary_traps"] = static_cast<double>(ctr[OsSummaryTraps]);
    v["trace.spans"] = static_cast<double>(on.size());
    // Host time inside a pass but outside every phase span.
    double unattributed = 0;
    for (const char *name : {"pass", "cell"})
        unattributed += selfS.count(name) ? selfS.at(name) : 0.0;
    v["trace.unattributed_s"] = unattributed / traced;
    // Means, like the phase times, so the phases add up to trace.wall_s.
    v["trace.wall_s"] = spanPerPass("pass");
    v["trace.overhead_s"] =
        spanPerPass("pass") -
        std::accumulate(wall.begin(), wall.end(), 0.0) /
            static_cast<double>(wall.size());
    if (!args.traceOut.empty() && !on.write(args.traceOut))
        std::printf("warning: cannot write %s\n", args.traceOut.c_str());
    return out;
}

} // namespace perfbench
