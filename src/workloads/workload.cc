#include "workloads/workload.hh"

#include <cstdio>

#include "os/tx_os.hh"
#include "sim/env_util.hh"
#include "sim/logging.hh"
#include "workloads/adversarial.hh"
#include "workloads/delaunay.hh"
#include "workloads/fault_harness.hh"
#include "workloads/hash_table.hh"
#include "workloads/lfu_cache.hh"
#include "workloads/prime.hh"
#include "workloads/random_graph.hh"
#include "workloads/rb_tree.hh"
#include "workloads/vacation.hh"

namespace flextm
{

const char *
workloadKindName(WorkloadKind k)
{
    switch (k) {
      case WorkloadKind::HashTable:
        return "HashTable";
      case WorkloadKind::RBTree:
        return "RBTree";
      case WorkloadKind::LFUCache:
        return "LFUCache";
      case WorkloadKind::RandomGraph:
        return "RandomGraph";
      case WorkloadKind::Delaunay:
        return "Delaunay";
      case WorkloadKind::VacationLow:
        return "Vacation-Low";
      case WorkloadKind::VacationHigh:
        return "Vacation-High";
      case WorkloadKind::HotSpot:
        return "HotSpot";
      case WorkloadKind::CyclicConflict:
        return "CyclicConflict";
    }
    return "?";
}

std::unique_ptr<Workload>
makeWorkload(WorkloadKind k)
{
    switch (k) {
      case WorkloadKind::HashTable:
        return std::make_unique<HashTableWorkload>();
      case WorkloadKind::RBTree:
        return std::make_unique<RBTreeWorkload>();
      case WorkloadKind::LFUCache:
        return std::make_unique<LFUCacheWorkload>();
      case WorkloadKind::RandomGraph:
        return std::make_unique<RandomGraphWorkload>();
      case WorkloadKind::Delaunay:
        return std::make_unique<DelaunayWorkload>();
      case WorkloadKind::VacationLow:
        return std::make_unique<VacationWorkload>(
            VacationWorkload::low());
      case WorkloadKind::VacationHigh:
        return std::make_unique<VacationWorkload>(
            VacationWorkload::high());
      case WorkloadKind::HotSpot:
        return std::make_unique<HotSpotWorkload>();
      case WorkloadKind::CyclicConflict:
        return std::make_unique<CyclicConflictWorkload>();
    }
    panic("unknown workload");
}

namespace
{

/** "seed=N runtime=R workload=W": the reproduction recipe. */
std::string
recipe(std::uint64_t seed, RuntimeKind rk, WorkloadKind wk)
{
    return "seed=" + std::to_string(seed) +
           " runtime=" + runtimeKindName(rk) +
           " workload=" + workloadKindName(wk);
}

/**
 * The one experiment phase sequence: construct the machine, create
 * the workers, set the workload up single-threaded (Section 7.2), run
 * the timed parallel phase, verify, and - when @p oracle records the
 * run - validate its history by replay.
 */
ExperimentResult
runPhases(WorkloadKind wk, RuntimeKind rk, const ExperimentOptions &opt,
          TxOracle *oracle)
{
    sim_assert(opt.threads >= 1);
    MachineConfig cfg = opt.machine;
    cfg.seed = opt.seed;
    if (cfg.cores < opt.threads)
        cfg.cores = opt.threads;

    ExperimentResult res;
    res.seed = opt.seed;
    res.context = recipe(opt.seed, rk, wk);

    Machine m(cfg);
    m.setOracle(oracle);
    RuntimeFactory f(m, rk);
    FlexTmGlobals *g = f.flexGlobals();
    if (g)
        g->chaosSkipWrAbort = opt.flexSkipWrAbort;
    // FlexTM threads also take forced context switches through TxOs.
    std::unique_ptr<TxOs> os;
    if (g && m.faultPlan() != nullptr)
        os = std::make_unique<TxOs>(m, *g);

    const std::unique_ptr<Workload> wl = makeWorkload(wk);
    Workload *w = wl.get();

    std::vector<std::unique_ptr<PrimeWorker>> primes;
    std::vector<std::unique_ptr<TxThread>> ts;
    auto makeWorkers = [&] {
        for (unsigned i = 0; i < opt.threads; ++i) {
            ts.push_back(f.makeThread(1 + i, i));
            TxThread *t = ts.back().get();
            if (opt.primeBackground) {
                primes.push_back(
                    std::make_unique<PrimeWorker>(opt.seed * 31 + i));
                t->setOnAbortYield(primes.back().get());
            }
            auto *ft = dynamic_cast<FlexTmThread *>(t);
            if (os && ft)
                os->installFaultHook(*ft, *m.faultPlan());
        }
    };
    // A recorded run creates every worker before the workload
    // allocates anything: per-thread runtime metadata (status words,
    // clone arenas) is written without transactional bookkeeping, so
    // it must never land on workload lines recycled through the
    // allocator - the oracle's replay still tracks those bytes.  A
    // plain run creates them after setup, as the figures were
    // recorded.
    if (oracle != nullptr)
        makeWorkers();

    // Phase 1: single-threaded setup (recorded by the oracle too -
    // the warm-up transactions are part of the checked history).
    {
        auto t0 = f.makeThread(0, 0);
        TxThread *tp = t0.get();
        m.scheduler().spawn(0, [w, tp] { w->setup(*tp); });
        m.run();
    }
    const Cycles setup_end = m.scheduler().maxClock();
    // Conflict counts and latency tails are scored over the timed
    // phase only - the single-threaded warm-up would dilute them.
    m.stats().histogram("flextm.tx_conflicts").clear();
    m.stats().histogram("tx.commit_latency").clear();
    const std::uint64_t spills_before =
        m.stats().counterValue("ot.spills");
    if (oracle == nullptr)
        makeWorkers();

    // Phase 2: timed parallel run.  With a maxCycles bound, every
    // thread unwinds via DeadlineExceeded (thrown out of
    // TxThread::charge) once the bound passes - the fibers exit
    // cleanly instead of being abandoned mid-transaction.
    if (opt.maxCycles != 0)
        m.setDeadline(setup_end + opt.maxCycles);
    std::uint64_t issued = 0;
    bool timed_out = false;
    for (unsigned i = 0; i < opt.threads; ++i) {
        TxThread *t = ts[i].get();
        const unsigned total = opt.totalOps;
        const unsigned irr_n = opt.irrevocableEveryN;
        const ThreadId stid = m.scheduler().spawn(
            i, [t, w, &issued, &timed_out, total, irr_n] {
                try {
                    unsigned my_ops = 0;
                    while (issued < total) {
                        ++issued;
                        if (irr_n != 0 && ++my_ops % irr_n == 0)
                            t->requestIrrevocable();
                        w->runOne(*t);
                    }
                } catch (const DeadlineExceeded &) {
                    timed_out = true;
                }
            });
        m.scheduler().thread(stid).syncClock(setup_end);
    }
    m.run();
    m.setDeadline(0);
    res.cycles = m.scheduler().maxClock() - setup_end;
    res.timedOut = timed_out;
    res.irrevocableEntries = m.progress().irrevocableEntries();
    res.watchdogTrips = m.progress().watchdogTrips();

    // Phase 3: single-threaded structural verify (also recorded).
    // Skipped on timeout: threads were torn down mid-transaction, so
    // the structure (and the oracle's history) is legitimately
    // incomplete.
    if (opt.runVerify && !timed_out) {
        TxThread *tp = ts[0].get();
        const ThreadId vtid =
            m.scheduler().spawn(0, [w, tp] { w->verify(*tp); });
        m.scheduler().thread(vtid).syncClock(m.scheduler().maxClock());
        m.run();
    }

    for (const auto &t : ts) {
        res.commits += t->commits();
        res.aborts += t->aborts();
        res.threadCommits.push_back(t->commits());
        res.threadAborts.push_back(t->aborts());
        if (t->aborts() > 0 && t->commits() == 0)
            ++res.starvedThreads;
    }
    std::uint64_t prime_chunks = 0;
    for (const auto &pw : primes)
        prime_chunks += pw->chunks();
    if (res.cycles != 0) {
        const double cycles = static_cast<double>(res.cycles);
        res.throughput = static_cast<double>(res.commits) * 1e6 / cycles;
        res.primeThroughput =
            static_cast<double>(prime_chunks) * 1e6 / cycles;
    }
    const Histogram &h = m.stats().histogram("flextm.tx_conflicts");
    res.conflictMedian = h.median();
    res.conflictMax = h.max();
    res.otSpills = m.stats().counterValue("ot.spills") - spills_before;
    res.maxConsecAborts =
        m.stats().counterValue("progress.max_consec_aborts");
    const Histogram &lat = m.stats().histogram("tx.commit_latency");
    res.commitLatencyP99 = lat.percentile(99.0);
    res.commitLatencyP999 = lat.percentile(99.9);
    if (const FaultPlan *fp = m.faultPlan())
        res.faultsFired = fp->totalFired();

    if (timed_out) {
        // The committed prefix is still well-formed, but in-flight
        // transactions were unwound without their runtime cleanup;
        // replay against final memory would be meaningless.
        res.report.ok = false;
        res.report.message = "timed out after " +
                             std::to_string(res.cycles) +
                             " cycles (" + res.context + ")";
    } else if (oracle != nullptr) {
        // Phase 4: oracle replay against the final memory.
        res.report =
            oracle->validate([&m](Addr a, void *out, unsigned s) {
                m.memsys().peek(a, out, s);
            });
        if (const char *dump = env::raw("FLEXTM_DUMP_BYTE")) {
            const Addr a = env::parseU64("FLEXTM_DUMP_BYTE", dump, 0,
                                         UINT64_MAX, 0);
            std::fprintf(stderr, "history for 0x%llx:\n%s",
                         (unsigned long long)a,
                         oracle->historyForByte(a).c_str());
        }
    }
    if (opt.inspect)
        opt.inspect(m);
    return res;
}

} // anonymous namespace

ExperimentResult
runExperiment(WorkloadKind wk, RuntimeKind rk,
              const ExperimentOptions &opt)
{
    return runPhases(wk, rk, opt, nullptr);
}

ExperimentResult
runFaultedExperiment(WorkloadKind wk, RuntimeKind rk,
                     const FaultRunOptions &opt)
{
    ExperimentOptions o = opt;
    o.seed = envFaultSeed(opt.seed);
    FaultConfig &fault = o.machine.fault;
    if (!fault.anyEnabled() && fault.schedWindowCycles == 0)
        fault = FaultConfig::chaos(o.seed);
    else if (fault.seed == 0)
        fault.seed = o.seed;
    TxOracle oracle;
    oracle.setContext(recipe(o.seed, rk, wk));
    // Print the recipe up front so even a crash/assert names it.
    if (!opt.quiet)
        std::fprintf(stderr, "[fault-harness] %s\n",
                     oracle.context().c_str());
    return runPhases(wk, rk, o, &oracle);
}

} // namespace flextm
