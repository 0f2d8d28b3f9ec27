#include "workloads/fault_harness.hh"

#include <cstdio>
#include <cstdlib>

#include "os/tx_os.hh"
#include "sim/env_util.hh"
#include "sim/logging.hh"

namespace flextm
{

FaultRunResult
runFaultedExperiment(WorkloadKind wk, RuntimeKind rk,
                     const FaultRunOptions &opt)
{
    sim_assert(opt.threads >= 1);
    const std::uint64_t seed = envFaultSeed(opt.seed);

    MachineConfig cfg = opt.machine;
    cfg.seed = seed;
    if (cfg.cores < opt.threads)
        cfg.cores = opt.threads;
    cfg.fault = opt.fault;
    if (!cfg.fault.anyEnabled() && cfg.fault.schedWindowCycles == 0)
        cfg.fault = FaultConfig::chaos(seed);
    else if (cfg.fault.seed == 0)
        cfg.fault.seed = seed;

    FaultRunResult res;
    res.seed = seed;
    res.context = "seed=" + std::to_string(seed) +
                  " runtime=" + runtimeKindName(rk) +
                  " workload=" + workloadKindName(wk);
    // Print the recipe up front so even a crash/assert names it.
    if (!opt.quiet)
        std::fprintf(stderr, "[fault-harness] %s\n", res.context.c_str());

    Machine m(cfg);
    TxOracle oracle;
    oracle.setContext(res.context);
    m.setOracle(&oracle);

    RuntimeFactory f(m, rk);
    FlexTmGlobals *g = f.flexGlobals();
    if (g)
        g->chaosSkipWrAbort = opt.flexSkipWrAbort;
    // FlexTM threads also take forced context switches through TxOs.
    std::unique_ptr<TxOs> os;
    if (g && m.faultPlan() != nullptr)
        os = std::make_unique<TxOs>(m, *g);

    std::unique_ptr<Workload> wl = makeWorkload(wk);

    // Create every thread before the workload allocates anything:
    // per-thread runtime metadata (status words, clone arenas) is
    // written without transactional bookkeeping, so it must never
    // land on workload lines recycled through the allocator - the
    // oracle's replay still tracks those bytes.
    std::vector<std::unique_ptr<TxThread>> ts;
    for (unsigned i = 0; i < opt.threads; ++i) {
        ts.push_back(f.makeThread(1 + i, i));
        if (os) {
            if (auto *ft = dynamic_cast<FlexTmThread *>(ts.back().get()))
                os->installFaultHook(*ft, *m.faultPlan());
        }
    }

    // Phase 1: single-threaded setup (recorded by the oracle too -
    // the warm-up transactions are part of the checked history).
    {
        auto t0 = f.makeThread(0, 0);
        Workload *w = wl.get();
        TxThread *tp = t0.get();
        m.scheduler().spawn(0, [w, tp] { w->setup(*tp); });
        m.run();
    }
    const Cycles setup_end = m.scheduler().maxClock();
    // Latency tails are scored over the parallel phase only - the
    // single-threaded warm-up commits would dilute them.
    m.stats().histogram("tx.commit_latency").clear();

    // Phase 2: parallel run under injection.  With a maxCycles
    // bound, every thread unwinds via DeadlineExceeded (thrown out
    // of TxThread::charge) once the bound passes - the fibers exit
    // cleanly instead of being abandoned mid-transaction.
    if (opt.maxCycles != 0)
        m.setDeadline(setup_end + opt.maxCycles);
    std::uint64_t issued = 0;
    bool timed_out = false;
    for (unsigned i = 0; i < opt.threads; ++i) {
        TxThread *t = ts[i].get();
        Workload *w = wl.get();
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
        Workload *w = wl.get();
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
    res.maxConsecAborts =
        m.stats().counterValue("progress.max_consec_aborts");
    const Histogram &lat = m.stats().histogram("tx.commit_latency");
    res.commitLatencyP99 = lat.percentile(99.0);
    res.commitLatencyP999 = lat.percentile(99.9);
    if (const FaultPlan *fp = m.faultPlan())
        res.faultsFired = fp->totalFired();
    res.otSpills = m.stats().counterValue("ot.spills");

    if (timed_out) {
        // The committed prefix is still well-formed, but in-flight
        // transactions were unwound without their runtime cleanup;
        // replay against final memory would be meaningless.
        res.report.ok = false;
        res.report.message = "timed out after " +
                             std::to_string(res.cycles) +
                             " cycles (" + res.context + ")";
    } else {
        res.report =
            oracle.validate([&m](Addr a, void *out, unsigned s) {
                m.memsys().peek(a, out, s);
            });
        if (const char *dump = env::raw("FLEXTM_DUMP_BYTE")) {
            const Addr a = env::parseU64("FLEXTM_DUMP_BYTE", dump, 0,
                                         UINT64_MAX, 0);
            std::fprintf(stderr, "history for 0x%llx:\n%s",
                         (unsigned long long)a,
                         oracle.historyForByte(a).c_str());
        }
    }
    if (opt.inspect)
        opt.inspect(m);
    return res;
}

} // namespace flextm
