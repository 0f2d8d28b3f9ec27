#include "workloads/workload.hh"

#include "sim/logging.hh"
#include "workloads/adversarial.hh"
#include "workloads/delaunay.hh"
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

struct RunOutput
{
    ExperimentResult result;
    std::uint64_t primeChunks = 0;
    Cycles cycles = 0;
};

RunOutput
runCommon(WorkloadKind wk, RuntimeKind rk, const ExperimentOptions &opt)
{
    sim_assert(opt.threads >= 1);
    MachineConfig cfg = opt.machine;
    cfg.seed = opt.seed;
    if (cfg.cores < opt.threads)
        cfg.cores = opt.threads;

    Machine m(cfg);
    RuntimeFactory f(m, rk);
    std::unique_ptr<Workload> wl = makeWorkload(wk);

    // Phase 1: single-threaded warm-up (Section 7.2).
    {
        auto t0 = f.makeThread(0, 0);
        Workload *w = wl.get();
        TxThread *tp = t0.get();
        m.scheduler().spawn(0, [w, tp] { w->setup(*tp); });
        m.run();
    }
    const Cycles setup_end = m.scheduler().maxClock();
    m.stats().histogram("flextm.tx_conflicts").clear();
    m.stats().histogram("tx.commit_latency").clear();
    const std::uint64_t spills_before =
        m.stats().counterValue("ot.spills");

    // Phase 2: timed parallel run.
    std::vector<std::unique_ptr<TxThread>> ts;
    std::vector<std::unique_ptr<PrimeWorker>> primes;
    std::uint64_t issued = 0;
    for (unsigned i = 0; i < opt.threads; ++i) {
        ts.push_back(f.makeThread(1 + i, i));
        TxThread *t = ts.back().get();
        if (opt.primeBackground) {
            primes.push_back(
                std::make_unique<PrimeWorker>(opt.seed * 31 + i));
            t->setOnAbortYield(primes.back().get());
        }
        Workload *w = wl.get();
        const unsigned total = opt.totalOps;
        const ThreadId stid =
            m.scheduler().spawn(i, [t, w, &issued, total] {
                while (issued < total) {
                    ++issued;
                    w->runOne(*t);
                }
            });
        m.scheduler().thread(stid).syncClock(setup_end);
    }
    m.run();

    RunOutput out;
    out.cycles = m.scheduler().maxClock() - setup_end;
    ExperimentResult &r = out.result;
    r.cycles = out.cycles;
    for (const auto &t : ts) {
        r.commits += t->commits();
        r.aborts += t->aborts();
    }
    r.throughput = out.cycles == 0
                       ? 0.0
                       : static_cast<double>(r.commits) * 1e6 /
                             static_cast<double>(out.cycles);
    const Histogram &h = m.stats().histogram("flextm.tx_conflicts");
    r.conflictMedian = h.median();
    r.conflictMax = h.max();
    r.otSpills = m.stats().counterValue("ot.spills") - spills_before;
    for (const auto &pw : primes)
        out.primeChunks += pw->chunks();
    if (opt.inspect)
        opt.inspect(m);
    return out;
}

} // anonymous namespace

ExperimentResult
runExperiment(WorkloadKind wk, RuntimeKind rk,
              const ExperimentOptions &opt)
{
    return runCommon(wk, rk, opt).result;
}

MixedResult
runMixedExperiment(WorkloadKind wk, RuntimeKind rk,
                   const ExperimentOptions &opt)
{
    ExperimentOptions o = opt;
    o.primeBackground = true;
    RunOutput out = runCommon(wk, rk, o);
    MixedResult mr;
    mr.tm = out.result;
    mr.primeThroughput =
        out.cycles == 0 ? 0.0
                        : static_cast<double>(out.primeChunks) * 1e6 /
                              static_cast<double>(out.cycles);
    return mr;
}

} // namespace flextm
