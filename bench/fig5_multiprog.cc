/**
 * @file
 * Figure 5 (e)-(f): multiprogramming - a CPU-intensive prime
 * factorization program (P) sharing the machine with a non-scalable
 * transactional workload (RandomGraph or LFUCache).  Workload
 * schedules are controlled at user level: on transaction abort the
 * thread yields to compute-intensive work (Section 7.4).
 *
 * Reported series, normalized to a 1-thread isolated run of each
 * program: P's throughput when co-scheduled with the app under
 * eager / lazy conflict management, and the app's throughput in the
 * same mixes.
 *
 * Expected shape (Result 2b): P scales better with eager-mode
 * transactions (~20% on RandomGraph) because eager detection
 * notices doomed transactions earlier and yields the CPU; the TM
 * app's own throughput is not hurt, since these workloads have
 * little concurrency anyway.
 */

#include "bench/bench_util.hh"
#include "workloads/prime.hh"

using namespace flextm;
using namespace flextm::bench;

namespace
{

/** P running alone: chunks per megacycle per thread count. */
double
primeAlone(unsigned threads)
{
    MachineConfig cfg;
    cfg.cores = 16;
    cfg.memoryBytes = 64u << 20;
    Machine m(cfg);
    RuntimeFactory f(m, RuntimeKind::Cgl);
    std::vector<std::unique_ptr<TxThread>> ts;
    std::vector<std::unique_ptr<PrimeWorker>> ws;
    const unsigned chunks_each = 400;
    for (unsigned i = 0; i < threads; ++i) {
        ts.push_back(f.makeThread(i, i));
        ws.push_back(std::make_unique<PrimeWorker>(7 + i));
        TxThread *t = ts.back().get();
        PrimeWorker *w = ws.back().get();
        m.scheduler().spawn(i, [t, w, chunks_each] {
            for (unsigned k = 0; k < chunks_each; ++k)
                w->runChunk(*t);
        });
    }
    const Cycles cyc = m.run();
    return static_cast<double>(threads) * chunks_each * 1e6 /
           static_cast<double>(cyc);
}

} // anonymous namespace

int
main()
{
    std::printf("Figure 5(e)-(f): multiprogramming with Prime (P)\n");

    const double p_base = primeAlone(1);

    for (WorkloadKind wk :
         {WorkloadKind::RandomGraph, WorkloadKind::LFUCache}) {
        const double app_base =
            avgExperiment(wk, RuntimeKind::FlexTmEager, 1).throughput;

        printHeader(std::string(workloadKindName(wk)) + " + Prime",
                    {"P;P-App(E)", "P;P-App(L)", "App(E)", "App(L)"});
        for (unsigned threads : threadSweep) {
            double pe = 0, pl = 0, ae = 0, al = 0;
            for (unsigned s = 1; s <= benchSeeds; ++s) {
                ExperimentOptions o = defaultOptions(wk, threads, s);
                o.primeBackground = true;
                const ExperimentResult e =
                    runExperiment(wk, RuntimeKind::FlexTmEager, o);
                const ExperimentResult l =
                    runExperiment(wk, RuntimeKind::FlexTmLazy, o);
                pe += e.primeThroughput / benchSeeds;
                pl += l.primeThroughput / benchSeeds;
                ae += e.throughput / benchSeeds;
                al += l.throughput / benchSeeds;
            }
            printRow(threads, {pe / p_base, pl / p_base,
                               ae / app_base, al / app_base});
        }
    }
    return 0;
}
