/**
 * @file
 * Policy flexibility demo: FlexTM's point is that conflict
 * *detection* lives in hardware but conflict *management* lives in
 * software - the same hardware runs eager or lazy policies, chosen
 * per application.
 *
 * Two phases:
 *  1. A read-mostly phase (many readers, one occasional writer):
 *     lazy management wins because readers that commit first never
 *     stall.
 *  2. The multiprogramming mix of Figure 5e-f: LFUCache shares every
 *     core with a compute-bound prime-factorization job that runs
 *     whenever a transaction aborts.  Judged on the background job's
 *     throughput, eager management wins: it notices doomed
 *     transactions early and hands the core over (Result 2b).
 *
 * The program runs both phases under both policies and reports which
 * policy a runtime system should pick for each - the decision the
 * paper argues must NOT be baked into hardware.  It exits nonzero if
 * the two picks agree.
 *
 *   $ ./examples/policy_choice
 */

#include <cstdio>

#include "runtime/runtime_factory.hh"
#include "workloads/workload.hh"

using namespace flextm;

namespace
{

double
readMostlyPhase(RuntimeKind kind)
{
    MachineConfig cfg;
    cfg.memoryBytes = 64u << 20;
    Machine m(cfg);
    RuntimeFactory f(m, kind);
    const Addr table =
        m.memory().allocate(64 * lineBytes, lineBytes);

    constexpr unsigned threads = 8;
    std::vector<std::unique_ptr<TxThread>> hs;
    std::uint64_t commits = 0;
    for (unsigned i = 0; i < threads; ++i) {
        hs.push_back(f.makeThread(i, i));
        TxThread *t = hs.back().get();
        const bool writer = i == 0;
        m.scheduler().spawn(i, [t, table, writer] {
            for (unsigned k = 0; k < 300; ++k) {
                t->txn([&] {
                    std::uint64_t sum = 0;
                    for (unsigned j = 0; j < 8; ++j) {
                        sum += t->load<std::uint64_t>(
                            table +
                            ((j * 7 + k) % 64) * lineBytes);
                    }
                    t->work(30);
                    if (writer && k % 4 == 0) {
                        t->store<std::uint64_t>(
                            table + (k % 64) * lineBytes, sum);
                    }
                });
            }
        });
    }
    const Cycles cyc = m.run();
    for (const auto &t : hs)
        commits += t->commits();
    return static_cast<double>(commits) * 1e6 /
           static_cast<double>(cyc);
}

/** Background prime chunks per Mcycle while LFUCache runs on the
 *  same cores (Figure 5e-f). */
double
multiprogramPhase(RuntimeKind kind)
{
    ExperimentOptions o;
    o.threads = 8;
    o.totalOps = 400;
    o.machine.memoryBytes = 64u << 20;
    o.primeBackground = true;
    return runExperiment(WorkloadKind::LFUCache, kind, o).primeThroughput;
}

} // anonymous namespace

int
main()
{
    std::printf("Software-selected conflict-management policy "
                "(same hardware)\n\n");

    const double rm_eager = readMostlyPhase(RuntimeKind::FlexTmEager);
    const double rm_lazy = readMostlyPhase(RuntimeKind::FlexTmLazy);
    const double mp_eager = multiprogramPhase(RuntimeKind::FlexTmEager);
    const double mp_lazy = multiprogramPhase(RuntimeKind::FlexTmLazy);
    const bool rm_lazy_wins = rm_lazy >= rm_eager;
    const bool mp_lazy_wins = mp_lazy >= mp_eager;
    const char *rm_pick = rm_lazy_wins ? "lazy" : "eager";
    const char *mp_pick = mp_lazy_wins ? "lazy" : "eager";

    std::printf("%-24s %10s %10s   %-6s %s\n", "phase", "eager", "lazy",
                "pick", "judged on");
    std::printf("%-24s %10.1f %10.1f   %-6s %s\n", "read-mostly table",
                rm_eager, rm_lazy, rm_pick, "tx/Mcycle");
    std::printf("%-24s %10.1f %10.1f   %-6s %s\n", "LFUCache + prime job",
                mp_eager, mp_lazy, mp_pick, "prime chunks/Mcycle");

    if (rm_lazy_wins == mp_lazy_wins) {
        std::printf("\nBoth phases picked %s - expected the choice to "
                    "differ by workload\n",
                    rm_pick);
        return 1;
    }
    std::printf("\nThe choice differs by workload - which is why "
                "FlexTM keeps policy in software\n(Section 7.4: "
                "'These results underscore the importance of "
                "hardware that permits\nsuch policy specifics to be "
                "controlled in software.')\n");
    return 0;
}
