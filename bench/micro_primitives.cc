/**
 * @file
 * Microbenchmarks (google-benchmark) of the FlexTM hardware
 * primitives: Bloom signatures, CST registers, the TMESI protocol
 * paths (hit / miss / upgrade / forwarded conflict), CAS-Commit, and
 * the overflow-table spill/refill path, plus the simulator's own
 * fiber handover.
 *
 * Each protocol benchmark also reports the *simulated* latency of
 * the operation via the `sim_cycles` counter - these are the
 * latencies the figure harnesses charge.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "core/area_model.hh"
#include "runtime/machine.hh"
#include "sim/rng.hh"
#include "sim/thread.hh"

using namespace flextm;

namespace
{

MachineConfig
benchCfg()
{
    MachineConfig cfg;
    cfg.cores = 16;
    cfg.memoryBytes = 64u << 20;
    return cfg;
}

void
BM_SignatureInsert(benchmark::State &state)
{
    Signature sig(2048, 4);
    Addr a = 0;
    for (auto _ : state) {
        sig.insert(a);
        a += lineBytes;
        if ((a & 0xfffff) == 0)
            sig.clear();
    }
}
BENCHMARK(BM_SignatureInsert);

void
BM_SignatureTest(benchmark::State &state)
{
    Signature sig(2048, 4);
    for (Addr a = 0; a < 64 * lineBytes; a += lineBytes)
        sig.insert(a);
    Addr p = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sig.mayContain(p));
        p += lineBytes;
    }
}
BENCHMARK(BM_SignatureTest);

void
BM_SignatureUnion(benchmark::State &state)
{
    Signature a(2048, 4), b(2048, 4);
    for (Addr x = 0; x < 128 * lineBytes; x += lineBytes)
        b.insert(x);
    for (auto _ : state)
        a.unionWith(b);
}
BENCHMARK(BM_SignatureUnion);

void
BM_CstCopyAndClear(benchmark::State &state)
{
    ConflictSummaryTable cst;
    for (auto _ : state) {
        cst.set(3);
        cst.set(11);
        benchmark::DoNotOptimize(cst.copyAndClear());
    }
}
BENCHMARK(BM_CstCopyAndClear);

/** Protocol path: L1 load hit. */
void
BM_ProtocolL1Hit(benchmark::State &state)
{
    Machine m(benchCfg());
    const Addr a = m.memory().allocate(lineBytes, lineBytes);
    std::uint64_t v = 0;
    Cycles now = 0;
    // Warm the line.
    now += m.memsys()
               .access(0, AccessType::Load, a, 8, &v, now)
               .latency;
    Cycles total = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        const MemResult r =
            m.memsys().access(0, AccessType::Load, a, 8, &v, now);
        now += r.latency;
        total += r.latency;
        ++n;
    }
    state.counters["sim_cycles"] =
        static_cast<double>(total) / static_cast<double>(n);
}
BENCHMARK(BM_ProtocolL1Hit);

/** Protocol path: L2 fill (cold miss to memory) then L2 hit. */
void
BM_ProtocolL1MissL2Hit(benchmark::State &state)
{
    Machine m(benchCfg());
    // Two cores ping-ponging S copies would complicate; instead,
    // stream loads over a region larger than L1 but inside L2, so
    // steady-state misses hit the L2.
    const std::size_t region = 256 * 1024;
    const Addr base = m.memory().allocate(region, lineBytes);
    std::uint64_t v = 0;
    Cycles now = 0;
    // Warm the L2.
    for (Addr a = base; a < base + region; a += lineBytes)
        now += m.memsys()
                   .access(0, AccessType::Load, a, 8, &v, now)
                   .latency;
    Cycles total = 0;
    std::uint64_t n = 0;
    Addr a = base;
    for (auto _ : state) {
        const MemResult r =
            m.memsys().access(0, AccessType::Load, a, 8, &v, now);
        now += r.latency;
        total += r.latency;
        ++n;
        a += lineBytes;
        if (a >= base + region)
            a = base;
    }
    state.counters["sim_cycles"] =
        static_cast<double>(total) / static_cast<double>(n);
}
BENCHMARK(BM_ProtocolL1MissL2Hit);

/** Protocol path: TStore acquiring TMI with a conflicting reader
 *  (forwarded TGETX, Exposed-Read response, CST updates). */
void
BM_ProtocolTgetxConflict(benchmark::State &state)
{
    Machine m(benchCfg());
    const Addr a = m.memory().allocate(lineBytes, lineBytes);
    std::uint64_t v = 0;
    Cycles now = 0;
    Cycles total = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        state.PauseTiming();
        // Reader on core 1 with the line in its read set.
        m.context(1).hardReset();
        m.context(0).hardReset();
        m.context(1).inTx = true;
        now += m.memsys()
                   .access(1, AccessType::TLoad, a, 8, &v, now)
                   .latency;
        m.context(0).inTx = true;
        state.ResumeTiming();

        const MemResult r =
            m.memsys().access(0, AccessType::TStore, a, 8, &v, now);
        now += r.latency;
        total += r.latency;
        ++n;

        state.PauseTiming();
        now += m.memsys().abortTx(0, now);
        now += m.memsys().abortTx(1, now);
        m.context(0).hardReset();
        m.context(1).hardReset();
        state.ResumeTiming();
    }
    state.counters["sim_cycles"] =
        static_cast<double>(total) / static_cast<double>(n);
}
BENCHMARK(BM_ProtocolTgetxConflict);

/** CAS-Commit with a small speculative write set. */
void
BM_CasCommit(benchmark::State &state)
{
    Machine m(benchCfg());
    const Addr tsw = m.memory().allocate(lineBytes, lineBytes);
    const Addr data = m.memory().allocate(8 * lineBytes, lineBytes);
    Cycles now = 0;
    Cycles total = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        state.PauseTiming();
        std::uint64_t one = 1;
        now += m.memsys()
                   .access(0, AccessType::Store, tsw, 4, &one, now)
                   .latency;
        m.context(0).inTx = true;
        for (unsigned i = 0; i < 4; ++i) {
            now += m.memsys()
                       .access(0, AccessType::TStore,
                               data + i * lineBytes, 8, &one, now)
                       .latency;
        }
        state.ResumeTiming();

        const CommitResult r =
            m.memsys().casCommit(0, tsw, 1, 2, now);
        now += r.latency;
        total += r.latency;
        ++n;

        state.PauseTiming();
        m.context(0).inTx = false;
        m.context(0).hardReset();
        state.ResumeTiming();
    }
    state.counters["sim_cycles"] =
        static_cast<double>(total) / static_cast<double>(n);
}
BENCHMARK(BM_CasCommit);

/** Overflow table: spill + refill round trip. */
void
BM_OverflowTableRoundTrip(benchmark::State &state)
{
    OverflowTable ot(2048, 4);
    std::uint8_t line[lineBytes] = {1, 2, 3};
    std::uint8_t out[lineBytes];
    Addr a = 1 << 20;
    for (auto _ : state) {
        ot.insert(a, a, line);
        benchmark::DoNotOptimize(ot.fetchAndInvalidate(a, out));
        a += lineBytes;
    }
}
BENCHMARK(BM_OverflowTableRoundTrip);

void
BM_AreaModel(benchmark::State &state)
{
    AreaModel model(2048);
    const auto procs = AreaModel::paperProcessors();
    for (auto _ : state) {
        for (const auto &p : procs)
            benchmark::DoNotOptimize(model.estimate(p));
    }
}
BENCHMARK(BM_AreaModel);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfSampler zipf(2048, 2.0);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

/**
 * Scheduler layer: two simulated threads alternate `advance(1);
 * yield()`, so every yield leaves the run-slice fast path and hands
 * the host CPU to the other fiber (fiber -> scheduler -> fiber).
 * `ns_per_handover` times run() alone; spawning the fibers (stack
 * allocation) stays outside the clock.
 */
void
BM_FiberHandover(benchmark::State &state)
{
    const auto rounds = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t handovers = 0;
    std::chrono::nanoseconds inRun{0};
    for (auto _ : state) {
        Scheduler s;
        for (CoreId c = 0; c < 2; ++c) {
            s.spawn(c, [&s, rounds] {
                for (std::uint64_t i = 0; i < rounds; ++i) {
                    s.advance(1);
                    s.yield();
                }
            });
        }
        const auto t0 = std::chrono::steady_clock::now();
        s.run();
        inRun += std::chrono::steady_clock::now() - t0;
        benchmark::DoNotOptimize(s.maxClock());
        handovers += 2 * rounds;
    }
    state.counters["ns_per_handover"] =
        static_cast<double>(inRun.count()) /
        static_cast<double>(handovers);
}
BENCHMARK(BM_FiberHandover)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
