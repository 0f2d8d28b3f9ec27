/**
 * @file
 * Pluggable main-memory timing backend.
 *
 * Everything behind the shared L2 is abstracted as a MemBackend: the
 * protocol engine calls read() on every L2 fill (the l2FillOrFind
 * miss path) and write() on every dirty-L2 eviction writeback, and
 * folds the returned cycles into the operation's latency.  Data
 * movement is not the backend's business - the functional image
 * (SimMemory) is read/written by the caller; a backend only prices
 * the traffic.
 *
 * Two implementations:
 *  - FixedBackend: the paper's Table 3a abstraction - a flat
 *    250-cycle latency per fill and free (posted, uncontended)
 *    writebacks.
 *    This is the default and the model every determinism golden and
 *    BENCH_sim baseline is recorded against.
 *  - DramBackend (dram_backend.hh): the banked DRAM model.
 *
 * Backends are deterministic state machines over (address, arrival
 * cycle) call sequences: no wall clock, no host-order dependence, and
 * zero cost while idle (state advances only when a request arrives).
 */

#ifndef FLEXTM_MEM_DRAM_MEM_BACKEND_HH
#define FLEXTM_MEM_DRAM_MEM_BACKEND_HH

#include <memory>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flextm
{

/** Timing model for main memory behind the L2. */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    /** Price one line fill for @p line arriving at @p now; returns
     *  the cycles until the critical word is back at the L2. */
    virtual Cycles read(Addr line, Cycles now) = 0;

    /**
     * Price one dirty-line writeback posted at @p now.  Writebacks
     * are posted: the returned cycles are only the *stall* the
     * evicting requestor sees (nonzero when the backend's write
     * queue is full), while the transfer itself occupies backend
     * resources and surfaces as contention for later reads.
     */
    virtual Cycles write(Addr line, Cycles now) = 0;

    virtual const char *name() const = 0;
};

/** The legacy flat-latency model (MemBackendKind::Fixed). */
class FixedBackend final : public MemBackend
{
  public:
    /** Main memory access latency (Table 3a: 250 cycles). */
    static constexpr Cycles memLatency = 250;

    Cycles read(Addr, Cycles) override { return memLatency; }
    /** Free: the legacy engine never charged off-chip writebacks,
     *  and the determinism goldens pin that behaviour. */
    Cycles write(Addr, Cycles) override { return 0; }
    const char *name() const override { return "fixed"; }
};

/**
 * Validate the DRAM knobs in one place; fatal()s on a config the
 * model cannot run (zero channels/ranks/banks, a row size that is
 * not a power of two of at least one line, a zero in-flight window
 * or write-queue depth).
 */
void validateDramConfig(const DramConfig &cfg);

/** FLEXTM_MEM_BACKEND=fixed|dram override (Machine applies it). */
MemBackendKind envMemBackend(MemBackendKind fallback);

/** Build the configured backend (validates DRAM configs). */
std::unique_ptr<MemBackend> makeMemBackend(const MachineConfig &cfg,
                                           StatRegistry &stats);

} // namespace flextm

#endif // FLEXTM_MEM_DRAM_MEM_BACKEND_HH
