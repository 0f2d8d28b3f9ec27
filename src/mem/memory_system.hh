/**
 * @file
 * The FlexTM coherence and memory engine.
 *
 * This is the simulator's model of everything between the core
 * pipelines and DRAM: per-core L1 controllers (with the TMESI
 * extension, signature checking, CST updates, AOU, and the
 * overflow-table controller), the shared L2 with its directory, and
 * the interconnect latency model.
 *
 * Each processor memory operation is executed as one atomic protocol
 * transaction: the simulated-thread scheduler interleaves threads at
 * memory-operation granularity in global time order, so atomicity
 * here is equivalent to a serializable interleaving of coherence
 * transactions (which is what a real directory protocol provides via
 * per-line serialization at the home node).
 *
 * The engine implements, from Sections 3-5 of the paper:
 *  - TMESI state machine of Figure 1 (I, S, E, M, TMI, TI);
 *  - GETS / GETX / TGETX requests with Threatened / Exposed-Read /
 *    Shared / Invalidated signature-derived responses;
 *  - requestor- and responder-side CST updates;
 *  - multiple-owner directory entries, sticky sharer/owner bits, and
 *    signature-based sharer-list recreation after L2 misses;
 *  - strong isolation (non-transactional GETX/GETS aborting
 *    conflicting transactions);
 *  - alert-on-update (A bits, remote-update and capacity alerts);
 *  - CAS-Commit with CST-zero check and flash commit/abort;
 *  - overflow-table spills/refills, commit-time copy-back with
 *    NACKs while the copy-back is in flight;
 *  - calls into the OS (OsHandler: summary-signature miss checks
 *    and cores-summary sticky directory entries).
 */

#ifndef FLEXTM_MEM_MEMORY_SYSTEM_HH
#define FLEXTM_MEM_MEMORY_SYSTEM_HH

#include <memory>
#include <optional>
#include <vector>

#include "core/hw_context.hh"
#include "mem/dram/mem_backend.hh"
#include "mem/interconnect.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "mem/protocol.hh"
#include "sim/auditor.hh"
#include "sim/config.hh"
#include "sim/sim_memory.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flextm
{

class TxThread;

/**
 * The OS side of transaction virtualization (Section 5), as the
 * directory and the FlexTM runtime invoke it.  TxOs implements it and
 * installs itself (MemorySystem::setOs, FlexTmGlobals::os) for its
 * lifetime.
 */
class OsHandler
{
  public:
    /** Result of the summary-signature check at the L2. */
    struct MissCheck
    {
        Cycles latency = 0;
        /** A *suspended* transaction's write signature covers the
         *  line: the response must carry Threatened semantics (the
         *  requestor may not cache a stable copy that the suspended
         *  transaction's commit would silently stale-out). */
        bool threatened = false;
    };

    /** Summary-signature conflict trap, taken on every L1 miss that
     *  reaches the L2. */
    virtual MissCheck summaryMiss(CoreId requestor, ReqType t, Addr addr,
                                  Cycles now) = 0;

    /** Keep @p core in directory lists despite a dropped line
     *  (Cores-Summary + summary-signature match). */
    virtual bool sticky(CoreId core, Addr addr) const = 0;

    /** Abort the suspended transactions that last ran on @p core
     *  (the Conflict Management Table), charging @p self. */
    virtual void abortSuspendedOn(TxThread &self, CoreId core) = 0;

  protected:
    ~OsHandler() = default;
};

/** Result of a CAS protocol operation. */
struct CasOutcome
{
    bool success = false;
    std::uint64_t oldValue = 0;
    Cycles latency = 0;
};

/** Result of a CAS-Commit instruction. */
struct CommitResult
{
    CommitOutcome outcome = CommitOutcome::FailedAborted;
    Cycles latency = 0;
};

/** The machine's memory hierarchy and protocol engine. */
class MemorySystem
{
  public:
    MemorySystem(const MachineConfig &cfg, SimMemory &mem,
                 std::vector<HwContext> &contexts, StatRegistry &stats);

    /**
     * Execute one processor memory operation.
     *
     * @param core  issuing core
     * @param type  Load / Store / TLoad / TStore
     * @param addr  simulated address (must not cross a line)
     * @param size  1..8 bytes
     * @param buf   destination (loads) or source (stores)
     * @param now   issuing core's current cycle
     */
    MemResult access(CoreId core, AccessType type, Addr addr,
                     unsigned size, void *buf, Cycles now);

    /** Atomic compare-and-swap (4- or 8-byte). */
    CasOutcome cas(CoreId core, Addr addr, std::uint64_t expected,
                   std::uint64_t desired, unsigned size, Cycles now);

    /**
     * CAS-Commit (Sections 3.3, 3.6): fails immediately when the
     * local W-R or W-W CST is non-zero (speculative state is kept);
     * otherwise CASes the TSW and flash-commits (success) or
     * flash-aborts (TSW was already changed - we lost a race with an
     * enemy's abort).
     */
    CommitResult casCommit(CoreId core, Addr tsw_addr,
                           std::uint32_t expected, std::uint32_t desired,
                           Cycles now, bool check_csts = true);

    /**
     * The abort instruction: flash-abort all speculative state (TMI
     * and TI to I) and discard the overflow table's contents.
     * Signatures/CSTs are software-managed and cleared by the caller.
     */
    Cycles abortTx(CoreId core, Cycles now);

    /** ALoad: fetch the line (cacheable) and set its A bit. */
    Cycles aload(CoreId core, Addr addr, Cycles now);

    /** Remove the AOU mark, if present. */
    void arelease(CoreId core, Addr addr);

    /**
     * Context-switch support (Section 5): spill all TMI lines to the
     * overflow table and drop TI lines, so every later conflicting
     * access by other cores misses in this cache and reaches the
     * directory (where the summary signatures are checked).
     */
    Cycles flushTransactionalState(CoreId core, Cycles now);

    /** The OS consulted on L2 misses and directory pruning (null:
     *  none installed). */
    void setOs(OsHandler *os) { os_ = os; }

    /**
     * Debug/test backdoor: read the current coherent value of @p addr
     * ignoring speculative (TMI) state, with no timing effects.
     */
    void peek(Addr addr, void *out, unsigned size);

    L1Cache &l1(CoreId core) { return *l1s_[core]; }
    L2Cache &l2() { return l2_; }
    HwContext &context(CoreId core) { return contexts_[core]; }
    const Interconnect &interconnect() const { return net_; }
    const MachineConfig &config() const { return cfg_; }
    StatRegistry &stats() { return stats_; }

    /** Latency of one OT controller access (spill/refill/copy-back
     *  per line).  Exposed for tests and the overflow ablation. */
    Cycles otLatency() const { return otLatency_; }

    /** Attach a fault plan (forced TMI evictions on access). */
    void setFaultPlan(FaultPlan *p) { fault_ = p; }

    /** The main-memory timing backend behind the L2 (never null). */
    MemBackend &memBackend() { return *membe_; }

    /** The cross-layer state auditor; null when MachineConfig::auditor
     *  is Off (the protocol engine then pays only a pointer test per
     *  operation). */
    StateAuditor *auditor() { return auditor_.get(); }

  private:
    /** Aggregated effects of forwarding one request to all targets. */
    struct ForwardSummary
    {
        std::uint64_t threatened = 0;
        std::uint64_t exposedRead = 0;
    };

    /** Everything dirTransaction() reports back to access(). */
    struct DirOutcome
    {
        Cycles latency = 0;
        ForwardSummary fwd;
        L2Line *line = nullptr;
        /** Threatened by a suspended transaction (summary hit). */
        bool summaryThreatened = false;
    };

    const MachineConfig cfg_;
    SimMemory &mem_;
    std::vector<HwContext> &contexts_;
    StatRegistry &stats_;

    /** Hot-path counters, interned once at construction so a bump is
     *  a plain increment (no string lookup per simulated access). */
    struct HotCounters
    {
        explicit HotCounters(StatRegistry &s);
        Counter &l1Hits, &l1Misses, &l1Upgrades, &l1Writebacks;
        Counter &l1SilentEvictions, &l1UncachedLoads;
        Counter &l2Misses, &l2Evictions;
        Counter &dirRequests, &dirForwards, &dirFlushes;
        Counter &otAllocations, &otSpills, &otRefills, &otNacks;
        Counter &otFalsePositives, &otCommitCopybacks;
        Counter &commitSuccess, &commitFailedCsts, &commitFailedAborted;
        Counter &abortFlash, &siAborts, &memCasOps;
        Counter &pdiTmiInstalls, &pdiTmiFromM, &pdiTiInstalls;
        Counter &pdiTiUpgradeRefreshes, &aouTiAloads;
        Counter &faultTmiEvictions, &osCtxswitchSpills;
    };
    HotCounters ctr_;

    Interconnect net_;
    std::vector<std::unique_ptr<L1Cache>> l1s_;
    L2Cache l2_;
    std::unique_ptr<MemBackend> membe_;

    /** Post-commit OT copy-back windows, per core. */
    struct RetiredOt
    {
        std::optional<Signature> osig;
        Cycles busyUntil = 0;
    };
    std::vector<RetiredOt> retiredOt_;
    /** max(busyUntil) over retiredOt_: lets otNackDelay() skip the
     *  per-core scan entirely once every copy-back has drained. */
    Cycles retiredBusyUntil_ = 0;

    OsHandler *os_ = nullptr;
    Cycles otLatency_;
    FaultPlan *fault_ = nullptr;
    std::unique_ptr<StateAuditor> auditor_;

    /** @name Auditor-wrapped protocol-operation bodies
     *  The public entry points log one trace-ring event, run the
     *  body, and close with a transition checkpoint. */
    /// @{
    MemResult accessImpl(CoreId core, AccessType type, Addr addr,
                         unsigned size, void *buf, Cycles now);
    CasOutcome casImpl(CoreId core, Addr addr, std::uint64_t expected,
                       std::uint64_t desired, unsigned size, Cycles now);
    CommitResult casCommitImpl(CoreId core, Addr tsw_addr,
                               std::uint32_t expected,
                               std::uint32_t desired, Cycles now,
                               bool check_csts);
    Cycles abortTxImpl(CoreId core, Cycles now);
    Cycles aloadImpl(CoreId core, Addr addr, Cycles now);
    Cycles flushTransactionalStateImpl(CoreId core, Cycles now);
    /// @}

    /** Latency accumulated by eviction handlers during the current
     *  operation (writebacks, OT spills); folded into the result. */
    Cycles pendingEvictCost_ = 0;

    /**
     * Run a full directory transaction for @p req_type on @p addr:
     * L2 lookup/fill, forwards with signature checks, responder and
     * requestor CST updates, directory update.  The requestor's L1
     * line installation is left to the caller.
     */
    DirOutcome dirTransaction(CoreId core, ReqType req_type, Addr addr,
                              Cycles now);

    /** Handle one forwarded request at responder @p k. */
    RemoteResp forwardOne(CoreId k, CoreId requestor, ReqType t,
                          Addr addr, L2Line &l2line, bool &retained_tmi,
                          bool &retained_shared);

    /** Allocate an L1 frame on @p core, evicting through
     *  evictL1Line. */
    L1Line &allocL1(CoreId core, Addr addr, Cycles now);

    /** Eviction handler for L1 allocate(): writeback / OT spill. */
    void evictL1Line(CoreId core, L1Line &line, Cycles now);

    /** Eviction handler for L2 allocate(): recall + writeback. */
    void evictL2Line(L2Line &line, Cycles now);

    /** Fetch or fill the L2 line for @p addr; recreates the sharer
     *  list from L1 signatures after a fill (sticky recreation). */
    L2Line &l2FillOrFind(Addr addr, Cycles now, Cycles &latency);

    /** Spill one TMI line to the core's overflow table. */
    void spillToOt(CoreId core, L1Line &line);

    /** Extra delay when @p addr hits a committed OT still copying
     *  back (NACK-until-copy-back-completes; Section 4.1). */
    Cycles otNackDelay(Addr addr, Cycles now) const;

    void applyToLine(L1Line &line, AccessType type, Addr addr,
                     unsigned size, void *buf);
};

} // namespace flextm

#endif // FLEXTM_MEM_MEMORY_SYSTEM_HH
