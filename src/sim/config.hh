/**
 * @file
 * Machine configuration (defaults follow Table 3a of the paper:
 * 16-way CMP, private 32 KB 2-way L1s, shared 8 MB 8-way L2, 64-byte
 * blocks, 2 Kbit signatures).  Only what some run varies is a field
 * here.  The Table 3a values no run varies are constants beside
 * their one reader: the 1-cycle L1 and 20-cycle L2 hit latencies
 * (MemorySystem), the 250-cycle memory latency (FixedBackend), the
 * 4-ary tree's 1-cycle links (Interconnect), and the signatures' 4
 * hash functions (Signature's default).
 */

#ifndef FLEXTM_SIM_CONFIG_HH
#define FLEXTM_SIM_CONFIG_HH

#include <cstddef>

#include "sim/fault.hh"
#include "sim/types.hh"

namespace flextm
{

/**
 * Forward-progress policy knobs (conflict management runs in
 * software, so all of these are runtime policy, not hardware):
 * starvation escalation, the serial-irrevocable fallback, and the
 * livelock watchdog, plus the contention-manager tunables that used
 * to be hard-coded.
 */
struct ProgressConfig
{
    /** Upper bound on Polka back-off intervals before the attacker
     *  aborts the enemy. */
    unsigned cmMaxPatience = 6;

    /** Cap on the exponential retry back-off shift between
     *  transaction attempts (was hard-coded to 10 in TxThread). */
    unsigned backoffShiftCap = 10;

    /**
     * Serial-irrevocable fallback: after this many consecutive
     * aborts of one transaction, the thread acquires the global
     * irrevocability token and runs to completion while competitors
     * stall at begin or self-abort against it (0 disables the
     * abort-count trigger; watchdog escalation still works).
     */
    unsigned escalationThreshold = 16;

    /**
     * Starvation escalation: Polka priority (karma) carried across
     * retries - each consecutive abort adds this much karma to the
     * next attempt, so a repeatedly victimized transaction
     * eventually out-prioritizes its killers (0 disables).
     */
    std::uint64_t karmaAbortBoost = 64;

    /**
     * Livelock watchdog: if no transaction commits system-wide for
     * this many cycles while at least one transaction is active,
     * force-escalate the oldest active transaction to irrevocable
     * and record the trip (0 disables).
     */
    Cycles watchdogCycles = 5'000'000;
};

/**
 * Conflict-management policies (Section 3.6 / 7.2).  FlexTM leaves
 * conflict management to software, so the policy is machine-wide
 * runtime configuration, not hardware: every runtime routes its
 * arbitration decisions through the policy object the Machine owns
 * (src/runtime/conflict_manager.hh).  The paper evaluates Polka
 * throughout and calls out the policy-interplay study as future
 * work; the suite here is that study's substrate.
 */
enum class CmPolicy : unsigned
{
    /** Back off proportionally to the karma deficit, then attack
     *  (Scherer & Scott; the default, and the one all determinism
     *  goldens are recorded against). */
    Polka = 0,
    Aggressive,  //!< always abort the enemy immediately
    Timid,       //!< always abort self on conflict
    /** Oldest-transaction-wins on the first-attempt begin stamp:
     *  a total priority order, so deadlock-free by construction and
     *  starvation-free (a victim keeps its stamp across retries). */
    TimestampGreedy,
    /** Seeded exponential back-off with requester-abort only: no
     *  enemy is ever killed; progress rests on the escalation
     *  token. */
    RandomizedBackoff,
    /** Escalate to the serial-irrevocability token immediately on a
     *  repeat conflict (first conflict resolves like Polka). */
    SerialIrrevocableFirst,
};

/** Which timing model sits behind the L2 (src/mem/dram/). */
enum class MemBackendKind : unsigned
{
    /** Flat 250-cycle latency per fill, free writebacks (the
     *  paper's Table 3a abstraction; the default, and the one all
     *  determinism goldens are recorded against). */
    Fixed = 0,
    /** Banked DRAM model: address-mapped channels/ranks/banks, per-
     *  bank row-buffer state machines, an FR-FCFS command queue with
     *  a bounded in-flight window, and periodic refresh. */
    Dram,
};

/**
 * DRAM device timing, in *CPU* cycles (the simulator has a single
 * clock domain; these defaults approximate DDR4-class parts behind a
 * 4:1 core:bus clock ratio, scaled so an idle closed-bank access
 * lands near the flat model's 250-cycle cost).
 */
struct DramTiming
{
    Cycles tCtrl = 20;    //!< controller pipeline + channel arbitration
    Cycles tRCD = 60;     //!< ACT -> RD/WR
    Cycles tRP = 60;      //!< PRE -> ACT
    Cycles tRAS = 140;    //!< ACT -> PRE minimum
    Cycles tCL = 60;      //!< RD -> first data beat
    Cycles tCWL = 40;     //!< WR -> first data beat
    Cycles tBURST = 16;   //!< data-bus occupancy of one line transfer
    Cycles tWR = 60;      //!< write recovery (last data beat -> PRE)
    Cycles tRTP = 30;     //!< RD -> PRE
    Cycles tCCD = 16;     //!< column-command spacing within a bank
    Cycles tRFC = 1400;   //!< refresh duration (banks blocked)
    Cycles tREFI = 31200; //!< refresh interval per channel (0 = off)
};

/** Geometry and policy of the banked DRAM backend. */
struct DramConfig
{
    unsigned channels = 2;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 8;
    /** Row-buffer size per bank; must be a power of two and at least
     *  one cache line. */
    std::size_t rowBytes = 2048;
    /** Bounded in-flight window per channel: at most this many
     *  transactions overlap; further misses queue behind the oldest
     *  (the "concurrent misses are not free" knob). */
    unsigned window = 8;
    /** Posted-writeback queue depth per channel; a full queue stalls
     *  the evicting requestor until the oldest write drains. */
    unsigned writeQueueDepth = 8;
    /** FR-FCFS arbitration (reads bypass queued writes; queued
     *  row-hit writes drain first).  false = strict FCFS: every older
     *  posted write drains before a read issues. */
    bool frfcfs = true;
    DramTiming timing;
};

/**
 * Cross-layer state-auditor checkpoint granularity (see
 * src/sim/auditor.hh).  Each level includes everything the cheaper
 * levels check; the knob exists because a full-machine sweep at every
 * protocol transition is affordable in targeted debug runs but not in
 * the big sweeps.
 */
enum class AuditLevel : unsigned
{
    Off = 0,        //!< auditor not constructed (zero overhead)
    TxnBoundary,    //!< sweep at every commit/abort and OS switch
    Transition,     //!< + sweep after every protocol transaction
};

/** Static description of the simulated CMP. */
struct MachineConfig
{
    /** Number of processor cores. */
    unsigned cores = 16;

    /** Private L1 data cache geometry. */
    std::size_t l1Bytes = 32 * 1024;
    unsigned l1Ways = 2;
    /** Victim buffer entries appended to the L1 (Table 3a: 32). */
    unsigned victimEntries = 32;

    /** Shared L2 geometry. */
    std::size_t l2Bytes = 8 * 1024 * 1024;
    unsigned l2Ways = 8;

    /** Which main-memory timing model backs the L2 miss path and
     *  dirty-L2 writebacks (the FLEXTM_MEM_BACKEND environment
     *  variable - "fixed" / "dram" - can override). */
    MemBackendKind memBackend = MemBackendKind::Fixed;

    /** Banked-DRAM backend geometry/timing (Dram mode only). */
    DramConfig dram;

    /** @name Bounded best-effort HTM (the HyTM runtime)
     *
     * Unlike FlexTM proper, the bounded-HTM mode tracks its read and
     * write sets against small fixed per-core limits and never
     * virtualizes: any capacity overflow, context switch, or
     * unresolved conflict is a capacity/spurious abort, and after
     * htmRetryLimit consecutive aborts the transaction falls back to
     * the software (TL2) slow path.  Validated by validateHtmConfig
     * when a HyTM runtime is built; ignored by every other runtime. */
    /// @{
    /** Read-set capacity in cache lines (one line is consumed by the
     *  fallback-lock subscription). */
    unsigned htmReadSetLines = 64;
    /** Write-set capacity in cache lines; must be retainable by the
     *  L1 (ways + victim entries) since TMI lines may not spill. */
    unsigned htmWriteSetLines = 16;
    /** Hardware attempts before the STM fallback engages. */
    unsigned htmRetryLimit = 4;
    /// @}

    /** Bloom signature width in bits (Table 3a: 2 Kbit). */
    unsigned signatureBits = 2048;

    /** Seed for all deterministic randomness in the machine. */
    std::uint64_t seed = 1;

    /** True when the unbounded-victim-buffer ablation is active:
     *  speculative (TMI) lines are never evicted, so the overflow
     *  table is never engaged (Section 7.3 overflow study). */
    bool unboundedVictimBuffer = false;

    /** Simulated memory image size. */
    std::size_t memoryBytes = 256u << 20;

    /** Fault-injection plan (all off by default). */
    FaultConfig fault;

    /** Cross-layer invariant auditor (off by default; the
     *  FLEXTM_AUDITOR environment variable can override). */
    AuditLevel auditor = AuditLevel::Off;

    /** Forward-progress policy (escalation on by default). */
    ProgressConfig progress;

    /** Machine-wide contention-management policy. */
    CmPolicy cmPolicy = CmPolicy::Polka;
};

} // namespace flextm

#endif // FLEXTM_SIM_CONFIG_HH
