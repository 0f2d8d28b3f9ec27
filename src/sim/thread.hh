/**
 * @file
 * Cooperative simulated threads.
 *
 * Each simulated hardware/software thread is a fiber (a stackful
 * coroutine) with its own stack and its own cycle clock.  On x86-64 a
 * fiber switch is a few instructions of SysV assembly in thread.cc;
 * other targets fall back to ucontext at compile time.  A single host
 * thread runs the whole simulation, so execution is deterministic:
 * the scheduler always resumes the runnable thread with the smallest
 * clock, and threads yield after every memory operation, which
 * serializes all protocol actions in global simulated-time order.
 *
 * Dispatch is event-driven: runnable threads (minus the one currently
 * on a fiber) live in an indexed binary min-heap keyed by
 * (clock, thread id), so picking the next thread is O(log runnable)
 * instead of a scan over every thread the machine ever spawned, and a
 * run-slice fast path lets the dispatched thread keep executing
 * through consecutive yields while it remains the unique minimum (or
 * sole runnable) thread.
 */

#ifndef FLEXTM_SIM_THREAD_HH
#define FLEXTM_SIM_THREAD_HH

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace flextm
{

class FaultPlan;
class ProgressManager;
class Scheduler;

/** A switched-out execution context.  On x86-64 it is the saved stack
 *  pointer: the callee-saved registers and FP control words sit on the
 *  context's own stack (see thread.cc). */
#if defined(__x86_64__)
using FiberContext = void *;
#else
using FiberContext = ucontext_t;
#endif

/** One simulated thread of execution. */
class SimThread
{
  public:
    enum class State
    {
        Runnable,  //!< may be scheduled
        Blocked,   //!< waiting on a barrier / OS deschedule
        Finished   //!< body returned
    };

    SimThread(Scheduler &sched, ThreadId id, CoreId core,
              std::function<void()> body);
    ~SimThread();

    ThreadId id() const { return id_; }
    CoreId core() const { return core_; }

    State state() const { return state_; }
    Cycles clock() const { return clock_; }
    void advance(Cycles n) { clock_ += n; }
    /** Move the clock forward to at least @p t (used when resuming).
     *  Re-sifts the ready heap when the thread is parked in it. */
    void syncClock(Cycles t);

  private:
    friend class Scheduler;

    static void trampoline();

    /** Not currently parked in the scheduler's ready heap. */
    static constexpr std::size_t kNoHeapSlot =
        std::numeric_limits<std::size_t>::max();

    Scheduler &sched_;
    ThreadId id_;
    CoreId core_;
    State state_ = State::Runnable;
    Cycles clock_ = 0;
    std::function<void()> body_;
    FiberContext ctx_{};
    /** Fiber stack of Scheduler::kStackBytes, deliberately *not*
     *  zero-initialized: a 512 KiB memset per spawned thread
     *  dominates machine construction in big sweeps, and a fiber only
     *  reads stack it wrote (its first switch frame is written at
     *  spawn). */
    std::unique_ptr<std::uint8_t[]> stack_;
    /** Index of this thread in Scheduler::ready_ (kNoHeapSlot when
     *  running, blocked, or finished). */
    std::size_t heapSlot_ = kNoHeapSlot;
    /** ASan fake-stack handle while this fiber is switched out
     *  (sanitizer fiber annotations; unused in plain builds). */
    void *asanFakeStack_ = nullptr;
    /** TSan's context for this fiber (unused without TSan). */
    void *tsanFiber_ = nullptr;
};

/**
 * Min-clock cooperative scheduler.  Owns all simulated threads of one
 * machine.  run() executes until every thread has finished.
 */
class Scheduler
{
  public:
    Scheduler() = default;
    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Fiber stack per simulated thread: deep runtime and oracle
     *  frames plus sanitizer redzones, in whole pages. */
    static constexpr std::size_t kStackBytes = 512 * 1024;

    /** Create a thread pinned to @p core; runs on the next run(). */
    ThreadId spawn(CoreId core, std::function<void()> body);

    /** Run until all threads have finished. */
    void run();

    /** Called from inside a thread: give up the host CPU. */
    void yield();

    /** Called from inside a thread: block until woken. */
    void block();

    /** Make a blocked thread runnable again (from any context). */
    void wake(ThreadId tid);

    /** The thread currently executing (valid only inside run()). */
    SimThread &current();

    /** Charge cycles to the current thread. */
    void advance(Cycles n);

    /** Current thread's clock. */
    Cycles now() const;

    SimThread &thread(ThreadId tid);

    /** Largest clock over all threads (machine finish time).
     *  Maintained incrementally at yield/block/exit/syncClock
     *  boundaries - O(1), never a scan. */
    Cycles maxClock() const { return maxSeen_; }

    /**
     * Attach a fault plan: when its schedule window is nonzero,
     * dispatch chooses uniformly among runnable threads within that
     * many cycles of the minimum clock instead of always taking the
     * smallest.  Timing perturbs; protocol atomicity does not
     * (threads still only switch at their yield points).  The plan
     * must already be configured: the window width is latched here.
     */
    void setFaultPlan(FaultPlan *p);

    /**
     * Attach the livelock watchdog, polled with the dispatched
     * thread's clock on every dispatch.  Same-thread run slices
     * amortize the poll to every kWatchdogSlice continues.
     */
    void setWatchdog(ProgressManager *w) { watchdog_ = w; }

  private:
    friend class SimThread;

    /** Self-continue yields between watchdog polls on the run-slice
     *  fast path.  Slices advance a handful of cycles per yield while
     *  watchdog windows are millions, so the poll density stays far
     *  denser than the watchdog can resolve. */
    static constexpr unsigned kWatchdogSlice = 64;

    std::vector<std::unique_ptr<SimThread>> threads_;
    SimThread *current_ = nullptr;
    /** Thread already picked by yield() when it turned out not to be
     *  the yielder: run() dispatches it instead of re-picking, so the
     *  pick (and any schedule-perturbation RNG draw inside it) runs
     *  exactly once per dispatch. */
    SimThread *pending_ = nullptr;
    FaultPlan *fault_ = nullptr;
    /** Latched fault schedule window (0 = strict min-clock order). */
    Cycles window_ = 0;
    ProgressManager *watchdog_ = nullptr;
    /** Binary min-heap over (clock, id) of the Runnable threads that
     *  are not currently on a fiber (the dispatch source). */
    std::vector<SimThread *> ready_;
    /** Reusable schedule-window candidate buffer (no per-dispatch
     *  allocation). */
    std::vector<SimThread *> windowBuf_;
    /** Incrementally maintained maxClock(). */
    Cycles maxSeen_ = 0;
    unsigned sliceLeft_ = kWatchdogSlice;
    /** The context run() dispatches from, saved while a fiber runs. */
    FiberContext mainCtx_{};
    /** Sanitizer fiber bookkeeping for the scheduler's own (host)
     *  stack: ASan's fake-stack handle while a fiber runs, the host
     *  stack bounds (learned on the first switch) so fibers can
     *  announce switches back to it, and TSan's context for run()'s
     *  caller.  Unused in plain builds. */
    void *asanMainFakeStack_ = nullptr;
    const void *asanMainStackBottom_ = nullptr;
    std::size_t asanMainStackSize_ = 0;
    void *tsanMainFiber_ = nullptr;

    /** (clock, id) lexicographic order: ties go to the lower thread
     *  id, i.e. spawn order. */
    static bool
    keyLess(const SimThread *a, const SimThread *b)
    {
        return a->clock_ < b->clock_ ||
               (a->clock_ == b->clock_ && a->id_ < b->id_);
    }

    /** Pick over ready_ plus the (runnable) yielder @p self
     *  (null when called from the run() loop): min-key thread, or the
     *  single schedule-window RNG draw when the fault window admits
     *  more than one candidate.  Does not modify the heap. */
    SimThread *pickHeap(SimThread *self);
    void heapPush(SimThread *t);
    void heapRemove(SimThread *t);
    void heapSiftUp(std::size_t i);
    void heapSiftDown(std::size_t i);
    void noteClockRaised(SimThread &t);
    void pollWatchdogSliced(Cycles now);
    void switchTo(SimThread &t);
    void threadExit();
};

/**
 * Classic counting barrier for simulated threads (used to separate a
 * single-threaded warm-up phase from the timed parallel phase).
 */
class SimBarrier
{
  public:
    SimBarrier(Scheduler &sched, unsigned parties);

    /** Block until @p parties threads have arrived. */
    void wait();

  private:
    Scheduler &sched_;
    unsigned parties_;
    unsigned arrived_ = 0;
    std::vector<ThreadId> waiters_;
};

} // namespace flextm

#endif // FLEXTM_SIM_THREAD_HH
