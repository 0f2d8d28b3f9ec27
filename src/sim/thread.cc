#include "sim/thread.hh"

#include <cstdint>
#include <exception>
#include <new>

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/progress.hh"

// Fibers run on heap-allocated stacks that AddressSanitizer knows
// nothing about: without explicit fiber-switch annotations its shadow
// poisoning desynchronizes across a stack switch and it reports
// spurious stack-use-after-scope on perfectly valid frames.  Announce
// every switch via the sanitizer fiber API when ASan is enabled.
#if defined(__SANITIZE_ADDRESS__)
#define FLEXTM_ASAN_FIBERS
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLEXTM_ASAN_FIBERS
#endif
#endif

// ThreadSanitizer keeps one shadow call stack and one vector clock per
// context; each fiber gets its own, and every switch synchronizes the
// two sides (the fibers of one host thread never run concurrently).
#if defined(__SANITIZE_THREAD__)
#define FLEXTM_TSAN_FIBERS
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLEXTM_TSAN_FIBERS
#endif
#endif

#ifdef FLEXTM_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef FLEXTM_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// The x86-64 SysV context switch: push the callee-saved registers and
// the MXCSR / x87 control words (callee-saved under the ABI) on the
// outgoing stack, store its stack pointer to *save, load `load` as
// the stack pointer and pop the same frame from there.  Unlike glibc's
// swapcontext it saves no other FP state and makes no sigprocmask
// syscall; nothing in the simulator changes the signal mask.
// .globl + .hidden: under LTO a file-local label is invisible across
// partitions, while hidden keeps the symbol out of the dynamic table.
extern "C" void flextm_fiber_switch(void **save, void *load);
asm(".pushsection .text\n"
    ".globl flextm_fiber_switch\n"
    ".hidden flextm_fiber_switch\n"
    ".type flextm_fiber_switch, @function\n"
    ".p2align 4\n"
    "flextm_fiber_switch:\n"
    "    pushq %rbp\n"
    "    pushq %rbx\n"
    "    pushq %r12\n"
    "    pushq %r13\n"
    "    pushq %r14\n"
    "    pushq %r15\n"
    "    subq $8, %rsp\n"
    "    stmxcsr (%rsp)\n"
    "    fnstcw 4(%rsp)\n"
    "    movq %rsp, (%rdi)\n"
    "    movq %rsi, %rsp\n"
    "    ldmxcsr (%rsp)\n"
    "    fldcw 4(%rsp)\n"
    "    addq $8, %rsp\n"
    "    popq %r15\n"
    "    popq %r14\n"
    "    popq %r13\n"
    "    popq %r12\n"
    "    popq %rbx\n"
    "    popq %rbp\n"
    "    ret\n"
    ".size flextm_fiber_switch, .-flextm_fiber_switch\n"
    ".popsection\n");
#endif

namespace flextm
{

namespace
{

#if defined(__x86_64__)

/** What flextm_fiber_switch pops from a stack, lowest address first,
 *  plus the return address of the function it returns into. */
struct SwitchFrame
{
    std::uint32_t mxcsr;
    std::uint16_t x87Control;
    std::uint16_t pad;
    std::uint64_t r15, r14, r13, r12, rbx, rbp;
    void (*resume)();
    /** Zero, so unwinders and backtraces stop in the entry function. */
    std::uint64_t entryReturn;
};
static_assert(sizeof(SwitchFrame) == 72);

/**
 * Build the first switch frame at the top of @p stack, so the first
 * switch into @p ctx enters @p entry with zeroed callee-saved
 * registers, this context's FP control words (what getcontext would
 * have captured), and the ABI's call alignment: (rsp + 8) % 16 == 0.
 */
void
fiberInit(FiberContext &ctx, std::uint8_t *stack, std::size_t bytes,
          void (*entry)())
{
    const auto top = reinterpret_cast<std::uintptr_t>(stack + bytes) &
                     ~std::uintptr_t{15};
    auto *f = new (reinterpret_cast<void *>(top - sizeof(SwitchFrame)))
        SwitchFrame{};
    f->resume = entry;
    asm volatile("stmxcsr %0\n\tfnstcw %1"
                 : "=m"(f->mxcsr), "=m"(f->x87Control));
    ctx = f;
}

/** Save the running context into @p from and resume @p to. */
inline void
fiberSwitch(FiberContext &from, const FiberContext &to)
{
    flextm_fiber_switch(&from, to);
}

#else // ucontext fallback for targets without a hand-written switch

void
fiberInit(FiberContext &ctx, std::uint8_t *stack, std::size_t bytes,
          void (*entry)())
{
    if (getcontext(&ctx) != 0)
        panic("getcontext failed");
    ctx.uc_stack.ss_sp = stack;
    ctx.uc_stack.ss_size = bytes;
    ctx.uc_link = nullptr;
    makecontext(&ctx, entry, 0);
}

inline void
fiberSwitch(FiberContext &from, const FiberContext &to)
{
    if (swapcontext(&from, &to) != 0)
        panic("swapcontext failed");
}

#endif

/**
 * Tell the sanitizers we are about to switch to the fiber whose stack
 * is [bottom, size) and whose TSan context is @p tsanFiber.  @p save
 * receives the outgoing context's ASan fake-stack handle; pass nullptr
 * when the outgoing fiber will never run again so its fake frames are
 * freed.
 */
inline void
fiberSwitchStart(void **save, const void *bottom, std::size_t size,
                 void *tsanFiber)
{
#ifdef FLEXTM_ASAN_FIBERS
    __sanitizer_start_switch_fiber(save, bottom, size);
#else
    (void)save;
    (void)bottom;
    (void)size;
#endif
#ifdef FLEXTM_TSAN_FIBERS
    __tsan_switch_to_fiber(tsanFiber, 0);
#else
    (void)tsanFiber;
#endif
}

/**
 * Tell ASan the switch completed: restore this context's fake stack
 * from @p save (nullptr on a fiber's first entry) and optionally
 * learn the stack bounds of the context we came from.
 */
inline void
fiberSwitchFinish(void *save, const void **fromBottom,
                  std::size_t *fromSize)
{
#ifdef FLEXTM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(save, fromBottom, fromSize);
#else
    (void)save;
    (void)fromBottom;
    (void)fromSize;
#endif
}

/**
 * The scheduler whose threads are currently being dispatched.  Only
 * one scheduler runs at a time on a host thread (the simulation is
 * single-host-threaded), so a thread-local suffices to let the
 * trampoline find its way home.
 */
thread_local Scheduler *activeSched = nullptr;

} // anonymous namespace

SimThread::SimThread(Scheduler &sched, ThreadId id, CoreId core,
                     std::function<void()> body)
    : sched_(sched), id_(id), core_(core), body_(std::move(body)),
      stack_(new std::uint8_t[Scheduler::kStackBytes])
{
    fiberInit(ctx_, stack_.get(), Scheduler::kStackBytes,
              &SimThread::trampoline);
#ifdef FLEXTM_TSAN_FIBERS
    tsanFiber_ = __tsan_create_fiber(0);
#endif
}

SimThread::~SimThread()
{
#ifdef FLEXTM_TSAN_FIBERS
    __tsan_destroy_fiber(tsanFiber_);
#endif
}

void
SimThread::syncClock(Cycles t)
{
    if (clock_ >= t)
        return;
    clock_ = t;
    sched_.noteClockRaised(*this);
}

void
SimThread::trampoline()
{
    Scheduler *sched = activeSched;
    sim_assert(sched != nullptr);
    SimThread &self = sched->current();
    // First entry onto this fiber's stack: no fake stack to restore,
    // and the stack we came from is the scheduler's host stack.
    fiberSwitchFinish(nullptr, &sched->asanMainStackBottom_,
                      &sched->asanMainStackSize_);
    try {
        self.body_();
    } catch (const std::exception &e) {
        panic("uncaught exception in sim thread %u: %s", self.id_,
              e.what());
    } catch (...) {
        panic("uncaught exception in sim thread %u", self.id_);
    }
    sched->threadExit();
}

void
Scheduler::setFaultPlan(FaultPlan *p)
{
    fault_ = p;
    window_ = p ? p->config().schedWindowCycles : 0;
}

ThreadId
Scheduler::spawn(CoreId core, std::function<void()> body)
{
    const auto tid = static_cast<ThreadId>(threads_.size());
    threads_.push_back(std::make_unique<SimThread>(
        *this, tid, core, std::move(body)));
    heapPush(threads_.back().get());
    return tid;
}

SimThread &
Scheduler::current()
{
    sim_assert(current_ != nullptr, "no thread is running");
    return *current_;
}

SimThread &
Scheduler::thread(ThreadId tid)
{
    sim_assert(tid < threads_.size());
    return *threads_[tid];
}

void
Scheduler::advance(Cycles n)
{
    current().advance(n);
}

Cycles
Scheduler::now() const
{
    sim_assert(current_ != nullptr);
    return current_->clock();
}

void
Scheduler::noteClockRaised(SimThread &t)
{
    if (t.clock_ > maxSeen_)
        maxSeen_ = t.clock_;
    // Clocks only move forward, so a parked thread can only need to
    // move *down* the min-heap.
    if (t.heapSlot_ != SimThread::kNoHeapSlot)
        heapSiftDown(t.heapSlot_);
}

void
Scheduler::heapSiftUp(std::size_t i)
{
    SimThread *t = ready_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!keyLess(t, ready_[parent]))
            break;
        ready_[i] = ready_[parent];
        ready_[i]->heapSlot_ = i;
        i = parent;
    }
    ready_[i] = t;
    t->heapSlot_ = i;
}

void
Scheduler::heapSiftDown(std::size_t i)
{
    const std::size_t n = ready_.size();
    SimThread *t = ready_[i];
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && keyLess(ready_[child + 1], ready_[child]))
            ++child;
        if (!keyLess(ready_[child], t))
            break;
        ready_[i] = ready_[child];
        ready_[i]->heapSlot_ = i;
        i = child;
    }
    ready_[i] = t;
    t->heapSlot_ = i;
}

void
Scheduler::heapPush(SimThread *t)
{
    sim_assert(t->heapSlot_ == SimThread::kNoHeapSlot);
    ready_.push_back(t);
    heapSiftUp(ready_.size() - 1);
}

void
Scheduler::heapRemove(SimThread *t)
{
    const std::size_t i = t->heapSlot_;
    sim_assert(i != SimThread::kNoHeapSlot && i < ready_.size());
    t->heapSlot_ = SimThread::kNoHeapSlot;
    const std::size_t last = ready_.size() - 1;
    if (i != last) {
        SimThread *moved = ready_[last];
        ready_.pop_back();
        ready_[i] = moved;
        moved->heapSlot_ = i;
        // The displaced tail element may belong above or below i
        // (whichever sift applies, the other is a no-op).
        heapSiftDown(i);
        heapSiftUp(moved->heapSlot_);
    } else {
        ready_.pop_back();
    }
}

SimThread *
Scheduler::pickHeap(SimThread *self)
{
    SimThread *minT = self;
    if (!ready_.empty() &&
        (minT == nullptr || keyLess(ready_.front(), minT))) {
        minT = ready_.front();
    }
    if (!minT || window_ == 0)
        return minT;

    // Schedule perturbation: any runnable thread close enough to the
    // minimum clock may run next.  Candidates are enumerated in tid
    // order and the RNG is drawn exactly once per dispatch, only when
    // more than one thread is in the window.
    const Cycles limit = minT->clock_ + window_;
    windowBuf_.clear();
    if (self && self->clock_ <= limit)
        windowBuf_.push_back(self);
    for (SimThread *t : ready_)
        if (t->clock_ <= limit)
            windowBuf_.push_back(t);
    if (windowBuf_.size() <= 1)
        return minT;
    // Insertion sort by tid: the window admits a handful of threads.
    for (std::size_t i = 1; i < windowBuf_.size(); ++i) {
        SimThread *v = windowBuf_[i];
        std::size_t j = i;
        while (j > 0 && windowBuf_[j - 1]->id_ > v->id_) {
            windowBuf_[j] = windowBuf_[j - 1];
            --j;
        }
        windowBuf_[j] = v;
    }
    return windowBuf_[fault_->pickIndex(windowBuf_.size())];
}

void
Scheduler::switchTo(SimThread &t)
{
    current_ = &t;
    Scheduler *prev = activeSched;
    activeSched = this;
    fiberSwitchStart(&asanMainFakeStack_, t.stack_.get(), kStackBytes,
                     t.tsanFiber_);
    fiberSwitch(mainCtx_, t.ctx_);
    fiberSwitchFinish(asanMainFakeStack_, nullptr, nullptr);
    activeSched = prev;
    current_ = nullptr;
}

void
Scheduler::run()
{
    sim_assert(current_ == nullptr, "run() is not reentrant");
    sliceLeft_ = kWatchdogSlice;
#ifdef FLEXTM_TSAN_FIBERS
    tsanMainFiber_ = __tsan_get_current_fiber();
#endif
    for (;;) {
        SimThread *next = pending_;
        pending_ = nullptr;
        if (!next) {
            next = pickHeap(nullptr);
            if (!next)
                break;
            heapRemove(next);
        }
        if (watchdog_)
            watchdog_->watchdogPoll(next->clock());
        switchTo(*next);
    }
}

void
Scheduler::pollWatchdogSliced(Cycles now)
{
    if (watchdog_ && --sliceLeft_ == 0) {
        sliceLeft_ = kWatchdogSlice;
        watchdog_->watchdogPoll(now);
    }
}

void
Scheduler::yield()
{
    SimThread &self = current();
    if (self.clock_ > maxSeen_)
        maxSeen_ = self.clock_;
    if (self.state_ == SimThread::State::Runnable) {
        if (window_ == 0) {
            // Run-slice fast path: keep executing while this thread
            // is the sole runnable or still the unique (clock, tid)
            // minimum; watchdog polls amortize to slice boundaries.
            if (ready_.empty() || keyLess(&self, ready_.front())) {
                pollWatchdogSliced(self.clock_);
                return;
            }
            // The heap root overtakes: dispatch it and park self by
            // replacing the root in place (one sift, no push+pop).
            SimThread *next = ready_.front();
            next->heapSlot_ = SimThread::kNoHeapSlot;
            ready_[0] = &self;
            self.heapSlot_ = 0;
            heapSiftDown(0);
            pending_ = next;
        } else {
            SimThread *next = pickHeap(&self);
            if (next == &self) {
                pollWatchdogSliced(self.clock_);
                return;
            }
            heapRemove(next);
            heapPush(&self);
            pending_ = next;
        }
    }
    fiberSwitchStart(&self.asanFakeStack_, asanMainStackBottom_,
                     asanMainStackSize_, tsanMainFiber_);
    fiberSwitch(self.ctx_, mainCtx_);
    fiberSwitchFinish(self.asanFakeStack_, &asanMainStackBottom_,
                      &asanMainStackSize_);
}

void
Scheduler::block()
{
    SimThread &self = current();
    self.state_ = SimThread::State::Blocked;
    yield();
    sim_assert(self.state_ == SimThread::State::Runnable,
               "blocked thread resumed without wake");
}

void
Scheduler::wake(ThreadId tid)
{
    SimThread &t = thread(tid);
    sim_assert(t.state() == SimThread::State::Blocked,
               "wake of non-blocked thread %u", tid);
    t.state_ = SimThread::State::Runnable;
    // A thread that slept must not lag global time: pull it forward to
    // the waker's clock so its next action cannot happen in the past.
    if (current_ != nullptr)
        t.syncClock(current_->clock());
    heapPush(&t);
}

void
Scheduler::threadExit()
{
    SimThread &self = current();
    self.state_ = SimThread::State::Finished;
    if (self.clock_ > maxSeen_)
        maxSeen_ = self.clock_;
    // nullptr save: this fiber never runs again, so ASan frees its
    // fake frames instead of keeping them poisoned.
    fiberSwitchStart(nullptr, asanMainStackBottom_,
                     asanMainStackSize_, tsanMainFiber_);
    fiberSwitch(self.ctx_, mainCtx_);
    panic("finished thread %u was rescheduled", self.id());
}

SimBarrier::SimBarrier(Scheduler &sched, unsigned parties)
    : sched_(sched), parties_(parties)
{
    sim_assert(parties > 0);
}

void
SimBarrier::wait()
{
    ++arrived_;
    if (arrived_ == parties_) {
        arrived_ = 0;
        for (ThreadId tid : waiters_)
            sched_.wake(tid);
        waiters_.clear();
        return;
    }
    waiters_.push_back(sched_.current().id());
    sched_.block();
}

} // namespace flextm
