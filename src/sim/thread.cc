#include "sim/thread.hh"

#include <exception>

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/progress.hh"

// ucontext fibers run on heap-allocated stacks that AddressSanitizer
// knows nothing about: without explicit fiber-switch annotations its
// shadow poisoning desynchronizes across swapcontext and it reports
// spurious stack-use-after-scope on perfectly valid frames.  Announce
// every switch via the sanitizer fiber API when ASan is enabled.
#if defined(__SANITIZE_ADDRESS__)
#define FLEXTM_ASAN_FIBERS
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLEXTM_ASAN_FIBERS
#endif
#endif

#ifdef FLEXTM_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace flextm
{

namespace
{

/**
 * Tell ASan we are about to switch to the fiber stack [bottom, size).
 * @p save receives the outgoing context's fake-stack handle; pass
 * nullptr when the outgoing fiber will never run again so its fake
 * frames are freed.
 */
inline void
fiberSwitchStart(void **save, const void *bottom, std::size_t size)
{
#ifdef FLEXTM_ASAN_FIBERS
    __sanitizer_start_switch_fiber(save, bottom, size);
#else
    (void)save;
    (void)bottom;
    (void)size;
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
 * makecontext trampoline find its way home.
 */
thread_local Scheduler *activeSched = nullptr;

} // anonymous namespace

SimThread::SimThread(Scheduler &sched, ThreadId id, CoreId core,
                     std::function<void()> body, std::size_t stackBytes)
    : sched_(sched), id_(id), core_(core), body_(std::move(body)),
      stack_(new std::uint8_t[stackBytes]), stackBytes_(stackBytes)
{
    if (getcontext(&ctx_) != 0)
        panic("getcontext failed");
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = stackBytes_;
    ctx_.uc_link = nullptr;
    makecontext(&ctx_, &SimThread::trampoline, 0);
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
Scheduler::setStackBytes(std::size_t bytes)
{
    sim_assert(bytes >= kMinStackBytes,
               "fiber stack of %zu bytes is below the %zu-byte "
               "minimum",
               bytes, kMinStackBytes);
    // Whole pages, so a protected guard page could sit flush below
    // the stack base without stealing usable space.
    constexpr std::size_t page = 4096;
    stackBytes_ = (bytes + page - 1) & ~(page - 1);
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
        *this, tid, core, std::move(body), stackBytes_));
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
    fiberSwitchStart(&asanMainFakeStack_, t.stack_.get(),
                     t.stackBytes_);
    if (swapcontext(&mainCtx_, &t.ctx_) != 0)
        panic("swapcontext into thread %u failed", t.id());
    fiberSwitchFinish(asanMainFakeStack_, nullptr, nullptr);
    activeSched = prev;
    current_ = nullptr;
}

void
Scheduler::run()
{
    sim_assert(current_ == nullptr, "run() is not reentrant");
    sliceLeft_ = kWatchdogSlice;
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
                     asanMainStackSize_);
    if (swapcontext(&self.ctx_, &mainCtx_) != 0)
        panic("swapcontext to scheduler failed");
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
                     asanMainStackSize_);
    if (swapcontext(&self.ctx_, &mainCtx_) != 0)
        panic("swapcontext from finished thread failed");
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
