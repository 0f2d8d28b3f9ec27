/**
 * @file
 * Category-based execution tracing (in the spirit of gem5's
 * DPRINTF).  Disabled categories cost one branch; enabled ones
 * format a line and hand it to the active sink (stderr by default,
 * or a capture callback in tests).
 *
 * Categories can be switched on programmatically or via the
 * FLEXTM_TRACE environment variable, e.g.:
 *
 *     FLEXTM_TRACE=protocol,tm ./build/examples/quickstart
 */

#ifndef FLEXTM_SIM_TRACE_HH
#define FLEXTM_SIM_TRACE_HH

#include <cstdint>
#include <functional>
#include <string>

namespace flextm::trace
{

/** Trace categories (bit-mask). */
enum Category : unsigned
{
    Protocol = 1u << 0,  //!< coherence requests / responses
    Tm = 1u << 1,        //!< transaction begin/commit/abort
    Os = 1u << 2,        //!< suspend/resume/summary traps
    Watch = 1u << 3,     //!< FlexWatcher alerts
    Fault = 1u << 4,     //!< fault-injection firings
    Oracle = 1u << 5,    //!< serializability-oracle commits
    Dram = 1u << 6,      //!< DRAM backend commands / queue events
    All = ~0u
};

/** Parse a category list ("protocol,tm" / "all").  An unknown
 *  token is fatal: FLEXTM_TRACE=protcol tracing nothing at all would
 *  defeat the point of asking for a trace. */
unsigned parseCategories(const std::string &spec);

/** Replace the active category mask; returns the previous mask. */
unsigned setMask(unsigned mask);

namespace detail
{
/** Per OS thread so concurrent Machines trace independently (and the
 *  lazy env init cannot race).  Exposed only so mask()/enabled()
 *  inline to a TLS load + predicted branch at every FTRACE site
 *  instead of a call into trace.cc per memory event.  constinit
 *  promises static initialization, so that load goes straight to the
 *  variable instead of through a weak TLS-init wrapper (whose null
 *  test UBSan reports as a null-pointer load). */
extern constinit thread_local unsigned activeMask;
extern constinit thread_local bool maskInitialized;
void initMaskFromEnv();
} // namespace detail

/** Current mask (initialized from FLEXTM_TRACE on first use). */
inline unsigned
mask()
{
    if (!detail::maskInitialized)
        detail::initMaskFromEnv();
    return detail::activeMask;
}

inline bool
enabled(Category c)
{
    return (mask() & c) != 0;
}

/** Route trace lines somewhere other than stderr (tests). */
using Sink = std::function<void(const std::string &)>;
void setSink(Sink sink);

/** Emit one formatted line (no trailing newline needed). */
void logf(Category c, std::uint64_t cycle, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

} // namespace flextm::trace

/** Cheap call-site macro: arguments are not evaluated when the
 *  category is disabled. */
#define FTRACE(cat, cycle, ...)                                       \
    do {                                                              \
        if (::flextm::trace::enabled(::flextm::trace::cat))           \
            ::flextm::trace::logf(::flextm::trace::cat, (cycle),      \
                                  __VA_ARGS__);                       \
    } while (0)

#endif // FLEXTM_SIM_TRACE_HH
