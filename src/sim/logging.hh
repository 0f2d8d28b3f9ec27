/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - an internal simulator invariant was violated (a bug in
 *            FlexTM itself); aborts.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments); exits cleanly.
 */

#ifndef FLEXTM_SIM_LOGGING_HH
#define FLEXTM_SIM_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace flextm
{

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

[[noreturn]] void assertFail(const char *file, int line,
                             const char *cond, const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

} // namespace flextm

#define panic(...) \
    ::flextm::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

#define fatal(...) \
    ::flextm::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/**
 * Simulator-internal assertion: like assert() but always compiled in
 * and reported through panic() so failures carry file/line context.
 */
#define sim_assert(cond, ...)                                            \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::flextm::assertFail(__FILE__, __LINE__, #cond,              \
                                 "" __VA_ARGS__);                        \
        }                                                                \
    } while (0)

#endif // FLEXTM_SIM_LOGGING_HH
