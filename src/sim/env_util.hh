/**
 * @file
 * Strict FLEXTM_* environment-variable parsing.
 *
 * Every knob the simulator reads from the environment goes through
 * these helpers.  The contract is uniform: an unset or empty
 * variable keeps the configured fallback, and anything else must
 * parse completely and land in range - garbage, trailing junk,
 * overflow, or an unknown keyword is a user error reported through
 * fatal() with the variable name, the offending value, and what
 * would have been accepted.  Silently falling back
 * (the old behaviour at most sites) turned typos like
 * FLEXTM_JOBS=1O or FLEXTM_AUDITOR=txnn into hours of confusion:
 * the run proceeds, just not the run that was asked for.
 */

#ifndef FLEXTM_SIM_ENV_UTIL_HH
#define FLEXTM_SIM_ENV_UTIL_HH

#include <cstdint>
#include <initializer_list>

namespace flextm::env
{

/** Value of @p name, or nullptr when unset or empty. */
const char *raw(const char *name);

/**
 * Parse @p text (the value of variable @p name, used only for error
 * messages) as an unsigned integer in [@p lo, @p hi].  @p base
 * follows strtoull: 10 for counts, 0 to also accept 0x-prefixed hex
 * (seeds, addresses).  fatal()s on an empty string, a leading sign,
 * trailing junk, overflow, or an out-of-range value.
 */
std::uint64_t parseU64(const char *name, const char *text,
                       std::uint64_t lo, std::uint64_t hi,
                       int base = 10);

/** Parse @p text as a finite number in [@p lo, @p hi], as strictly
 *  as parseU64: fatal()s on an empty string, trailing junk, NaN,
 *  infinity, or an out-of-range value. */
double parseF64(const char *name, const char *text, double lo,
                double hi);

/** Unsigned integer knob: fallback when unset/empty, else a strict
 *  full-string parse bounded to [@p lo, @p hi]. */
std::uint64_t u64Or(const char *name, std::uint64_t fallback,
                    std::uint64_t lo, std::uint64_t hi,
                    int base = 10);

/**
 * Keyword knob: returns the index of the matching option, or -1 when
 * the variable is unset/empty (keep the configured fallback).  Any
 * other value is fatal, with the accepted spellings listed.
 */
int choiceOr(const char *name,
             std::initializer_list<const char *> options);

} // namespace flextm::env

#endif // FLEXTM_SIM_ENV_UTIL_HH
