#include "sim/env_util.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/logging.hh"

namespace flextm::env
{

const char *
raw(const char *name)
{
    const char *v = std::getenv(name);
    return (v == nullptr || *v == '\0') ? nullptr : v;
}

std::uint64_t
parseU64(const char *name, const char *text, std::uint64_t lo,
         std::uint64_t hi, int base)
{
    // strtoull quietly accepts leading whitespace and a sign (turning
    // "-1" into 2^64-1); reject both up front.
    if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text)) ||
        *text == '-' || *text == '+') {
        fatal("%s=\"%s\" is not a valid unsigned integer", name, text);
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, base);
    if (end == text || *end != '\0')
        fatal("%s=\"%s\" is not a valid unsigned integer "
              "(trailing junk after \"%.*s\")",
              name, text, static_cast<int>(end - text), text);
    if (errno == ERANGE)
        fatal("%s=\"%s\" overflows a 64-bit unsigned integer", name,
              text);
    if (v < lo || v > hi)
        fatal("%s=%llu is out of range (want [%llu, %llu])", name, v,
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
    return static_cast<std::uint64_t>(v);
}

double
parseF64(const char *name, const char *text, double lo, double hi)
{
    if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text)))
        fatal("%s=\"%s\" is not a valid number", name, text);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        fatal("%s=\"%s\" is not a valid number "
              "(trailing junk after \"%.*s\")",
              name, text, static_cast<int>(end - text), text);
    if (errno == ERANGE || !std::isfinite(v) || v < lo || v > hi)
        fatal("%s=\"%s\" is out of range (want a number in [%g, %g])",
              name, text, lo, hi);
    return v;
}

std::uint64_t
u64Or(const char *name, std::uint64_t fallback, std::uint64_t lo,
      std::uint64_t hi, int base)
{
    const char *text = raw(name);
    if (text == nullptr)
        return fallback;
    return parseU64(name, text, lo, hi, base);
}

int
choiceOr(const char *name, std::initializer_list<const char *> options)
{
    const char *text = raw(name);
    if (text == nullptr)
        return -1;
    int idx = 0;
    for (const char *opt : options) {
        if (std::strcmp(text, opt) == 0)
            return idx;
        ++idx;
    }
    std::string allowed;
    for (const char *opt : options) {
        if (!allowed.empty())
            allowed += " / ";
        allowed += opt;
    }
    fatal("%s=\"%s\" is not recognized (want %s)", name, text,
          allowed.c_str());
}

} // namespace flextm::env
