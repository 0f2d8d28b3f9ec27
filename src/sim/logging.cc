#include "sim/logging.hh"

namespace flextm
{

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "fatal: %s:%d: ", file, line);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::exit(1);
}

void
assertFail(const char *file, int line, const char *cond, const char *fmt,
           ...)
{
    std::fprintf(stderr, "panic: %s:%d: assertion '%s' failed", file,
                 line, cond);
    if (fmt && fmt[0] != '\0') {
        std::fprintf(stderr, ": ");
        va_list ap;
        va_start(ap, fmt);
        std::vfprintf(stderr, fmt, ap);
        va_end(ap);
    }
    std::fprintf(stderr, "\n");
    std::abort();
}

} // namespace flextm
