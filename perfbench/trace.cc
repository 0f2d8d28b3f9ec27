#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench
{

int
Tracer::open(const char *name, int parent, Clock::time_point t0,
             std::uint32_t tid)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{name, parent, tid, t0, t0});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::close(int id, Clock::time_point t1)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].end = t1;
}

std::map<std::string, double>
Tracer::totalSeconds() const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] += secondsBetween(s.start, s.end);
    return out;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    // Children of one span never overlap (phases and calls run one
    // after another), so the covered part is the sum of their
    // durations.
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = secondsBetween(spans_[i].start, spans_[i].end);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                secondsBetween(s.start, s.end);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double ts =
            std::chrono::duration<double, std::micro>(s.start - origin)
                .count();
        const double dur =
            std::chrono::duration<double, std::micro>(s.end - s.start)
                .count();
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d}}%s\n",
                     s.name, s.tid, ts, dur, i, s.parent,
                     i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t k =
        std::min(v.size() - 1,
                 static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
printMetrics(const char *heading, const std::vector<Metric> &ms)
{
    std::printf("%s\n", heading);
    for (const Metric &m : ms)
        std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
printResultJson(bool correct, std::uint64_t attempted,
                std::uint64_t failed, const std::vector<Metric> &ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", ms[i].name.c_str(), v,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
