/**
 * @file
 * Span recording, percentiles and result printing shared by the
 * benchmark's workloads.
 *
 * Spans are recorded from the benchmark's own code, around its calls
 * into each layer (machine construction, workload setup, the parallel
 * phase, verify, the oracle replay; tm_begin/tm_read/tm_write/tm_end
 * on sampled native transactions).  They stay in memory and are
 * written as a Chrome trace-event file when the run ends.
 */

#ifndef FLEXTM_PERFBENCH_TRACE_HH
#define FLEXTM_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** In-memory span recorder; every call is a no-op when disabled. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span whose end is set later by close(); returns its id
     *  (-1 when disabled).  @p name must outlive the tracer. */
    int open(const char *name, int parent, Clock::time_point t0,
             std::uint32_t tid = 0);
    void close(int id, Clock::time_point t1);

    /** Record a finished span. */
    void
    add(const char *name, int parent, Clock::time_point t0,
        Clock::time_point t1, std::uint32_t tid = 0)
    {
        close(open(name, parent, t0, tid), t1);
    }

    std::size_t size() const { return spans_.size(); }

    /** Summed duration per span name, in seconds. */
    std::map<std::string, double> totalSeconds() const;

    /** Summed self time per span name: each span's duration minus the
     *  part of it its direct children cover, in seconds. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as a Chrome trace-event JSON file. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        int parent;
        std::uint32_t tid;
        Clock::time_point start;
        Clock::time_point end;
    };

    bool enabled_;
    std::vector<Span> spans_;
};

/** Nearest-rank percentile, p in [0,100]; 0 for an empty sample. */
double percentile(std::vector<double> v, double p);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** One named result with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Print "  name = value unit" lines under a heading. */
void printMetrics(const char *heading, const std::vector<Metric> &ms);

/** The result line: {"correct":..,"attempted":..,"failed":..,
 *  "metrics":{name:{"value":..,"unit":..}}}. */
void printResultJson(bool correct, std::uint64_t attempted,
                     std::uint64_t failed, const std::vector<Metric> &ms);

} // namespace perfbench

#endif // FLEXTM_PERFBENCH_TRACE_HH
