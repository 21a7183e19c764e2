/**
 * @file
 * Shared plumbing for the perfbench workloads: wall/CPU clocks, the
 * in-memory span recorder of the traced mode, medians, and the
 * /proc readers the harness uses to measure processes from outside.
 *
 * Nothing here reaches inside the program under test: every figure
 * comes from timing calls into a module's public functions, from
 * /proc, or from a daemon's own metrics registry.
 */

#ifndef MERCURY_PERFBENCH_HARNESS_HH
#define MERCURY_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p values (the harness's central statistic). */
double median(std::vector<double> values);

/** Nearest-rank @p q quantile of @p values, q in [0, 1]. */
double percentile(std::vector<double> values, double q);

/**
 * Print the timed blocks of one end-to-end metric to stderr: the block
 * count, the minimum, the quartiles, the median and the highest
 * percentile that has ten blocks beyond it, so a run shows its own
 * spread and tail.
 */
void describeBlocks(const char *metric, std::vector<double> values);

/** Seconds since this process was exec'd (from /proc/self/stat). */
double secondsSinceProcessStart();

/** Peak resident set of @p pid (VmHWM) in MB; 0 when unreadable. */
double peakRssMb(pid_t pid);

/** CPU time of every thread of @p pid from task/<tid>/schedstat [s]. */
double processCpuSeconds(pid_t pid);

/** CPU time of one thread of @p pid [s]; 0 when the thread is gone. */
double threadCpuSeconds(pid_t pid, pid_t tid);

/** splitmix64: the seed-to-input mixer every workload derives from. */
uint64_t mix(uint64_t x);

/** Uniform double in [0, 1) from a mixed key. */
inline double
unit(uint64_t key)
{
    return double(mix(key) >> 11) * (1.0 / 9007199254740992.0);
}

/**
 * Spans of the traced mode: name, start, end, parent, workload. They
 * stay in memory (bounded; the excess is counted, not kept) and are
 * written as one JSON file at exit. Disabled tracers cost one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double start; //!< seconds since the tracer was created
        double end;
        int32_t parent; //!< index of the enclosing span, -1 at top
    };

    /** RAII span; nests through the tracer's open-span stack. A null
     *  or disabled tracer makes it a no-op. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_ = nullptr;
        int32_t index_ = -1;
        Clock::time_point start_;
        const char *name_;
    };

    Tracer() : origin_(Clock::now()) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }
    void setWorkload(std::string workload) { workload_ = std::move(workload); }

    /** Durations [s] of every kept span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Median duration [s] of spans named @p name; 0 when none. */
    double medianDuration(const std::string &name) const;

    size_t kept() const { return spans_.size(); }
    uint64_t dropped() const { return dropped_; }

    /** Write every kept span as one JSON document. */
    bool writeJson(const std::string &path) const;

  private:
    friend class Scope;
    static constexpr size_t kMaxSpans = 200000;

    bool enabled_ = false;
    Clock::time_point origin_;
    std::string workload_;
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
    uint64_t dropped_ = 0;
};

/** What a workload pass reports back to main(). */
struct Outcome
{
    bool correct = true;
    std::string failure; //!< first failed correctness check
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end metric name -> value (units fixed in perfbench.cc). */
    std::map<std::string, double> metrics;
    /** Per-layer values this pass measured itself (traced mode). */
    std::map<std::string, double> layers;

    /** Record a failed check; the first message is kept. */
    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        if (correct)
            failure = what;
        correct = false;
    }
};

/** Everything a workload needs from the command line and the run. */
struct RunContext
{
    uint64_t seed = 1;
    double seconds = 10.0;
    std::string binDir;  //!< where mercury_solverd / mercury_trace live
    std::string workDir; //!< private scratch inside the checkout
    Tracer *tracer = nullptr;
    /** True on the first pass of the process: set-up is cold. */
    bool coldSetup = true;
};

Outcome runFreonSection5(const RunContext &ctx);
Outcome runFleetTrace(const RunContext &ctx);
Outcome runSolverdLive(const RunContext &ctx);

/**
 * The per-layer probe suite of the traced mode: times public calls of
 * the in-process modules (see README.md) and adds to @p layers every
 * per-layer metric it does not already hold.
 */
void runLayerProbes(const RunContext &ctx,
                    std::map<std::string, double> &layers,
                    Outcome &outcome);

/** Stop every daemon the harness started (signal and exit paths). */
void stopAllChildren();

} // namespace perfbench

#endif // MERCURY_PERFBENCH_HARNESS_HH
