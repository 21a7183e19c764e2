#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <time.h>
#include <unistd.h>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + long(mid),
                     values.end());
    double upper = values[mid];
    if (values.size() % 2)
        return upper;
    double lower =
        *std::max_element(values.begin(), values.begin() + long(mid));
    return 0.5 * (lower + upper);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[size_t(q * double(values.size() - 1))];
}

void
describeBlocks(const char *metric, std::vector<double> values)
{
    if (values.empty())
        return;
    std::sort(values.begin(), values.end());
    auto at = [&](double q) {
        return values[size_t(q * double(values.size() - 1))];
    };
    // The highest percentile with ten blocks beyond it; none below 40.
    if (values.size() < 40) {
        std::fprintf(stderr,
                     "perfbench: %s over %zu blocks: p10 %.6g p50 %.6g\n",
                     metric, values.size(), at(0.10), median(values));
        return;
    }
    size_t index = values.size() - 11;
    std::fprintf(stderr,
                 "perfbench: %s over %zu blocks: min %.6g p10 %.6g "
                 "p25 %.6g p50 %.6g p75 %.6g p%.1f %.6g\n",
                 metric, values.size(), values.front(), at(0.10),
                 at(0.25), median(values), at(0.75),
                 100.0 * double(index + 1) / double(values.size()),
                 values[index]);
}

double
secondsSinceProcessStart()
{
    // Field 22 of /proc/self/stat is the start time in clock ticks
    // since boot, the same origin as CLOCK_BOOTTIME.
    std::ifstream in("/proc/self/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    unsigned long long start_ticks = 0;
    for (int index = 3; fields >> field; ++index) {
        if (index == 22) {
            start_ticks = std::stoull(field);
            break;
        }
    }
    struct timespec now;
    clock_gettime(CLOCK_BOOTTIME, &now);
    double boot_seconds = double(now.tv_sec) + double(now.tv_nsec) * 1e-9;
    return boot_seconds - double(start_ticks) / double(sysconf(_SC_CLK_TCK));
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

double
threadCpuSeconds(pid_t pid, pid_t tid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/task/" +
                     std::to_string(tid) + "/schedstat");
    unsigned long long run_ns = 0;
    if (!(in >> run_ns))
        return 0.0;
    return double(run_ns) * 1e-9;
}

double
processCpuSeconds(pid_t pid)
{
    std::string dir = "/proc/" + std::to_string(pid) + "/task";
    DIR *tasks = opendir(dir.c_str());
    if (!tasks)
        return 0.0;
    double total = 0.0;
    while (struct dirent *entry = readdir(tasks)) {
        if (entry->d_name[0] == '.')
            continue;
        total += threadCpuSeconds(pid, pid_t(std::atoi(entry->d_name)));
    }
    closedir(tasks);
    return total;
}

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Tracer::Scope::Scope(Tracer *tracer, const char *name) : name_(name)
{
    if (!tracer || !tracer->enabled_)
        return;
    tracer_ = tracer;
    start_ = Clock::now();
    if (tracer->spans_.size() >= kMaxSpans) {
        ++tracer->dropped_;
        return;
    }
    index_ = int32_t(tracer->spans_.size());
    int32_t parent = tracer->open_.empty() ? -1 : tracer->open_.back();
    tracer->spans_.push_back(Span{name, 0.0, 0.0, parent});
    tracer->open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (!tracer_ || index_ < 0)
        return;
    auto end = Clock::now();
    Span &span = tracer_->spans_[size_t(index_)];
    span.start = std::chrono::duration<double>(start_ - tracer_->origin_)
                     .count();
    span.end =
        std::chrono::duration<double>(end - tracer_->origin_).count();
    tracer_->open_.pop_back();
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (name == span.name)
            out.push_back(span.end - span.start);
    }
    return out;
}

double
Tracer::medianDuration(const std::string &name) const
{
    return median(durations(name));
}

bool
Tracer::writeJson(const std::string &path) const
{
    FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "{\"workload\": \"%s\", \"dropped\": %llu, "
                      "\"spans\": [\n",
                 workload_.c_str(), (unsigned long long)dropped_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::fprintf(out,
                     "%s{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"parent\": %d}",
                     i ? ",\n" : "", i, span.name, span.start, span.end,
                     span.parent);
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

} // namespace perfbench

