/**
 * @file
 * perfbench: the repo's benchmark harness. One command runs a named
 * workload against an optimized build, checks the program's outputs,
 * and prints one JSON line with the operations attempted and failed
 * and every metric by name and unit:
 *
 *   perfbench --workload fleet_trace --seed 3 --seconds 20 --trace 0
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 is the traced
 * mode: it runs the workload untraced, then again with spans around
 * each call into the program, then the per-layer probes, and prints
 * the per-layer metrics plus the tracing overhead. The spans are
 * written to one JSON file at exit. perfbench/README.md describes the
 * workloads and metrics.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include <sys/mman.h>
#include <unistd.h>

#include "harness.hh"

namespace {

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Every workload reports every metric; README.md says what each one
// means per workload.
const MetricDef kEndToEnd[] = {
    {"op_wall_us", "us"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

const MetricDef kPerLayer[] = {
    {"freon.cpu_us_per_emulated_s", "us"},
    {"core.fleet_cpu_us_per_iteration", "us"},
    {"solverd.cpu_us_per_iteration", "us"},
    {"core.iterate_us", "us"},
    {"core.active_machines", "count"},
    {"core.machine_step_ns", "ns"},
    {"core.room_step_us", "us"},
    {"core.frozen_iterate_us", "us"},
    {"core.iterate4_us", "us"},
    {"core.iterate64_us", "us"},
    {"core.set_utilization_ns", "ns"},
    {"util.parallel_for_us", "us"},
    {"graphdot.load_ms", "ms"},
    {"freon.base_s", "s"},
    {"freon.ec_s", "s"},
    {"freon.traditional_s", "s"},
    {"freon.ec_dropped", "count"},
    {"freon.ec_fixed_seed_dropped", "count"},
    {"lb.requests", "count"},
    {"sensor.local_read_many_us", "us"},
    {"sensor.local_read_ns", "ns"},
    {"sensor.shm_read_ns", "ns"},
    {"sensor.udp_read_us", "us"},
    {"proto.codec_ns", "ns"},
    {"net.request_handle_us", "us"},
    {"net.batch_size", "count"},
    {"net.worker_busy_ratio", "ratio"},
    {"net.updates_applied", "count"},
    {"telemetry.publish_us", "us"},
    {"telemetry.read_ns", "ns"},
    {"replica.wal_append_ns", "ns"},
    {"replica.wal_bytes_per_record", "B"},
    {"replica.standby_cpu_us_per_iteration", "us"},
    {"state.checkpoint_save_ms", "ms"},
    {"solverd.idle_cpu_us_per_iteration", "us"},
    {"solverd.idle_main_thread_cpu_us_per_iteration", "us"},
    {"solverd.main_thread_cpu_us_per_iteration", "us"},
    {"solverd.other_threads_cpu_us_per_iteration", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

void
onSignal(int signo)
{
    stopAllChildren();
    std::signal(signo, SIG_DFL);
    std::raise(signo);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "freon_section5|fleet_trace|solverd_live --seed N "
                 "--seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

Outcome
runWorkload(const std::string &workload, const RunContext &ctx)
{
    if (workload == "freon_section5")
        return runFreonSection5(ctx);
    if (workload == "fleet_trace")
        return runFleetTrace(ctx);
    return runSolverdLive(ctx);
}

/** Fold @p from's checks and layers into @p into; with @p counts, its
 *  operation counts too. */
void
merge(Outcome &into, const Outcome &from, bool counts)
{
    into.check(from.correct, from.failure);
    if (counts) {
        into.attempted += from.attempted;
        into.failed += from.failed;
    }
    for (const auto &[name, value] : from.layers)
        into.layers.emplace(name, value);
}

void
printResult(const Outcome &outcome, const MetricDef *defs, size_t count,
            const std::map<std::string, double> &values)
{
    std::string json = "{\"correct\": ";
    json += outcome.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < count; ++i) {
        auto it = values.find(defs[i].name);
        double value = it == values.end() ? 0.0 : it->second;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", defs[i].name, value, defs[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    long long seed = -1;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = std::strtoll(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            trace = int(std::strtol(value.c_str(), &end, 10));
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("bad value for " + flag).c_str());
    }
    if (workload != "freon_section5" && workload != "fleet_trace" &&
        workload != "solverd_live")
        usage("unknown or missing --workload");
    if (seed < 0 || !(seconds > 0.0 && seconds <= 600.0) ||
        (trace != 0 && trace != 1))
        usage("--seed, --seconds and --trace are required");

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGHUP, onSignal);

    namespace fs = std::filesystem;
    RunContext ctx;
    ctx.seed = uint64_t(seed);
    // Run directories and span files go next to the harness binary,
    // inside the benchmark's build tree.
    const fs::path work_root =
        fs::read_symlink("/proc/self/exe").parent_path();
    ctx.binDir = (work_root / "src" / "apps").string();
    ctx.workDir = (work_root / ("run-" + std::to_string(getpid()))).string();
    // Run directories (and shm segments) left by a harness that was
    // killed outright: their pid is gone.
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(work_root, ec)) {
        std::string name = entry.path().filename().string();
        if (name.rfind("run-", 0) != 0)
            continue;
        std::string pid = name.substr(4);
        if (!fs::exists("/proc/" + pid)) {
            fs::remove_all(entry.path(), ec);
            shm_unlink(("/mercury.perfbench." + pid).c_str());
        }
    }
    fs::create_directories(ctx.workDir);

    Tracer tracer;
    tracer.setWorkload(workload);
    ctx.tracer = &tracer;

    Outcome outcome;
    if (trace == 0) {
        ctx.seconds = seconds;
        outcome = runWorkload(workload, ctx);
        if (!outcome.correct)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         outcome.failure.c_str());
        stopAllChildren();
        fs::remove_all(ctx.workDir);
        printResult(outcome, kEndToEnd, std::size(kEndToEnd),
                    outcome.metrics);
        return 0;
    }

    // Traced mode: untraced, traced and untraced passes of the same
    // seed and length give the tracing overhead. The traced pass is
    // compared with the mean of the passes on either side, which
    // cancels a host speed that drifts steadily across the three. The
    // probes fill in the layers the workloads do not reach.
    ctx.seconds = seconds * 0.2;
    Outcome before = runWorkload(workload, ctx);
    ctx.coldSetup = false;
    tracer.setEnabled(true);
    Outcome traced = runWorkload(workload, ctx);
    tracer.setEnabled(false);
    Outcome after = runWorkload(workload, ctx);
    tracer.setEnabled(true);
    merge(outcome, traced, true);
    merge(outcome, before, true);
    merge(outcome, after, true);
    double base_op =
        0.5 * (before.metrics["op_wall_us"] + after.metrics["op_wall_us"]);
    outcome.layers["trace.overhead_pct"] =
        base_op > 0.0
            ? (traced.metrics["op_wall_us"] - base_op) / base_op * 100.0
            : 0.0;

    // Layers the other workloads drive come from short traced passes.
    // Their operations are not counted, so attempted and failed speak
    // of this workload alone, as in an untraced run.
    for (const char *other : {"freon_section5", "fleet_trace",
                              "solverd_live"}) {
        if (workload == other)
            continue;
        RunContext short_ctx = ctx;
        short_ctx.seconds = std::max(1.0, seconds * 0.1);
        merge(outcome, runWorkload(other, short_ctx), false);
    }
    runLayerProbes(ctx, outcome.layers, outcome);
    outcome.layers["trace.spans"] = double(tracer.kept());

    stopAllChildren();
    std::string span_file =
        (work_root / ("spans-" + workload + "-" + std::to_string(seed) +
                      ".json"))
            .string();
    if (!tracer.writeJson(span_file))
        outcome.check(false, "cannot write " + span_file);
    else
        std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                     tracer.kept(), span_file.c_str());
    if (!outcome.correct)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     outcome.failure.c_str());
    fs::remove_all(ctx.workDir);
    printResult(outcome, kPerLayer, std::size(kPerLayer), outcome.layers);
    return 0;
}
