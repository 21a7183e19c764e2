/**
 * @file
 * Workload fleet_trace: the paper's trace mode replicated to a room of
 * 1024 Table 1 machines, driven through core::TraceRunner with the
 * quiescence engine on and the solver's default executor count.
 *
 * The seeded generator holds each machine's CPU and disk levels for
 * kHoldSeconds, far past the ~180 s thermal settling time, and
 * staggers the change times uniformly, so only a minority of the
 * fleet is in transient at any moment. The schedule is a pure
 * function of (seed, machine, change index): any block of it can be
 * generated on demand, and the harness integrates the fleet's Table 1
 * power over the same schedule to check the solver's energy.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include <unistd.h>

#include "core/solver.hh"
#include "core/spec.hh"
#include "core/trace.hh"
#include "graphdot/parser.hh"
#include "graphdot/writer.hh"
#include "harness.hh"
#include "proto/solver_service.hh"
#include "sensor/client.hh"
#include "sensor/transport.hh"
#include "util/units.hh"

namespace perfbench {
namespace {

using namespace mercury;

constexpr int kMachines = 1024;
constexpr double kHoldSeconds = 3600.0;
constexpr double kEpsilon = 0.05;
constexpr int kBlockIterations = 200;
constexpr int kLeadInIterations = 20000;
/** A machine counts as settled this long after its last change. */
constexpr double kSettledSeconds = 1800.0;

std::string
machineName(int index)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "f%04d", index);
    return buf;
}

/** Seeded level schedule: levels change at phase + (j - 1) * hold. */
class Schedule
{
  public:
    explicit Schedule(uint64_t seed) : seed_(seed)
    {
        for (int m = 0; m < kMachines; ++m) {
            phase_.push_back(
                std::floor(unit(key(m, 0, 3)) * kHoldSeconds) + 1.0);
        }
    }

    /** CPU (component 0) or disk (1) level of change @p j on @p m. */
    double
    level(int m, uint64_t j, int component) const
    {
        return std::floor(unit(key(m, j, component)) * 11.0) / 10.0;
    }

    /** Emulated time of change @p j >= 1 of machine @p m. */
    double
    changeTime(int m, uint64_t j) const
    {
        return phase_[size_t(m)] + double(j - 1) * kHoldSeconds;
    }

  private:
    uint64_t
    key(int m, uint64_t j, int what) const
    {
        return mix(seed_ ^ mix((uint64_t(m) << 40) ^ (j << 4) ^
                               uint64_t(what)));
    }

    uint64_t seed_;
    std::vector<double> phase_;
};

struct Fleet
{
    core::MachineSpec spec = core::table1Server("template");
    std::vector<std::string> names;
    std::vector<uint64_t> nextChange;  //!< per machine: next change index
    std::vector<double> lastChangeAt;  //!< per machine [emulated s]
    std::vector<double> watts;         //!< per machine, harness model
    double fleetWatts = 0.0;
    double energy = 0.0;               //!< harness integral [J]

    /** Table 1 power: sum of Pmin + u (Pmax - Pmin) over powered nodes. */
    double
    power(double cpu, double disk) const
    {
        double total = 0.0;
        for (const core::NodeSpec &node : spec.nodes) {
            if (!node.hasPower)
                continue;
            double u = node.name == "cpu"             ? cpu
                       : node.name == "disk_platters" ? disk
                                                      : 0.0;
            total += node.minPower + u * (node.maxPower - node.minPower);
        }
        return total;
    }
};

/**
 * Append to @p trace every change in [t0, t0 + iterations) and
 * advance the harness's power integral over the same iterations,
 * applying changes exactly where TraceRunner does: before the
 * iteration that starts at their timestamp.
 */
void
planBlock(const Schedule &schedule, Fleet &fleet, double t0,
          int iterations, core::UtilizationTrace &trace)
{
    struct Change
    {
        double time;
        int machine;
        double cpu, disk;
    };
    std::vector<Change> changes;
    double t1 = t0 + iterations;
    for (int m = 0; m < kMachines; ++m) {
        uint64_t &j = fleet.nextChange[size_t(m)];
        while (schedule.changeTime(m, j) < t1) {
            double at = schedule.changeTime(m, j);
            changes.push_back({at, m, schedule.level(m, j, 0),
                               schedule.level(m, j, 1)});
            ++j;
        }
    }
    std::sort(changes.begin(), changes.end(),
              [](const Change &a, const Change &b) {
                  return a.time < b.time ||
                         (a.time == b.time && a.machine < b.machine);
              });
    size_t next = 0;
    for (int i = 0; i < iterations; ++i) {
        double now = t0 + i;
        while (next < changes.size() && changes[next].time <= now) {
            const Change &c = changes[next++];
            const std::string &name = fleet.names[size_t(c.machine)];
            trace.add(c.time, name, "cpu", c.cpu);
            trace.add(c.time, name, "disk", c.disk);
            double w = fleet.power(c.cpu, c.disk);
            fleet.fleetWatts += w - fleet.watts[size_t(c.machine)];
            fleet.watts[size_t(c.machine)] = w;
            fleet.lastChangeAt[size_t(c.machine)] = c.time;
        }
        fleet.energy += fleet.fleetWatts; // one emulated second
    }
}

void
runBlock(core::Solver &solver, const Schedule &schedule, Fleet &fleet,
         int iterations)
{
    core::UtilizationTrace trace;
    planBlock(schedule, fleet, solver.emulatedSeconds(), iterations, trace);
    core::TraceRunner runner(solver, trace);
    runner.run(iterations);
}

} // namespace

Outcome
runFleetTrace(const RunContext &ctx)
{
    Outcome outcome;
    Tracer *tracer = ctx.tracer;

    // --- Set-up: generate and load the config, build, lead in. ---
    const double entered_at = secondsSinceProcessStart();
    double ac = 18.0 + std::floor(unit(mix(ctx.seed) ^ 0xac) * 30.0) / 10.0;
    Fleet fleet;
    core::ConfigSpec generated;
    for (int m = 0; m < kMachines; ++m) {
        fleet.names.push_back(machineName(m));
        generated.machines.push_back(core::table1Server(fleet.names.back()));
    }
    generated.room = core::table1Room(fleet.names, ac);
    std::string config_path = ctx.workDir + "/fleet1024.dot";
    {
        std::ofstream out(config_path);
        out << graphdot::toText(generated);
    }
    auto load_start = Clock::now();
    core::ConfigSpec config = graphdot::loadConfigFile(config_path);
    outcome.layers["graphdot.load_ms"] = secondsSince(load_start) * 1e3;
    auto build_start = Clock::now();

    core::SolverConfig solver_config;
    solver_config.quiescenceEpsilon = kEpsilon;
    core::Solver solver(solver_config);
    for (const core::MachineSpec &machine : config.machines)
        solver.addMachine(machine);
    solver.setRoom(*config.room);

    Schedule schedule(ctx.seed);
    fleet.nextChange.assign(kMachines, 1);
    fleet.lastChangeAt.assign(kMachines, 0.0);
    {
        // Levels at t = 0 are change index 0.
        core::UtilizationTrace initial;
        for (int m = 0; m < kMachines; ++m) {
            double cpu = schedule.level(m, 0, 0);
            double disk = schedule.level(m, 0, 1);
            initial.add(0.0, fleet.names[size_t(m)], "cpu", cpu);
            initial.add(0.0, fleet.names[size_t(m)], "disk", disk);
            fleet.watts.push_back(fleet.power(cpu, disk));
            fleet.fleetWatts += fleet.watts.back();
        }
        core::UtilizationTrace lead_in = initial;
        planBlock(schedule, fleet, 0.0, kLeadInIterations, lead_in);
        auto lead_in_start = Clock::now();
        core::TraceRunner runner(solver, lead_in);
        runner.run(kLeadInIterations);
        std::fprintf(stderr,
                     "perfbench: set-up: %.3f s to main, %.3f s config "
                     "load, %.3f s build and plan, %.3f s lead-in\n",
                     entered_at,
                     outcome.layers["graphdot.load_ms"] * 1e-3,
                     std::chrono::duration<double>(lead_in_start -
                                                   build_start)
                         .count(),
                     secondsSince(lead_in_start));
    }
    if (ctx.coldSetup)
        outcome.metrics["setup_s"] = secondsSinceProcessStart();

    // The in-process read path against the fleet solver.
    proto::SolverService service(solver);
    sensor::SensorClient reader(
        std::make_unique<sensor::LocalTransport>(service), fleet.names[0]);

    // --- Timed blocks. ---
    std::vector<double> iteration_us, cpu_us, read_ns;
    pid_t self = getpid();
    auto measure_start = Clock::now();
    // Warm-up block (untimed) so the pool and caches are hot.
    runBlock(solver, schedule, fleet, kBlockIterations);
    outcome.attempted += kBlockIterations;
    while (secondsSince(measure_start) < ctx.seconds) {
        core::UtilizationTrace trace;
        planBlock(schedule, fleet, solver.emulatedSeconds(),
                  kBlockIterations, trace);
        double cpu0 = processCpuSeconds(self);
        auto t0 = Clock::now();
        {
            Tracer::Scope span(tracer, "core.TraceRunner.run");
            core::TraceRunner runner(solver, trace);
            runner.run(kBlockIterations);
        }
        double wall = secondsSince(t0);
        double cpu = processCpuSeconds(self) - cpu0;
        iteration_us.push_back(wall / kBlockIterations * 1e6);
        cpu_us.push_back(cpu / kBlockIterations * 1e6);
        outcome.attempted += kBlockIterations;

        constexpr int kReads = 64;
        auto r0 = Clock::now();
        for (int i = 0; i < kReads; ++i) {
            if (!reader.read("cpu"))
                ++outcome.failed;
        }
        read_ns.push_back(secondsSince(r0) * 1e9 / kReads);
    }

    // The fast mode of a host-bimodal block time; see README.md.
    describeBlocks("op_wall_us", iteration_us);
    outcome.metrics["op_wall_us"] = percentile(iteration_us, 0.10);
    outcome.layers["core.fleet_cpu_us_per_iteration"] = median(cpu_us);
    outcome.layers["sensor.local_read_ns"] = median(read_ns);
    outcome.metrics["peak_rss_mb"] = peakRssMb(self);

    // --- Checks. ---
    double solver_energy = 0.0;
    for (const std::string &name : fleet.names)
        solver_energy += solver.machine(name).energyConsumed();
    double rel = std::abs(solver_energy - fleet.energy) / fleet.energy;
    outcome.check(rel < 1e-9, "energy: solver " +
                                  std::to_string(solver_energy) +
                                  " J vs Table 1 integral " +
                                  std::to_string(fleet.energy) + " J");

    double now = solver.emulatedSeconds();
    size_t settled = 0;
    double worst_balance = 0.0;
    for (int m = 0; m < kMachines; ++m) {
        const core::ThermalGraph &graph =
            solver.machine(fleet.names[size_t(m)]);
        for (double t : graph.temperatures()) {
            outcome.check(std::isfinite(t) && t >= ac - 1e-9,
                          graph.name() + ": temperature " +
                              std::to_string(t) + " below AC supply " +
                              std::to_string(ac));
        }
        if (now - fleet.lastChangeAt[size_t(m)] < kSettledSeconds)
            continue;
        ++settled;
        // Steady state: all heat leaves with the exhaust air.
        double flow = graph.massFlow(graph.nodeId("exhaust"));
        double carried = flow * units::kAirSpecificHeat *
                         (graph.exhaustTemperature() -
                          graph.inletTemperature());
        double imbalance = std::abs(graph.totalPower() - carried);
        // Quiescence may park every node up to 2 * epsilon from its
        // exact trajectory; the exhaust carries that error at flow * c.
        double tolerance = flow * units::kAirSpecificHeat * 2.0 * kEpsilon;
        worst_balance = std::max(worst_balance, imbalance / tolerance);
        outcome.check(imbalance <= tolerance,
                      graph.name() + ": power " +
                          std::to_string(graph.totalPower()) +
                          " W vs exhaust heat " + std::to_string(carried) +
                          " W");
    }
    outcome.check(settled > kMachines / 8,
                  "too few settled machines to check energy balance");
    std::fprintf(stderr,
                 "perfbench: %zu settled machines, worst energy-balance "
                 "residual %.3g of its tolerance\n",
                 settled, worst_balance);

    if (tracer && tracer->enabled()) {
        // Per-layer: Solver::iterate() driven directly on the same
        // schedule, and the room step over the 1024-machine room.
        std::vector<double> active;
        for (int b = 0; b < 10; ++b) {
            core::UtilizationTrace trace;
            planBlock(schedule, fleet, solver.emulatedSeconds(), 20, trace);
            size_t next = 0;
            const auto &samples = trace.samples();
            for (int i = 0; i < 20; ++i) {
                double t = solver.emulatedSeconds();
                while (next < samples.size() &&
                       samples[next].time <= t + 1e-9) {
                    solver.setUtilization(samples[next].machine,
                                          samples[next].component,
                                          samples[next].utilization);
                    ++next;
                }
                Tracer::Scope span(tracer, "core.iterate");
                solver.iterate();
                active.push_back(double(solver.activeMachineCount()));
            }
        }
        outcome.layers["core.iterate_us"] =
            tracer->medianDuration("core.iterate") * 1e6;
        outcome.layers["core.active_machines"] = median(active);
        for (int i = 0; i < 200; ++i) {
            Tracer::Scope span(tracer, "core.RoomModel.step");
            solver.room().step();
        }
        outcome.layers["core.room_step_us"] =
            tracer->medianDuration("core.RoomModel.step") * 1e6;
    }
    return outcome;
}

} // namespace perfbench
