/**
 * @file
 * Workload freon_section5: the paper's Section 5 experiment, in
 * process. One repetition runs base Freon, Freon-EC and the
 * traditional policy back to back on 4 Table 1 servers, the diurnal
 * trace with 30% CGI and the inlet emergencies on m1 and m3 at 480 s.
 * Repetition r draws its workload seed from (--seed, r), so a run
 * medians over many request sequences instead of one. After each
 * repetition, untimed, Freon-EC runs once more on a fixed workload
 * seed on which it drops requests; that run counts as one failed
 * operation while the fault stands.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include <unistd.h>

#include "core/solver.hh"
#include "core/spec.hh"
#include "freon/experiment.hh"
#include "harness.hh"
#include "proto/solver_service.hh"
#include "sensor/client.hh"
#include "sensor/transport.hh"

namespace perfbench {
namespace {

using namespace mercury;

constexpr double kCpuRedline = 76.0; // T_r of FreonConfig::table1Defaults
constexpr double kEmergencyAt = 480.0;

/**
 * A workload seed on which Freon-EC drops requests (1006 of 387690)
 * under the Section 5 emergencies, where it should drop none. It does
 * not depend on --seed: every repetition runs it once and counts it as
 * a failed operation while the fault stands.
 */
constexpr uint64_t kEcDroppingSeed = 4294279809680864835ULL;

freon::ExperimentConfig
section5Config(freon::PolicyKind policy, uint64_t seed)
{
    freon::ExperimentConfig config;
    config.policy = policy;
    config.workload.seed = seed;
    config.addPaperEmergencies();
    return config;
}

/**
 * Trapezoid integral of the 10 s clusterPower samples against the
 * solver's exact energy. Between samples power may move by at most
 * the cluster's full swing; the integral error over an interval is at
 * most half that swing times the interval, and only intervals whose
 * endpoints differ (or that hold a server power transition) can err.
 * Bound: dt/2 * sum |P[i+1] - P[i]| plus one interval of full power
 * for the ends, which the samples do not cover.
 */
void
checkEnergy(const freon::ExperimentResult &result, const char *policy,
            Outcome &outcome)
{
    const TimeSeries &power = result.clusterPower;
    outcome.check(power.size() >= 2,
                  std::string(policy) + ": no clusterPower samples");
    if (power.size() < 2)
        return;
    double trapezoid = 0.0;
    double variation = 0.0;
    double dt = power.timeAt(1) - power.timeAt(0);
    for (size_t i = 0; i + 1 < power.size(); ++i) {
        double width = power.timeAt(i + 1) - power.timeAt(i);
        trapezoid +=
            0.5 * width * (power.valueAt(i) + power.valueAt(i + 1));
        variation += std::abs(power.valueAt(i + 1) - power.valueAt(i));
    }
    // Uncovered ends: [0, first sample] and [last sample, horizon].
    double horizon = 2000.0;
    double uncovered = power.timeAt(0) +
                       std::max(0.0, horizon - power.timeAt(power.size() - 1));
    double bound = 0.5 * dt * variation + (uncovered + dt) * power.maxValue();
    double error = std::abs(result.energyJoules - trapezoid);
    outcome.check(error <= bound,
                  std::string(policy) + ": energyJoules " +
                      std::to_string(result.energyJoules) +
                      " vs trapezoid " + std::to_string(trapezoid) +
                      " beyond sampling bound " + std::to_string(bound));
}

void
checkCommon(const freon::ExperimentResult &result, const char *policy,
            Outcome &outcome)
{
    // Requests still in service at the horizon are neither completed
    // nor dropped, and ExperimentResult does not count them, so only
    // conservation (never more outcomes than arrivals) is checkable.
    outcome.check(result.completed + result.dropped <= result.submitted,
                  std::string(policy) + ": completed + dropped (" +
                      std::to_string(result.completed + result.dropped) +
                      ") > submitted (" +
                      std::to_string(result.submitted) + ")");
    outcome.check(result.submitted > 0,
                  std::string(policy) + ": no requests");
    checkEnergy(result, policy, outcome);
}

void
checkThermal(const freon::ExperimentResult &result, const char *policy,
             Outcome &outcome)
{
    for (const auto &[machine, series] : result.cpuTemperature) {
        outcome.check(series.maxValue() < kCpuRedline,
                      std::string(policy) + ": " + machine +
                          " CPU reached T_r (" +
                          std::to_string(series.maxValue()) + " C)");
    }
}

void
checkRepetition(const freon::ExperimentResult &base,
                const freon::ExperimentResult &ec,
                const freon::ExperimentResult &traditional,
                Outcome &outcome)
{
    checkCommon(base, "base", outcome);
    checkCommon(ec, "ec", outcome);
    checkCommon(traditional, "traditional", outcome);
    checkThermal(base, "base", outcome);
    checkThermal(ec, "ec", outcome);
    outcome.check(base.dropped == 0, "base: dropped " +
                                         std::to_string(base.dropped) +
                                         " requests");
    // Freon-EC's zero-drop claim is not checked on these seeded runs:
    // it fails on some workload seeds and not others, so the share of
    // failed operations would move with --seed. The fixed-seed run in
    // runFreonSection5 shows the fault in every run instead.

    outcome.check(base.serversTurnedOff == 0,
                  "base: powered a server off");
    double m1_over = base.firstTimeOverHigh.at("m1");
    outcome.check(m1_over > kEmergencyAt,
                  "base: m1 CPU did not cross T_h after the emergency "
                  "(first crossing " + std::to_string(m1_over) + " s)");

    // Freon-EC shrinks to one active server, then grows back to four.
    const TimeSeries &active = ec.activeServers;
    double shrunk_at = -1.0;
    bool regrown = false;
    for (size_t i = 0; i < active.size(); ++i) {
        if (shrunk_at < 0.0 && active.valueAt(i) <= 1.0)
            shrunk_at = active.timeAt(i);
        if (shrunk_at >= 0.0 && active.valueAt(i) >= 4.0)
            regrown = true;
    }
    outcome.check(shrunk_at >= 0.0, "ec: never shrank to 1 server");
    outcome.check(regrown, "ec: never grew back to 4 servers");
    outcome.check(ec.energyJoules < base.energyJoules,
                  "ec: used no less energy than base Freon");

    outcome.check(traditional.serversTurnedOff >= 1,
                  "traditional: powered no server off");
    outcome.check(traditional.dropped > 0,
                  "traditional: dropped no requests");
}

} // namespace

Outcome
runFreonSection5(const RunContext &ctx)
{
    Outcome outcome;
    Tracer *tracer = ctx.tracer;

    // The tempds' read path, timed on its own: SensorClient::readMany
    // over LocalTransport into a 4-machine Table 1 solver.
    core::Solver probe_solver;
    std::vector<std::string> names = {"m1", "m2", "m3", "m4"};
    for (const std::string &name : names)
        probe_solver.addMachine(core::table1Server(name));
    probe_solver.setRoom(core::table1Room(names, 18.0));
    proto::SolverService probe_service(probe_solver);
    sensor::SensorClient probe_client(
        std::make_unique<sensor::LocalTransport>(probe_service), "m1");
    const std::vector<std::string> components = {"cpu", "disk"};

    std::vector<double> repetition_seconds;
    std::vector<double> cpu_per_emulated;
    std::vector<double> read_ns;
    std::vector<double> base_s, ec_s, traditional_s, requests, ec_dropped;

    uint64_t ec_dropping = 0, ec_max_dropped = 0, max_in_flight = 0;
    uint64_t ec_first_seed = 0;
    uint64_t repetitions = 0;
    uint64_t ec_fixed_dropped = 0;
    const pid_t self = getpid();
    Clock::time_point measure_start;
    for (uint64_t rep = 0;; ++rep, ++repetitions) {
        bool warmup = rep == 0;
        if (!warmup && secondsSince(measure_start) >= ctx.seconds)
            break;
        uint64_t seed = mix(ctx.seed * 1000003ULL + rep);

        Tracer::Scope rep_span(warmup ? nullptr : tracer,
                               "section5.repetition");
        double cpu0 = processCpuSeconds(self);
        auto t0 = Clock::now();
        freon::ExperimentResult base, ec, traditional;
        {
            Tracer::Scope span(warmup ? nullptr : tracer, "freon.base");
            base = freon::runExperiment(
                section5Config(freon::PolicyKind::FreonBase, seed));
        }
        auto t1 = Clock::now();
        {
            Tracer::Scope span(warmup ? nullptr : tracer, "freon.ec");
            ec = freon::runExperiment(
                section5Config(freon::PolicyKind::FreonEC, seed));
        }
        auto t2 = Clock::now();
        {
            Tracer::Scope span(warmup ? nullptr : tracer,
                               "freon.traditional");
            traditional = freon::runExperiment(
                section5Config(freon::PolicyKind::Traditional, seed));
        }
        auto t3 = Clock::now();
        double cpu = processCpuSeconds(self) - cpu0;

        outcome.attempted += 3;
        checkRepetition(base, ec, traditional, outcome);
        if (warmup && ctx.coldSetup)
            outcome.metrics["setup_s"] = secondsSinceProcessStart();

        // The known Freon-EC fault, outside the timed repetition and
        // the set-up.
        {
            Tracer::Scope span(warmup ? nullptr : tracer, "freon.ec_fixed");
            freon::ExperimentResult fixed = freon::runExperiment(
                section5Config(freon::PolicyKind::FreonEC, kEcDroppingSeed));
            checkCommon(fixed, "ec (fixed seed)", outcome);
            checkThermal(fixed, "ec (fixed seed)", outcome);
            ++outcome.attempted;
            if (fixed.dropped > 0) {
                ++outcome.failed;
                ec_fixed_dropped = fixed.dropped;
            }
        }
        ec_dropped.push_back(double(ec.dropped));
        if (ec.dropped > 0) {
            if (ec_dropping == 0)
                ec_first_seed = seed;
            ++ec_dropping;
            ec_max_dropped = std::max(ec_max_dropped, ec.dropped);
        }
        max_in_flight = std::max(
            max_in_flight,
            base.submitted - base.completed - base.dropped);

        if (warmup) {
            measure_start = Clock::now();
            continue;
        }
        auto seconds = [](Clock::time_point a, Clock::time_point b) {
            return std::chrono::duration<double>(b - a).count();
        };
        repetition_seconds.push_back(seconds(t0, t3));
        base_s.push_back(seconds(t0, t1));
        ec_s.push_back(seconds(t1, t2));
        traditional_s.push_back(seconds(t2, t3));
        requests.push_back(double(base.submitted + ec.submitted +
                                  traditional.submitted));
        double emulated = 3.0 * 2000.0;
        cpu_per_emulated.push_back(cpu / emulated * 1e6);

        // Sensor reads between repetitions, outside the timed span.
        constexpr int kReads = 2000;
        auto r0 = Clock::now();
        for (int i = 0; i < kReads; ++i) {
            auto values = probe_client.readMany(components);
            if (!values[0] || !values[1])
                ++outcome.failed;
        }
        read_ns.push_back(secondsSince(r0) * 1e9 /
                          double(kReads * components.size()));
    }

    outcome.check(!repetition_seconds.empty(), "no timed repetition");
    std::fprintf(stderr,
                 "perfbench: %llu repetitions; Freon-EC dropped requests "
                 "in %llu (at most %llu; first at workload seed %llu) and "
                 "%llu at fixed workload seed %llu; base Freon left up to "
                 "%llu requests in service at the horizon\n",
                 (unsigned long long)repetitions,
                 (unsigned long long)ec_dropping,
                 (unsigned long long)ec_max_dropped,
                 (unsigned long long)ec_first_seed,
                 (unsigned long long)ec_fixed_dropped,
                 (unsigned long long)kEcDroppingSeed,
                 (unsigned long long)max_in_flight);
    describeBlocks("op_wall_us", repetition_seconds);
    outcome.metrics["op_wall_us"] =
        percentile(repetition_seconds, 0.10) * 1e6;
    outcome.layers["freon.cpu_us_per_emulated_s"] = median(cpu_per_emulated);
    outcome.metrics["peak_rss_mb"] = peakRssMb(self);

    outcome.layers["freon.base_s"] = median(base_s);
    outcome.layers["freon.ec_s"] = median(ec_s);
    outcome.layers["freon.traditional_s"] = median(traditional_s);
    outcome.layers["lb.requests"] = median(requests);
    double dropped_total = 0.0;
    for (double d : ec_dropped)
        dropped_total += d;
    outcome.layers["freon.ec_dropped"] =
        ec_dropped.empty() ? 0.0 : dropped_total / double(ec_dropped.size());
    // The fixed-seed fault, so that it shows in the traced runs of the
    // other workloads too, where this pass's operations are not counted.
    outcome.layers["freon.ec_fixed_seed_dropped"] = double(ec_fixed_dropped);
    outcome.layers["sensor.local_read_many_us"] =
        median(read_ns) * double(components.size()) * 1e-3;
    return outcome;
}

} // namespace perfbench
