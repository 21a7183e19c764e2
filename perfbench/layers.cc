/**
 * @file
 * Per-layer probes of the traced mode: each times calls into one
 * module's public functions, from outside, with a span per timed
 * block. The workload passes measure the layers they drive
 * themselves; these cover the rest.
 */

#include <thread>

#include <unistd.h>

#include "core/solver.hh"
#include "core/spec.hh"
#include "core/thermal_graph.hh"
#include "harness.hh"
#include "proto/messages.hh"
#include "proto/wal_codec.hh"
#include "replica/wal.hh"
#include "state/checkpoint.hh"
#include "telemetry/reader.hh"
#include "telemetry/writer.hh"
#include "util/thread_pool.hh"

namespace perfbench {
namespace {

using namespace mercury;

/**
 * Median per-call time [s] of @p fn over @p blocks blocks of @p calls
 * calls, one span per block.
 */
template <typename Fn>
double
timePerCall(Tracer *tracer, const char *span, int blocks, int calls, Fn fn)
{
    std::vector<double> per_call;
    for (int b = 0; b < blocks; ++b) {
        Tracer::Scope scope(tracer, span);
        auto t0 = Clock::now();
        for (int i = 0; i < calls; ++i)
            fn();
        per_call.push_back(secondsSince(t0) / calls);
    }
    return median(per_call);
}

std::unique_ptr<core::Solver>
tableOneSolver(int machines, core::SolverConfig config = {})
{
    auto solver = std::make_unique<core::Solver>(config);
    std::vector<std::string> names;
    for (int m = 0; m < machines; ++m) {
        names.push_back("m" + std::to_string(m + 1));
        solver->addMachine(core::table1Server(names.back()));
    }
    solver->setRoom(core::table1Room(names, 18.0));
    for (int m = 0; m < machines; ++m)
        solver->setUtilization(names[size_t(m)], "cpu", 0.1 * (m % 11));
    return solver;
}

} // namespace

void
runLayerProbes(const RunContext &ctx, std::map<std::string, double> &layers,
               Outcome &outcome)
{
    Tracer *tracer = ctx.tracer;
    auto put = [&](const char *name, double value) {
        layers.emplace(name, value);
    };

    {
        core::ThermalGraph graph(core::table1Server("probe"));
        graph.setUtilization("cpu", 0.7);
        put("core.machine_step_ns",
            timePerCall(tracer, "core.ThermalGraph.step", 50, 2000,
                        [&] { graph.step(1.0); }) *
                1e9);
    }

    for (int machines : {4, 64}) {
        auto solver = tableOneSolver(machines);
        solver->run(50);
        double us = timePerCall(tracer,
                                machines == 4 ? "core.iterate4"
                                              : "core.iterate64",
                                50, 100, [&] { solver->iterate(); }) *
                    1e6;
        put(machines == 4 ? "core.iterate4_us" : "core.iterate64_us", us);
    }

    {
        ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
        std::vector<double> sink(4, 0.0);
        put("util.parallel_for_us",
            timePerCall(tracer, "util.ThreadPool.parallelFor", 50, 200,
                        [&] {
                            pool.parallelFor(4, [&](size_t i) {
                                sink[i] += 1.0;
                            });
                        }) *
                1e6);
    }

    {
        // Every machine frozen: the engine's floor cost per iteration.
        core::SolverConfig config;
        config.quiescenceEpsilon = 0.05;
        auto solver = tableOneSolver(1024, config);
        for (int i = 0; i < 20000 && solver->activeMachineCount() > 0; ++i)
            solver->iterate();
        outcome.check(solver->activeMachineCount() == 0,
                      "probe: constant-load fleet never fully froze");
        put("core.frozen_iterate_us",
            timePerCall(tracer, "core.frozen_iterate", 50, 20,
                        [&] { solver->iterate(); }) *
                1e6);
        core::Solver::NodeRef ref = solver->resolveRef("m1", "cpu");
        double value = 0.0;
        put("core.set_utilization_ns",
            timePerCall(tracer, "core.setUtilization", 50, 2000,
                        [&] {
                            value = value > 0.5 ? 0.25 : 0.75;
                            solver->setUtilization(ref, value);
                        }) *
                1e9);
    }

    {
        proto::UtilizationUpdate update;
        update.machine = "m17";
        update.component = "cpu";
        update.utilization = 0.5;
        uint64_t bad = 0;
        put("proto.codec_ns",
            timePerCall(tracer, "proto.codec", 50, 5000,
                        [&] {
                            ++update.sequence;
                            proto::Packet packet = proto::encode(update);
                            if (!proto::decode(packet))
                                ++bad;
                        }) *
                1e9);
        outcome.check(bad == 0, "probe: proto round trip failed");
    }

    {
        auto solver = tableOneSolver(64);
        std::string shm =
            "/mercury.perfbench." + std::to_string(getpid()) + ".probe";
        telemetry::Writer writer(shm, *solver, 1.0);
        outcome.check(writer.valid(), "probe: telemetry writer invalid");
        if (writer.valid()) {
            put("telemetry.publish_us",
                timePerCall(tracer, "telemetry.Writer.publish", 50, 200,
                            [&] { writer.publish(); }) *
                    1e6);
            telemetry::Reader reader(shm);
            auto slot = reader.resolve("m33", "cpu");
            outcome.check(slot.has_value(), "probe: shm slot unresolved");
            uint64_t misses = 0;
            if (slot) {
                put("telemetry.read_ns",
                    timePerCall(tracer, "telemetry.Reader.read", 50, 5000,
                                [&] {
                                    if (!reader.read(*slot))
                                        ++misses;
                                }) *
                        1e9);
            }
            outcome.check(misses == 0, "probe: shm read missed");
        }

        std::string error;
        std::string wal_path = ctx.workDir + "/probe.wal";
        replica::WalHeader header;
        header.topologyHash = state::topologyHash(*solver);
        auto wal = replica::WalWriter::create(wal_path, header, &error);
        outcome.check(wal != nullptr, "probe: WAL create: " + error);
        if (wal) {
            proto::UtilizationUpdate update;
            update.machine = "m17";
            update.component = "cpu";
            replica::WalRecord record;
            record.kind = replica::WalRecordKind::Mutation;
            uint64_t sequence = 0;
            put("replica.wal_append_ns",
                timePerCall(tracer, "replica.WalWriter.append", 50, 2000,
                            [&] {
                                update.sequence = ++sequence;
                                record.sequence = sequence;
                                record.payload =
                                    proto::encodeWalMutation(update);
                                wal->append(record);
                            }) *
                    1e9);
            outcome.check(wal->flush(), "probe: WAL flush failed");
            put("replica.wal_bytes_per_record",
                double(wal->bytesAppended()) /
                    double(wal->recordsAppended()));
        }

        std::string ck_path = ctx.workDir + "/probe.ck";
        bool saved = true;
        put("state.checkpoint_save_ms",
            timePerCall(tracer, "state.saveCheckpointFile", 10, 1,
                        [&] {
                            saved &= state::saveCheckpointFile(
                                ck_path, state::captureSolver(*solver),
                                &error);
                        }) *
                1e3);
        outcome.check(saved, "probe: checkpoint save: " + error);
    }
}

} // namespace perfbench
