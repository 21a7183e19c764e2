/**
 * @file
 * Workload solverd_live: the deployed daemons. The real
 * mercury_solverd runs as primary over 64 Table 1 machines with a WAL,
 * periodic checkpoints, shm telemetry and a 10 ms iteration period; a
 * second mercury_solverd --replica-of shadows it as hot standby. This
 * one generator thread drives three phases against the primary:
 *
 *  - paced: the deployed traffic at its configured rates, an open
 *    loop. Every monitord period (1 s, monitord's --period default)
 *    each machine sends a cpu and a disk update; every tempd period
 *    (FreonConfig::tempdPeriodSeconds, 60 s) each machine's tempd
 *    makes one batched read of cpu and disk. The primary's CPU per
 *    iteration is read from /proc/<pid>/task/<tid>/schedstat;
 *  - saturation: a pipelined closed loop, 16 reads in flight, cycling
 *    through one single read, one batched read and one update;
 *  - shm: readsensor() through the shared-memory telemetry segment.
 *
 * Ports are picked free (--port 0 with --port-file for the primary; a
 * released ephemeral port for the replication listener and the
 * standby), files live in the run's private directory, and every
 * daemon is stopped on every exit path.
 */

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/solver.hh"
#include "core/spec.hh"
#include "freon/config.hh"
#include "graphdot/writer.hh"
#include "harness.hh"
#include "net/udp.hh"
#include "proto/messages.hh"
#include "proto/solver_service.hh"
#include "proto/wal_codec.hh"
#include "replica/wal.hh"
#include "sensor/client.hh"
#include "sensor/sensor_api.hh"
#include "sensor/transport.hh"
#include "state/checkpoint.hh"
#include "telemetry/reader.hh"

namespace perfbench {

namespace {

using namespace mercury;

constexpr int kMachines = 64;
constexpr double kIterationSeconds = 0.01;
/** monitord's --period default: one update per component per second. */
constexpr double kMonitordPeriodSeconds = 1.0;
constexpr size_t kWindow = 16;
constexpr double kMaxCelsius = 150.0;

// Children live in a fixed array so the signal handler can reach them
// without allocating.
constexpr int kMaxChildren = 4;
volatile pid_t children[kMaxChildren] = {};

void
forgetChild(pid_t pid)
{
    for (int i = 0; i < kMaxChildren; ++i) {
        if (children[i] == pid)
            children[i] = 0;
    }
}

/** fork/exec a daemon whose output goes to @p log; dies with us. */
pid_t
spawn(const std::vector<std::string> &args, const std::string &log)
{
    std::vector<char *> argv;
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    pid_t parent = getpid();
    pid_t pid = fork();
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            dup2(fd, 1);
            dup2(fd, 2);
            close(fd);
        }
        execv(argv[0], argv.data());
        _exit(127);
    }
    if (pid > 0) {
        for (int i = 0; i < kMaxChildren; ++i) {
            if (children[i] == 0) {
                children[i] = pid;
                break;
            }
        }
    }
    return pid;
}

/** SIGTERM @p pid and reap it; SIGKILL after @p grace seconds. */
int
terminate(pid_t pid, double grace)
{
    if (pid <= 0)
        return -1;
    kill(pid, SIGTERM);
    int status = 0;
    auto start = Clock::now();
    while (waitpid(pid, &status, WNOHANG) == 0) {
        if (secondsSince(start) > grace) {
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    forgetChild(pid);
    return status;
}

/** A free UDP port: bind port 0, read it, release it. */
uint16_t
freeUdpPort()
{
    net::UdpSocket socket;
    socket.bind(0);
    return socket.localPort();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Parse the registry's summary text: plain "name value" lines and
 *  histogram lines "name count=.. mean=.. p50=.. p99=..". */
std::map<std::string, double>
parseMetrics(const std::string &text)
{
    std::map<std::string, double> out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string name, field;
        fields >> name;
        while (fields >> field) {
            size_t eq = field.find('=');
            try {
                if (eq == std::string::npos)
                    out[name] = std::stod(field);
                else
                    out[name + "_" + field.substr(0, eq)] =
                        std::stod(field.substr(eq + 1));
            } catch (const std::exception &) {
            }
        }
    }
    return out;
}

/** Control-plane client for one daemon (metrics and replica RPCs). */
class Control
{
  public:
    explicit Control(uint16_t port)
        : client_(std::make_unique<sensor::UdpTransport>("127.0.0.1", port,
                                                         0.25, 8),
                  "m1")
    {
    }

    std::map<std::string, double>
    metrics()
    {
        auto text = client_.metricsText();
        return text ? parseMetrics(*text) : std::map<std::string, double>{};
    }

    std::string
    replica()
    {
        auto [ok, line] = client_.fiddle("replica");
        return ok ? line : "";
    }

  private:
    sensor::SensorClient client_;
};

/** The one generator: a UDP socket aimed at the primary. */
class Generator
{
  public:
    Generator(uint16_t port, uint64_t seed, double ac)
        : to_{*net::resolveHost("127.0.0.1"), port}, seed_(seed), ac_(ac)
    {
        socket_.bind(0);
        for (int m = 0; m < kMachines; ++m)
            names_.push_back("m" + std::to_string(m + 1));
        sequence_.assign(kMachines, 0);
    }

    uint64_t updatesSent() const { return updatesSent_; }
    uint64_t readsFailed() const { return readsFailed_; }
    std::string firstBadRead() const { return firstBadRead_; }

    /** One monitord-style update of @p component on machine @p m. */
    void
    sendUpdate(int m, const char *component)
    {
        proto::Packet packet = nextUpdate(m, component);
        socket_.sendTo(to_, packet.data(), packet.size());
    }

    /** A monitord tick: cpu and disk of every machine, sent the way
     *  monitord sends them, through sendmmsg batches. */
    void
    sendTick()
    {
        std::vector<proto::Packet> packets;
        for (int m = 0; m < kMachines; ++m) {
            packets.push_back(nextUpdate(m, "cpu"));
            packets.push_back(nextUpdate(m, "disk"));
        }
        std::vector<net::UdpSocket::SendDatagram> items;
        for (const proto::Packet &packet : packets)
            items.push_back({to_, packet.data(), packet.size()});
        if (socket_.sendMany(items.data(), items.size()) != items.size())
            ++sendStalls_;
    }

    uint64_t sendStalls() const { return sendStalls_; }

    void
    sendRead(int m, bool multi)
    {
        uint32_t id = nextId_++;
        proto::Packet packet;
        if (multi) {
            proto::MultiReadRequest request;
            request.requestId = id;
            request.machine = names_[size_t(m)];
            request.components = {"cpu", "disk"};
            packet = proto::encode(request);
        } else {
            proto::SensorRequest request;
            request.requestId = id;
            request.machine = names_[size_t(m)];
            request.component = "cpu";
            packet = proto::encode(request);
        }
        socket_.sendTo(to_, packet.data(), packet.size());
        ++inFlight_;
    }

    /**
     * Receive whatever replies are ready (waiting up to @p timeout for
     * the first); returns the number of replies handled. A reply that
     * never comes is written off as failed after the timeout.
     */
    size_t
    receive(double timeout)
    {
        net::UdpSocket::RecvDatagram meta[net::UdpSocket::kMaxBatch];
        size_t got = socket_.recvMany(buffers_, proto::kMessageSize, meta,
                                      net::UdpSocket::kMaxBatch, timeout);
        if (got == 0 && inFlight_ > 0) {
            readsFailed_ += inFlight_;
            note("no reply within timeout");
            inFlight_ = 0;
            return 0;
        }
        for (size_t i = 0; i < got; ++i) {
            auto message = proto::decode(buffers_ + i * proto::kMessageSize,
                                         meta[i].length);
            if (inFlight_ > 0)
                --inFlight_;
            if (!message) {
                ++readsFailed_;
                note("undecodable reply");
            } else if (auto *one =
                           std::get_if<proto::SensorReply>(&*message)) {
                judge(one->status, one->temperature);
            } else if (auto *many =
                           std::get_if<proto::MultiReadReply>(&*message)) {
                bool ok = many->status == proto::Status::Ok &&
                          many->entries.size() == 2;
                for (const auto &entry : many->entries)
                    ok = ok && entry.status == proto::Status::Ok &&
                         bounded(entry.temperature);
                if (!ok) {
                    ++readsFailed_;
                    note("bad multi-read reply");
                }
            } else {
                ++readsFailed_;
                note("unexpected reply type");
            }
        }
        return got;
    }

    size_t inFlight() const { return inFlight_; }

  private:
    proto::Packet
    nextUpdate(int m, const char *component)
    {
        proto::UtilizationUpdate update;
        update.machine = names_[size_t(m)];
        update.component = component;
        update.utilization =
            std::floor(unit(seed_ ^ mix(updatesSent_)) * 101.0) / 100.0;
        update.sequence = ++sequence_[size_t(m)];
        ++updatesSent_;
        return proto::encode(update);
    }

    bool
    bounded(double t) const
    {
        return std::isfinite(t) && t >= ac_ - 1e-6 && t <= kMaxCelsius;
    }

    void
    judge(proto::Status status, double t)
    {
        if (status != proto::Status::Ok || !bounded(t)) {
            ++readsFailed_;
            note("bad read: status " + std::to_string(int(status)) +
                 " temperature " + std::to_string(t));
        }
    }

    void
    note(const std::string &what)
    {
        if (firstBadRead_.empty())
            firstBadRead_ = what;
    }

    net::UdpSocket socket_;
    net::Endpoint to_;
    uint64_t seed_;
    double ac_;
    std::vector<std::string> names_;
    std::vector<uint64_t> sequence_;
    uint32_t nextId_ = 1;
    size_t inFlight_ = 0;
    uint64_t updatesSent_ = 0;
    uint64_t readsFailed_ = 0;
    uint64_t sendStalls_ = 0;
    std::string firstBadRead_;
    uint8_t buffers_[net::UdpSocket::kMaxBatch * proto::kMessageSize];
};

/** CPU split of the primary: main (stepping) thread vs the rest. */
struct CpuSample
{
    double all = 0.0;
    double main = 0.0;
};

CpuSample
cpuOf(pid_t pid)
{
    return {processCpuSeconds(pid), threadCpuSeconds(pid, pid)};
}

} // namespace

void
stopAllChildren()
{
    // The primary unlinks its segment on SIGTERM, not on SIGKILL.
    shm_unlink(("/mercury.perfbench." + std::to_string(getpid())).c_str());
    for (int i = 0; i < kMaxChildren; ++i) {
        pid_t pid = children[i];
        if (pid > 0)
            kill(pid, SIGKILL);
    }
    for (int i = 0; i < kMaxChildren; ++i) {
        pid_t pid = children[i];
        if (pid > 0) {
            waitpid(pid, nullptr, 0);
            children[i] = 0;
        }
    }
}

Outcome
runSolverdLive(const RunContext &ctx)
{
    Outcome outcome;
    Tracer *tracer = ctx.tracer;
    const std::string dir = ctx.workDir;
    const std::string shm_name =
        "/mercury.perfbench." + std::to_string(getpid());

    // --- Config: 64 Table 1 machines, seeded AC supply. ---
    double ac = 18.0 + std::floor(unit(mix(ctx.seed) ^ 0x5d) * 30.0) / 10.0;
    core::ConfigSpec config;
    std::vector<std::string> names;
    for (int m = 0; m < kMachines; ++m) {
        names.push_back("m" + std::to_string(m + 1));
        config.machines.push_back(core::table1Server(names.back()));
    }
    config.room = core::table1Room(names, ac);
    const std::string config_path = dir + "/live64.dot";
    {
        std::ofstream out(config_path);
        out << graphdot::toText(config);
    }
    for (const char *file : {"/p.wal", "/p.wal.old", "/p.ck", "/gen.ck",
                             "/primary.port"})
        std::remove((dir + file).c_str());

    // --- Launch the pair. ---
    const std::string solverd = ctx.binDir + "/mercury_solverd";
    const std::string period = std::to_string(kIterationSeconds);
    uint16_t replication_port = freeUdpPort();
    pid_t primary = spawn(
        {solverd, "--config", config_path, "--port", "0", "--port-file",
         dir + "/primary.port", "--iteration-seconds", period,
         "--wal-path", dir + "/p.wal", "--checkpoint-path", dir + "/p.ck",
         "--checkpoint-seconds", "2", "--shm-name", shm_name,
         "--replication-port", std::to_string(replication_port),
         "--replica-heartbeat-seconds", "0.1"},
        dir + "/primary.log");
    uint16_t port = 0;
    auto launch = Clock::now();
    while (port == 0 && secondsSince(launch) < 30.0) {
        std::string text = readFile(dir + "/primary.port");
        if (!text.empty() && text.back() == '\n')
            port = uint16_t(std::atoi(text.c_str()));
        else
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (port == 0) {
        outcome.check(false, "primary never wrote its port file: " +
                                 readFile(dir + "/primary.log"));
        stopAllChildren();
        return outcome;
    }
    uint16_t standby_port = freeUdpPort();
    pid_t standby = spawn(
        {solverd, "--config", config_path, "--port",
         std::to_string(standby_port), "--iteration-seconds", period,
         "--replica-of", "127.0.0.1:" + std::to_string(replication_port),
         "--replica-heartbeat-seconds", "0.1", "--no-shm"},
        dir + "/standby.log");

    // Set-up ends when the first shm read succeeds and the standby
    // reports itself attached.
    setenv("MERCURY_SHM_NAME", shm_name.c_str(), 1);
    unsetenv("MERCURY_NO_SHM");
    int shm_sd = opensensor_for("127.0.0.1", port, "m1", "cpu");
    Control primary_ctl(port), standby_ctl(standby_port);
    bool ready = false;
    while (!ready && secondsSince(launch) < 30.0) {
        float t = readsensor(shm_sd);
        ready = std::isfinite(t) &&
                sensorpath(shm_sd) == MERCURY_SENSOR_PATH_SHM &&
                standby_ctl.replica().find("state=attached") !=
                    std::string::npos;
        if (!ready)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!ready) {
        outcome.check(false, "pair never became ready: " +
                                 readFile(dir + "/standby.log"));
        closesensor(shm_sd);
        stopAllChildren();
        return outcome;
    }
    if (ctx.coldSetup)
        outcome.metrics["setup_s"] = secondsSinceProcessStart();

    telemetry::Reader shm_reader(shm_name);
    auto shm_slot = shm_reader.resolve("m1", "cpu");
    auto iteration_now = [&]() -> double {
        auto sample = shm_slot ? shm_reader.read(*shm_slot) : std::nullopt;
        return sample ? double(sample->iteration) : 0.0;
    };

    Generator gen(port, ctx.seed, ac);
    const double paced_seconds = ctx.seconds * 0.30;
    const double saturation_seconds = ctx.seconds * 0.60;
    const double shm_seconds = ctx.seconds * 0.10;

    if (tracer && tracer->enabled()) {
        // Idle pair: what the stepping loop costs with no load at all.
        Tracer::Scope phase(tracer, "solverd.idle");
        CpuSample c0 = cpuOf(primary);
        double i0 = iteration_now();
        std::this_thread::sleep_for(std::chrono::seconds(1));
        CpuSample c1 = cpuOf(primary);
        double i1 = iteration_now();
        if (i1 > i0) {
            outcome.layers["solverd.idle_cpu_us_per_iteration"] =
                (c1.all - c0.all) / (i1 - i0) * 1e6;
            outcome.layers["solverd.idle_main_thread_cpu_us_per_iteration"] =
                (c1.main - c0.main) / (i1 - i0) * 1e6;
        }
    }

    // --- Paced phase: one monitord tick per monitord period. ---
    // Each machine's tempd reads once per tempd period; the machines'
    // read times are staggered evenly across it.
    const uint64_t tempd_ticks = uint64_t(
        freon::FreonConfig{}.tempdPeriodSeconds / kMonitordPeriodSeconds);
    std::vector<uint64_t> tempd_phase;
    for (int m = 0; m < kMachines; ++m)
        tempd_phase.push_back(uint64_t(m) * tempd_ticks / kMachines);
    std::vector<double> cpu_per_iter, main_per_iter, standby_per_iter;
    {
        Tracer::Scope phase(tracer, "solverd.paced");
        const double kBlock = std::min(0.5, paced_seconds / 4.0);
        auto start = Clock::now();
        auto block_start = start;
        CpuSample c0 = cpuOf(primary);
        double s0 = processCpuSeconds(standby);
        double i0 = iteration_now();
        for (uint64_t tick = 0; secondsSince(start) < paced_seconds; ++tick) {
            auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       double(tick) * kMonitordPeriodSeconds *
                                       kIterationSeconds));
            std::this_thread::sleep_until(due);
            gen.sendTick();
            for (int m = 0; m < kMachines; ++m) {
                if (tick % tempd_ticks == tempd_phase[size_t(m)]) {
                    gen.sendRead(m, true);
                    ++outcome.attempted;
                }
            }
            while (gen.inFlight() > 0)
                gen.receive(1.0);
            outcome.attempted += 2 * kMachines;
            if (secondsSince(block_start) >= kBlock) {
                CpuSample c1 = cpuOf(primary);
                double s1 = processCpuSeconds(standby);
                double i1 = iteration_now();
                if (i1 > i0) {
                    cpu_per_iter.push_back((c1.all - c0.all) / (i1 - i0) *
                                           1e6);
                    main_per_iter.push_back((c1.main - c0.main) / (i1 - i0) *
                                            1e6);
                    standby_per_iter.push_back((s1 - s0) / (i1 - i0) * 1e6);
                }
                c0 = c1;
                s0 = s1;
                i0 = i1;
                block_start = Clock::now();
            }
        }
    }

    // --- Saturation phase: pipelined closed loop. ---
    std::vector<double> op_us;
    double timed_seconds = 0.0;
    uint64_t timed_ops = 0;
    auto before = primary_ctl.metrics();
    auto saturation_start = Clock::now();
    {
        Tracer::Scope phase(tracer, "solverd.saturation");
        // A stress shape, not deployed traffic: each cycle gives one
        // slot to each request kind the primary serves (a single read,
        // a batched read, an update), so each path weighs the same in
        // the throughput. See README.md for why the paced phase's
        // ratio cannot drive a closed loop.
        constexpr double kBlock = 0.2;
        uint64_t cursor = 0;
        auto start = Clock::now();
        bool warm = false;
        while (secondsSince(start) < saturation_seconds) {
            Tracer::Scope block(tracer, "solverd.saturation.block");
            auto t0 = Clock::now();
            uint64_t ops = 0;
            while (secondsSince(t0) < kBlock) {
                while (gen.inFlight() < kWindow) {
                    uint64_t kind = cursor % 3;
                    int m = int(mix(ctx.seed + cursor) % kMachines);
                    ++cursor;
                    if (kind == 2) {
                        gen.sendUpdate(m, (cursor & 4) ? "cpu" : "disk");
                        ++ops;
                    } else {
                        gen.sendRead(m, kind == 1);
                    }
                }
                ops += gen.receive(1.0);
            }
            outcome.attempted += ops;
            if (warm && ops > 0) {
                double block_seconds = secondsSince(t0);
                op_us.push_back(block_seconds / double(ops) * 1e6);
                timed_seconds += block_seconds;
                timed_ops += ops;
            }
            warm = true; // the first block warms the loop up
        }
        while (gen.inFlight() > 0)
            gen.receive(1.0);
    }
    double saturation_wall = secondsSince(saturation_start);
    auto after = primary_ctl.metrics();

    // --- shm phase: readsensor() through the telemetry segment. ---
    std::vector<double> shm_ns;
    {
        Tracer::Scope phase(tracer, "solverd.shm");
        constexpr int kReads = 20000;
        auto start = Clock::now();
        uint64_t bad = 0;
        while (secondsSince(start) < shm_seconds) {
            auto t0 = Clock::now();
            for (int i = 0; i < kReads; ++i) {
                float t = readsensor(shm_sd);
                if (!(t >= ac - 1e-3 && t <= kMaxCelsius))
                    ++bad;
            }
            shm_ns.push_back(secondsSince(t0) * 1e9 / kReads);
            outcome.attempted += kReads;
        }
        outcome.failed += bad;
        outcome.check(sensorpath(shm_sd) == MERCURY_SENSOR_PATH_SHM,
                      "readsensor() left the shm path");
    }

    if (tracer && tracer->enabled()) {
        // The paper's Section 2.3 figure: one unpipelined UDP read.
        setenv("MERCURY_NO_SHM", "1", 1);
        int udp_sd = opensensor_for("127.0.0.1", port, "m2", "cpu");
        unsetenv("MERCURY_NO_SHM");
        std::vector<double> udp_us;
        for (int i = 0; i < 500; ++i) {
            Tracer::Scope span(tracer, "sensor.readsensor.udp");
            auto t0 = Clock::now();
            float t = readsensor(udp_sd);
            udp_us.push_back(secondsSince(t0) * 1e6);
            if (!(t >= ac - 1e-3 && t <= kMaxCelsius))
                ++outcome.failed;
        }
        outcome.attempted += 500;
        outcome.check(sensorpath(udp_sd) == MERCURY_SENSOR_PATH_UDP,
                      "MERCURY_NO_SHM read did not use UDP");
        closesensor(udp_sd);
        outcome.layers["sensor.udp_read_us"] = median(udp_us);
    }
    closesensor(shm_sd);

    // Throughput over the whole timed saturation phase, not a block
    // quantile: the daemons' own threads share the vCPUs with the
    // generator, and the mix of fast and slow blocks that gives is
    // the system's; see README.md.
    describeBlocks("op_wall_us", op_us);
    outcome.metrics["op_wall_us"] =
        timed_ops ? timed_seconds / double(timed_ops) * 1e6 : 0.0;
    outcome.layers["solverd.cpu_us_per_iteration"] = median(cpu_per_iter);
    outcome.layers["sensor.shm_read_ns"] = median(shm_ns);
    outcome.metrics["peak_rss_mb"] = peakRssMb(primary);
    outcome.layers["solverd.main_thread_cpu_us_per_iteration"] =
        median(main_per_iter);
    outcome.layers["solverd.other_threads_cpu_us_per_iteration"] =
        median(cpu_per_iter) - median(main_per_iter);
    outcome.layers["replica.standby_cpu_us_per_iteration"] =
        median(standby_per_iter);

    // --- Checks against the daemons. ---
    outcome.failed += gen.readsFailed();
    outcome.check(gen.readsFailed() == 0,
                  "reads failed: " + gen.firstBadRead());
    outcome.check(gen.sendStalls() == 0, "sendmmsg refused a batch");

    std::map<std::string, double> final_metrics;
    auto wait_start = Clock::now();
    do {
        final_metrics = primary_ctl.metrics();
        if (final_metrics["net_updates_applied_total"] ==
            double(gen.updatesSent()))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } while (secondsSince(wait_start) < 5.0);
    outcome.check(final_metrics["net_updates_applied_total"] ==
                      double(gen.updatesSent()),
                  "primary applied " +
                      std::to_string(
                          final_metrics["net_updates_applied_total"]) +
                      " updates, generator sent " +
                      std::to_string(gen.updatesSent()));
    outcome.check(final_metrics["net_updates_lost_total"] == 0.0,
                  "primary counted lost updates");

    outcome.layers["net.request_handle_us"] =
        after["net_request_handle_seconds_p50"] * 1e6;
    outcome.layers["net.batch_size"] = after["net_batch_size_mean"];
    outcome.layers["net.worker_busy_ratio"] =
        (after["net_worker_busy_seconds"] -
         before["net_worker_busy_seconds"]) /
        saturation_wall;
    outcome.layers["net.updates_applied"] =
        final_metrics["net_updates_applied_total"];
    if (final_metrics["replica_wal_appended_total"] > 0) {
        outcome.layers["replica.wal_bytes_per_record"] =
            final_metrics["replica_wal_bytes_total"] /
            final_metrics["replica_wal_appended_total"];
    }

    std::map<std::string, double> standby_metrics;
    wait_start = Clock::now();
    do {
        standby_metrics = standby_ctl.metrics();
        if (standby_metrics["replica_hash_checks_total"] > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } while (secondsSince(wait_start) < 5.0);
    outcome.check(standby_metrics["replica_hash_checks_total"] > 0,
                  "standby made no state-hash check");
    outcome.check(standby_metrics["replica_hash_mismatches_total"] == 0,
                  "standby saw state-hash mismatches");

    // --- Shutdown and WAL replay. ---
    // The WAL generation on disk started at the last periodic
    // checkpoint (each timer save rotates it); keep that checkpoint
    // before the shutdown save overwrites it, then stop the primary at
    // once. A timer save can still land before the primary acts on its
    // SIGTERM. The kept generation is then p.wal.old, and the replay
    // runs on from it through p.wal.
    replica::WalReadResult wal;
    std::string error;
    state::Checkpoint generation_start;
    bool have_start = false;
    for (int attempt = 0; attempt < 50 && !have_start; ++attempt) {
        if (!replica::readWalFile(dir + "/p.wal", &wal, &error))
            break;
        if (wal.header.startIteration == 0) {
            have_start = true; // generation starts at the config's state
            break;
        }
        std::string copy = readFile(dir + "/p.ck");
        {
            std::ofstream out(dir + "/gen.ck", std::ios::binary);
            out << copy;
        }
        have_start = state::loadCheckpointFile(dir + "/gen.ck",
                                               &generation_start, &error) &&
                     generation_start.iterations ==
                         wal.header.startIteration;
        if (!have_start)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    uint64_t generation_iteration = wal.header.startIteration;
    int status = terminate(primary, 10.0);
    terminate(standby, 10.0);
    outcome.check(have_start, "no checkpoint matching the WAL generation");
    outcome.check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                  "primary did not exit cleanly");

    state::Checkpoint final_state;
    bool loaded =
        state::loadCheckpointFile(dir + "/p.ck", &final_state, &error);
    outcome.check(loaded, "final checkpoint: " + error);
    // The generations to replay, oldest first.
    std::vector<replica::WalReadResult> chain(1);
    bool wal_ok = replica::readWalFile(dir + "/p.wal", &chain[0], &error);
    if (wal_ok && chain[0].header.startIteration != generation_iteration) {
        chain.insert(chain.begin(), replica::WalReadResult{});
        wal_ok = replica::readWalFile(dir + "/p.wal.old", &chain[0],
                                      &error) &&
                 chain[0].header.startIteration == generation_iteration;
    }
    for (const replica::WalReadResult &generation : chain)
        wal_ok = wal_ok && generation.tailOk;
    outcome.check(wal_ok, "WAL does not continue the kept generation " +
                              error);
    if (loaded && wal_ok && have_start) {
        core::SolverConfig replay_config;
        replay_config.iterationSeconds = kIterationSeconds;
        core::Solver replayed(replay_config);
        for (const core::MachineSpec &machine : config.machines)
            replayed.addMachine(machine);
        replayed.setRoom(*config.room);
        if (generation_iteration > 0 &&
            !state::restoreSolver(replayed, generation_start, &error))
            outcome.check(false, "restore: " + error);
        proto::SolverService service(replayed);
        auto apply = [&](const replica::WalRecord &record) {
            auto message = proto::decodeWalMutation(record.payload.data(),
                                                    record.payload.size());
            if (message)
                service.handleReplicated(*message);
        };
        // The shipped tool replays p.wal from the state it started at.
        std::string last_start = generation_iteration > 0 ? dir + "/gen.ck"
                                                          : "";
        for (size_t g = 0; g < chain.size(); ++g) {
            bool last = g + 1 == chain.size();
            if (last && g > 0) {
                last_start = dir + "/rotated.ck";
                outcome.check(state::saveCheckpointFile(
                                  last_start, state::captureSolver(replayed),
                                  &error),
                              "save replayed state: " + error);
            }
            uint64_t to = last ? final_state.iterations
                               : chain[g + 1].header.startIteration;
            replica::ReplayStats stats;
            bool ok = replica::replayWal(replayed, chain[g], apply, to,
                                         &stats, &error);
            outcome.check(ok, "replay: " + error);
        }
        state::Checkpoint want = state::captureSolver(replayed);
        bool same = want.iterations == final_state.iterations &&
                    want.machines.size() == final_state.machines.size();
        for (size_t m = 0; same && m < want.machines.size(); ++m) {
            same = want.machines[m].temperatures ==
                       final_state.machines[m].temperatures &&
                   want.machines[m].energyConsumed ==
                       final_state.machines[m].energyConsumed;
        }
        outcome.check(same, "WAL replay differs from the final state");

        // The same replay through the shipped tool, compared on its
        // printed (9-digit) state dump.
        std::vector<std::string> args = {
            ctx.binDir + "/mercury_trace", "--config", config_path,
            "--replay-wal", dir + "/p.wal", "--iteration-seconds", period,
            "--replay-to", std::to_string(final_state.iterations)};
        if (!last_start.empty()) {
            args.push_back("--replay-checkpoint");
            args.push_back(last_start);
        }
        pid_t tool = spawn(args, dir + "/replay.txt");
        int tool_status = 0;
        waitpid(tool, &tool_status, 0);
        forgetChild(tool);
        std::ostringstream expected;
        replayed.saveState(expected);
        std::string dump = readFile(dir + "/replay.txt");
        outcome.check(WIFEXITED(tool_status) &&
                          WEXITSTATUS(tool_status) == 0 &&
                          dump.find(expected.str()) != std::string::npos,
                      "mercury_trace --replay-wal disagrees with the "
                      "daemon's final state");
    }
    shm_unlink(shm_name.c_str());
    return outcome;
}

} // namespace perfbench
