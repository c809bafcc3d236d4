/// @file
/// fleet_sync: the benchmark process fills an artifact store with a cold
/// set-up, spawns kReplicas replica processes of its own binary (each an
/// ApproxService with one worker behind a net::ReplicaServer, warm-started
/// from that store), and routes the small kernels through an in-process
/// net::FrontDoor from two client threads that each call route() and wait.
///
/// Replicas report what the parent cannot see over the wire (serve
/// metrics, store statistics, the probes' samples) in a text file written
/// at shutdown.

#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "device/device_model.h"
#include "net/frontdoor.h"
#include "net/replica.h"
#include "net/wire.h"
#include "runtime/session.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "support/socket.h"

extern char** environ;

namespace perfbench {

namespace net = paraprox::net;
namespace serve = paraprox::serve;
namespace store = paraprox::store;

namespace {

constexpr int kReplicas = 2;
constexpr std::size_t kClients = 2;
constexpr int kWarmupRounds = 8;
/// Requests per second on the reference machine (see make_requests).
constexpr double kNominalRps = 3000.0;
/// Bytes of a wire frame header (magic, type, length).
constexpr double kFrameHeaderBytes = 16.0;

/// Register every fleet kernel on @p service, warm-keyed to the global
/// store: a cold registration calibrates and persists, a warm one
/// restores the stored calibration.
std::vector<PreparedKernel>
register_fleet_kernels(serve::ApproxService& service)
{
    const auto device = paraprox::device::DeviceModel::gtx560();
    std::vector<PreparedKernel> kernels;
    for (const auto& spec : workload_kernels("fleet_sync")) {
        PreparedKernel kernel = prepare_kernel(spec, device);
        trace().variants += kernel.variants.size();
        const auto calibrate_start = Clock::now();
        service.register_kernel(
            spec.app, kernel.variants, kernel.metric, kToq, training_seeds(spec),
            kernel.setup->session->calibration_key(kernel.metric));
        trace().calibrate_ms += seconds_since(calibrate_start) * 1e3;
        kernels.push_back(std::move(kernel));
    }
    return kernels;
}

/// What a replica reports at shutdown.
struct ReplicaReport {
    double restore_ms = 0.0;
    double store_hits = 0.0;
    double store_misses = 0.0;
    ServeCounters serve;
    std::vector<double> bind_us;
    std::vector<double> launch_us;
    std::unordered_map<std::uint64_t, Trace::SeedRecord> seeds;
};

ReplicaReport
read_report(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("replica report " + path + " missing");
    ReplicaReport report;
    const std::map<std::string, double*> counters = {
        {"restore_ms", &report.restore_ms},
        {"store_hits", &report.store_hits},
        {"store_misses", &report.store_misses},
        {"served", &report.serve.served},
        {"batches", &report.serve.batches},
        {"batch_requests", &report.serve.batch_requests},
        {"coalesced_requests", &report.serve.coalesced_requests},
        {"shadow_runs", &report.serve.shadow_runs},
        {"shadow_violations", &report.serve.shadow_violations},
        {"recalibrations", &report.serve.recalibrations},
    };
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key;
        fields >> key;
        if (key == "bind") {
            double value = 0.0;
            fields >> value;
            report.bind_us.push_back(value);
        } else if (key == "launch") {
            double value = 0.0;
            fields >> value;
            report.launch_us.push_back(value);
        } else if (key == "seed") {
            std::uint64_t seed = 0;
            Trace::SeedRecord record;
            fields >> seed >> record.closure_seconds >> record.instructions;
            record.ran = true;
            report.seeds[seed] = record;
        } else if (const auto it = counters.find(key); it != counters.end()) {
            fields >> *it->second;
        }
    }
    return report;
}

/// Spawned replica processes; whatever is still running when this goes
/// out of scope is killed and reaped.
class Children {
  public:
    Children() = default;
    Children(const Children&) = delete;
    Children& operator=(const Children&) = delete;
    ~Children()
    {
        for (const pid_t pid : pids_) {
            kill(pid, SIGKILL);
            waitpid(pid, nullptr, 0);
        }
    }

    void
    spawn(const std::vector<std::string>& args)
    {
        std::vector<char*> argv;
        for (const auto& arg : args)
            argv.push_back(const_cast<char*>(arg.c_str()));
        argv.push_back(nullptr);
        pid_t pid = 0;
        if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                        environ) != 0)
            throw std::runtime_error("cannot spawn a replica");
        pids_.push_back(pid);
    }

    /// Wait up to @p timeout for every child to exit; true when all
    /// exited with status 0.  Stragglers are left to the destructor.
    bool
    reap(std::chrono::seconds timeout)
    {
        const auto give_up = Clock::now() + timeout;
        bool clean = true;
        while (!pids_.empty()) {
            int status = 0;
            const pid_t pid = waitpid(-1, &status, WNOHANG);
            if (pid > 0) {
                clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
                pids_.erase(std::remove(pids_.begin(), pids_.end(), pid),
                            pids_.end());
            } else if (Clock::now() > give_up) {
                return false;
            } else {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        }
        return clean;
    }

    const std::vector<pid_t>& pids() const { return pids_; }

  private:
    std::vector<pid_t> pids_;
};

void
wait_for_endpoint(const std::string& socket_path, pid_t pid)
{
    const auto give_up = Clock::now() + std::chrono::seconds(120);
    while (Clock::now() < give_up) {
        if (paraprox::connect_unix(socket_path).valid())
            return;
        int status = 0;
        if (waitpid(pid, &status, WNOHANG) == pid)
            throw std::runtime_error("replica exited during set-up");
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    throw std::runtime_error("replica " + socket_path + " never came up");
}

double
fleet_cpu_seconds(const Children& children)
{
    double seconds = self_cpu_seconds();
    for (const pid_t pid : children.pids())
        seconds += proc_cpu_seconds(pid);
    return seconds;
}

}  // namespace

Result
run_fleet(const Options& options, Clock::time_point start)
{
    namespace fs = std::filesystem;
    const fs::path run_dir =
        fs::path(options.scratch) / ("fleet-" + std::to_string(getpid()));
    fs::remove_all(run_dir);
    fs::create_directories(run_dir / "store");
    struct RemoveOnExit {
        fs::path dir;
        ~RemoveOnExit()
        {
            std::error_code ignored;
            fs::remove_all(dir, ignored);
        }
    } cleanup{run_dir};

    // Set-up, part 1: a cold compile and calibration in this process
    // fills the store the replicas start from.
    store::ArtifactStore::configure_global(run_dir / "store");
    const SetupCounters counters;
    std::vector<PreparedKernel> kernels;
    std::vector<std::string> selected;
    {
        serve::ServiceConfig config;
        config.num_workers = 1;
        serve::ApproxService service(config);
        kernels = register_fleet_kernels(service);
        for (const auto& kernel : kernels)
            selected.push_back(service.kernel_snapshot(kernel.spec.app).selected);
        service.stop();
    }
    counters.finish();
    for (auto& kernel : kernels)
        kernel.output_length = exact_output_length(kernel);

    // Set-up, part 2: replica spawn and warm restore.
    Children children;
    std::vector<net::ReplicaEndpoint> endpoints;
    std::vector<std::string> reports;
    for (int r = 0; r < kReplicas; ++r) {
        net::ReplicaEndpoint endpoint;
        endpoint.id = "replica-" + std::to_string(r);
        // Relative to the working directory: a socket path must fit in
        // sun_path (107 bytes), whatever the checkout's location.
        std::error_code error;
        const fs::path socket_dir = fs::relative(run_dir, error);
        endpoint.socket_path =
            ((error || socket_dir.empty() ? run_dir : socket_dir) /
             (endpoint.id + ".sock"))
                .string();
        reports.push_back((run_dir / (endpoint.id + ".report")).string());
        children.spawn({"paraprox_perfbench", "--replica", endpoint.id,
                        endpoint.socket_path, (run_dir / "store").string(),
                        reports.back(), options.trace ? "1" : "0",
                        std::to_string(options.max_batch)});
        endpoints.push_back(endpoint);
    }
    for (int r = 0; r < kReplicas; ++r)
        wait_for_endpoint(endpoints[r].socket_path, children.pids()[r]);
    const double setup_s = seconds_since(start);

    net::FrontDoor door(endpoints);
    if (!door.start())
        throw std::runtime_error("front door failed to start");
    auto make_submit = [](const PreparedKernel& kernel, std::uint64_t seed) {
        net::SubmitRequest request;
        request.kernel = kernel.spec.app;
        request.toq = kToq;
        request.input = net::SubmitRequest::seed_input(seed);
        return request;
    };

    // Warm-up, off the clock, on untimed seeds.
    std::uint64_t warmup = 0;
    std::uint64_t warmup_ok = 0;
    for (int round = 0; round < kWarmupRounds; ++round) {
        for (const auto& kernel : kernels) {
            const auto reply = door.route(make_submit(kernel, 1000 + warmup++));
            warmup_ok += reply.status == net::WireStatus::Ok ? 1 : 0;
        }
    }

    const auto requests = make_requests(options, kernels.size(), kNominalRps);
    std::vector<Outcome> outcomes(requests.size());
    Samples codec_us;
    Samples reply_bytes;
    const double cpu_before = fleet_cpu_seconds(children);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (std::size_t i = c; i < requests.size(); i += kClients) {
                const Request& request = requests[i];
                const PreparedKernel& kernel = kernels[request.kernel];
                net::SubmitRequest submit = make_submit(kernel, request.seed);
                const net::SubmitRequest copy =
                    trace().enabled ? submit : net::SubmitRequest{};
                const auto submitted = Clock::now();
                net::SubmitReply reply = door.route(std::move(submit));
                Outcome& outcome = outcomes[i];
                outcome.replied = Clock::now();
                outcome.latency_s =
                    std::chrono::duration<double>(outcome.replied - submitted)
                        .count();
                outcome.ok = reply.status == net::WireStatus::Ok &&
                             reply_ok(reply.output, kernel.output_length);
                outcome.exact = reply.served_by == "exact";
                if (trace().enabled) {
                    // The wire codecs, timed on this request's payloads.
                    const auto codec_start = Clock::now();
                    const auto request_bytes = copy.encode();
                    const bool decoded =
                        net::SubmitRequest::decode(request_bytes).has_value();
                    const auto reply_payload = reply.encode();
                    const bool reply_decoded =
                        net::SubmitReply::decode(reply_payload).has_value();
                    codec_us.add(seconds_since(codec_start) * 1e6);
                    reply_bytes.add(static_cast<double>(reply_payload.size()) +
                                    kFrameHeaderBytes);
                    outcome.ok = outcome.ok && decoded && reply_decoded;
                }
                if (request.sampled)
                    outcome.output = std::move(reply.output);
            }
        });
    }
    for (auto& client : clients)
        client.join();
    const double cpu_s = fleet_cpu_seconds(children) - cpu_before;
    double rss_mb = peak_rss_mb();
    for (const pid_t pid : children.pids())
        rss_mb += peak_rss_mb(pid);

    Result result;
    init_per_layer(result);
    Checks checks;
    const double modeled = check_selections(kernels, selected, checks);
    fill_client_metrics(result, requests, outcomes, cpu_s, rss_mb,
                        setup_s, modeled);
    check_samples(kernels, requests, outcomes, checks);

    // Accounting: client Ok == replicas' served == front door routed.
    const std::uint64_t ok = result.attempted - result.failed + warmup_ok;
    std::uint64_t scraped = 0;
    for (int r = 0; r < kReplicas; ++r) {
        const auto reply = door.call(r, net::MsgType::StatsRequest, {});
        const auto stats =
            reply ? net::ReplicaStats::decode(reply->payload) : std::nullopt;
        if (!stats)
            checks.fail("no stats from " + endpoints[r].id);
        else
            scraped += stats->served;
    }
    const auto door_stats = door.stats();
    std::uint64_t routed = 0;
    for (const auto count : door_stats.routed)
        routed += count;
    if (scraped != ok || routed != ok) {
        checks.fail("client Ok " + std::to_string(ok) + ", replicas served " +
                    std::to_string(scraped) + ", front door routed " +
                    std::to_string(routed));
    }

    for (int r = 0; r < kReplicas; ++r)
        door.call(r, net::MsgType::ShutdownRequest, {});
    door.stop();
    if (!children.reap(std::chrono::seconds(30)))
        checks.fail("a replica exited uncleanly");
    result.correct = checks.ok();

    // Per-layer figures: set-up from this process, serving from the
    // replicas' reports.
    ReplicaReport fleet;
    for (const auto& path : reports) {
        ReplicaReport report = read_report(path);
        fleet.restore_ms = std::max(fleet.restore_ms, report.restore_ms);
        fleet.store_hits += report.store_hits;
        fleet.store_misses += report.store_misses;
        fleet.serve += report.serve;
        fleet.bind_us.insert(fleet.bind_us.end(), report.bind_us.begin(),
                             report.bind_us.end());
        fleet.launch_us.insert(fleet.launch_us.end(),
                               report.launch_us.begin(),
                               report.launch_us.end());
        fleet.seeds.merge(report.seeds);
    }
    fill_layers(result, requests, outcomes, fleet.seeds,
                std::move(fleet.bind_us), std::move(fleet.launch_us),
                fleet.serve);
    auto& layer = result.per_layer;
    layer["store.restore_ms"].value = fleet.restore_ms;
    layer["store.hits"].value = fleet.store_hits;
    layer["store.misses"].value = fleet.store_misses;

    auto codec = codec_us.take();
    auto bytes = reply_bytes.take();
    layer["net.codec_us_p50"].value = quantile(codec, 0.5);
    double bytes_sum = 0.0;
    for (const double b : bytes)
        bytes_sum += b;
    layer["net.reply_bytes"].value =
        bytes.empty() ? 0.0 : bytes_sum / static_cast<double>(bytes.size());
    const auto [least, most] = std::minmax_element(door_stats.routed.begin(),
                                                   door_stats.routed.end());
    layer["net.route_imbalance"].value =
        *least > 0 ? static_cast<double>(*most) / static_cast<double>(*least)
                   : 0.0;
    layer["net.requeues"].value = static_cast<double>(door_stats.requeues);
    return result;
}

int
run_replica(const std::vector<std::string>& args)
{
    const auto start = Clock::now();
    // Die with the benchmark process rather than outlive it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (args.size() != 6) {
        std::fprintf(stderr,
                     "usage: --replica ID SOCKET STORE REPORT TRACE MAX_BATCH\n");
        return 2;
    }
    const std::string& id = args[0];
    trace().enabled = args[4] == "1";
    try {
        const auto store = store::ArtifactStore::configure_global(args[2]);
        serve::ServiceConfig config;
        config.num_workers = 1;
        if (const int max_batch = std::stoi(args[5]); max_batch > 0)
            config.batching.max_batch = static_cast<std::size_t>(max_batch);
        serve::ApproxService service(config);
        register_fleet_kernels(service);
        const double restore_ms = seconds_since(start) * 1e3;

        net::ReplicaOptions replica_options;
        replica_options.id = id;
        replica_options.socket_path = args[1];
        net::ReplicaServer server(service, nullptr, replica_options);
        if (!server.start())
            return 1;
        while (!server.shutdown_requested())
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        server.stop();
        service.drain();
        const auto metrics = service.metrics().snapshot();
        service.stop();

        std::ofstream out(args[3]);
        out.precision(17);
        const auto store_stats = store->stats();
        const ServeCounters serve(metrics);
        out << "restore_ms " << restore_ms << '\n'
            << "store_hits " << store_stats.hits << '\n'
            << "store_misses " << store_stats.misses << '\n'
            << "served " << serve.served << '\n'
            << "batches " << serve.batches << '\n'
            << "batch_requests " << serve.batch_requests << '\n'
            << "coalesced_requests " << serve.coalesced_requests << '\n'
            << "shadow_runs " << serve.shadow_runs << '\n'
            << "shadow_violations " << serve.shadow_violations << '\n'
            << "recalibrations " << serve.recalibrations << '\n';
        for (const double value : trace().bind_us.take())
            out << "bind " << value << '\n';
        for (const double value : trace().launch_us.take())
            out << "launch " << value << '\n';
        for (const auto& [seed, record] : trace().seeds)
            out << "seed " << seed << ' ' << record.closure_seconds << ' '
                << record.instructions << '\n';
        return out ? 0 : 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "replica %s: %s\n", id.c_str(), error.what());
        return 1;
    }
}

}  // namespace perfbench
