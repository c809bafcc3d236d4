/// @file
/// In-process workloads: one serve::ApproxService with two workers, driven
/// by client threads of the benchmark process.
///
///   paper_mix    two clients, each submits and waits; mid-size requests
///                for nine paper apps.
///   small_burst  one client keeps kBurstDepth requests outstanding over
///                four ~1k-element kernels, so same-kernel coalescing
///                engages.

#include <deque>
#include <future>
#include <thread>

#include "bench.h"
#include "device/device_model.h"
#include "serve/service.h"

namespace perfbench {

namespace serve = paraprox::serve;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBurstDepth = 64;
constexpr int kWarmupRounds = 4;

/// Requests per second each workload serves on the reference machine
/// (4 cores); sets the request count of a run from --seconds.
double
nominal_rps(const std::string& workload)
{
    return workload == "paper_mix" ? 250.0 : 8000.0;
}

/// Turn a resolved response into the client's outcome.
Outcome
collect(serve::Response response, const PreparedKernel& kernel,
        const Request& request, Clock::time_point submitted)
{
    Outcome outcome;
    outcome.replied = Clock::now();
    outcome.latency_s =
        std::chrono::duration<double>(outcome.replied - submitted).count();
    outcome.ok = response.status == serve::ServeStatus::Ok &&
                 reply_ok(response.run.output, kernel.output_length);
    outcome.exact = response.served_by == "exact";
    if (request.sampled)
        outcome.output = std::move(response.run.output);
    return outcome;
}

/// @p clients threads; client c serves requests c, c + clients, ...,
/// each submitted after the previous reply.
void
drive_sync(serve::ApproxService& service,
           const std::vector<PreparedKernel>& kernels,
           const std::vector<Request>& requests,
           std::vector<Outcome>& outcomes, std::size_t clients)
{
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t i = c; i < requests.size(); i += clients) {
                const Request& request = requests[i];
                const PreparedKernel& kernel = kernels[request.kernel];
                const auto submitted = Clock::now();
                auto ticket = service.submit(kernel.spec.app, request.seed);
                if (!ticket.accepted)
                    continue;  // Counted failed: outcome stays !ok.
                outcomes[i] = collect(ticket.response.get(), kernel, request,
                                      submitted);
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
}

/// One client keeping @p depth requests outstanding; replies are
/// collected in submission order.
void
drive_burst(serve::ApproxService& service,
            const std::vector<PreparedKernel>& kernels,
            const std::vector<Request>& requests,
            std::vector<Outcome>& outcomes, std::size_t depth)
{
    struct Pending {
        std::size_t index;
        Clock::time_point submitted;
        std::future<serve::Response> response;
    };
    std::deque<Pending> pending;
    std::size_t next = 0;
    while (next < requests.size() || !pending.empty()) {
        if (next < requests.size() && pending.size() < depth) {
            const Request& request = requests[next];
            const auto submitted = Clock::now();
            auto ticket =
                service.submit(kernels[request.kernel].spec.app, request.seed);
            if (ticket.accepted)
                pending.push_back(
                    {next, submitted, std::move(ticket.response)});
            ++next;
            continue;
        }
        Pending head = std::move(pending.front());
        pending.pop_front();
        const Request& request = requests[head.index];
        outcomes[head.index] = collect(head.response.get(),
                                       kernels[request.kernel], request,
                                       head.submitted);
    }
}

/// Median wall time of each kernel's exact serving closure over its
/// selected variant's, alternating the two on the same inputs.
void
compare_wall(const std::vector<PreparedKernel>& kernels,
             const std::vector<std::string>& selected)
{
    constexpr int kPairs = 41;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const auto& variants = kernels[k].variants;
        const runtime::Variant* chosen = nullptr;
        for (const auto& variant : variants) {
            if (variant.label == selected[k])
                chosen = &variant;
        }
        if (chosen == nullptr || chosen == &variants.front())
            continue;
        std::vector<double> ratios;
        for (int i = 0; i < kPairs; ++i) {
            const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(i);
            auto start = Clock::now();
            variants.front().run_fast(seed);
            const double exact_s = seconds_since(start);
            start = Clock::now();
            chosen->run_fast(seed);
            ratios.push_back(exact_s / seconds_since(start));
        }
        std::fprintf(stderr, "  wall %-26s exact / `%s` = %.3fx (median of %d)\n",
                     kernels[k].spec.app.c_str(), selected[k].c_str(),
                     quantile(ratios, 0.5), kPairs);
    }
}

}  // namespace

Result
run_inprocess(const Options& options, Clock::time_point start)
{
    const auto device = paraprox::device::DeviceModel::gtx560();
    const auto specs = workload_kernels(options.workload);
    const SetupCounters counters;

    serve::ServiceConfig config;
    config.num_workers = kWorkers;
    if (options.max_batch > 0)
        config.batching.max_batch = static_cast<std::size_t>(options.max_batch);
    serve::ApproxService service(config);

    // Set-up: ParaCL source -> calibrated, servable kernels.
    std::vector<PreparedKernel> kernels;
    std::vector<std::string> selected;
    for (const auto& spec : specs) {
        PreparedKernel kernel = prepare_kernel(spec, device);
        if (options.exact_only)
            kernel.variants.resize(1);
        trace().variants += kernel.variants.size();
        const auto calibrate_start = Clock::now();
        service.register_kernel(spec.app, kernel.variants, kernel.metric,
                                kToq, training_seeds(spec));
        trace().calibrate_ms += seconds_since(calibrate_start) * 1e3;
        selected.push_back(service.kernel_snapshot(spec.app).selected);
        kernels.push_back(std::move(kernel));
    }
    const double setup_s = seconds_since(start);
    counters.finish();
    for (auto& kernel : kernels)
        kernel.output_length = exact_output_length(kernel);

    // Warm-up, off the clock, on untimed seeds.
    std::uint64_t warmup = 0;
    std::uint64_t warmup_ok = 0;
    for (int round = 0; round < kWarmupRounds; ++round) {
        for (const auto& kernel : kernels) {
            auto ticket = service.submit(kernel.spec.app, 1000 + warmup++);
            if (ticket.accepted &&
                ticket.response.get().status == serve::ServeStatus::Ok)
                ++warmup_ok;
        }
    }
    service.drain();

    const auto requests =
        make_requests(options, kernels.size(), nominal_rps(options.workload));
    std::vector<Outcome> outcomes(requests.size());
    const double cpu_before = self_cpu_seconds();
    if (options.sync_clients > 0)
        drive_sync(service, kernels, requests, outcomes,
                   static_cast<std::size_t>(options.sync_clients));
    else if (options.workload == "paper_mix")
        drive_sync(service, kernels, requests, outcomes, 2);
    else
        drive_burst(service, kernels, requests, outcomes, kBurstDepth);
    const double cpu_s = self_cpu_seconds() - cpu_before;
    service.drain();

    Result result;
    init_per_layer(result);
    Checks checks;
    const double modeled = check_selections(kernels, selected, checks);
    fill_client_metrics(result, requests, outcomes, cpu_s,
                        peak_rss_mb(), setup_s, modeled);
    check_samples(kernels, requests, outcomes, checks);

    const auto snapshot = service.snapshot();
    const auto& metrics = snapshot.metrics;
    const std::uint64_t ok = result.attempted - result.failed;
    if (metrics.served != ok + warmup_ok) {
        checks.fail("client saw " + std::to_string(ok + warmup_ok) +
                    " Ok replies, service served " +
                    std::to_string(metrics.served));
    }
    service.stop();
    result.correct = checks.ok();
    if (options.wall_compare)
        compare_wall(kernels, selected);

    fill_layers(result, requests, outcomes, trace().seeds,
                trace().bind_us.take(), trace().launch_us.take(),
                ServeCounters(metrics));
    return result;
}

}  // namespace perfbench
