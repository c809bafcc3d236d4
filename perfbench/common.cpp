/// @file
/// Request sequences, off-clock output checks and the metrics every
/// workload reports.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.h"

namespace perfbench {

namespace {

/// splitmix64: a fixed, platform-independent mixer for request seeds.
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Reference-checked requests per kernel.
constexpr std::size_t kSamplesPerKernel = 24;

/// At least this many requests per run, so the 99th percentile has ten
/// samples beyond it.
constexpr std::size_t kMinRequests = 1100;

/// Requests per slice of the sequence, at least (see fill_client_metrics).
/// Sparse latency clusters (a shadowed heavy kernel is about 1% of
/// paper_mix) need thousands of samples for a steady 99th percentile.
constexpr std::size_t kSliceRequests = 4000;
constexpr std::size_t kMaxSlices = 9;

}  // namespace

std::vector<Request>
make_requests(const Options& options, std::size_t kernels,
              double nominal_rps)
{
    const auto wanted = std::max<std::size_t>(
        kMinRequests,
        static_cast<std::size_t>(options.seconds * nominal_rps));
    const std::size_t rounds = (wanted + kernels - 1) / kernels;

    std::vector<Request> requests;
    requests.reserve(rounds * kernels);
    std::uint64_t state = mix(options.seed);
    std::vector<std::size_t> order(kernels);
    for (std::size_t round = 0; round < rounds; ++round) {
        std::iota(order.begin(), order.end(), 0);
        for (std::size_t i = kernels - 1; i > 0; --i)
            std::swap(order[i], order[(state = mix(state)) % (i + 1)]);
        for (const std::size_t kernel : order) {
            state = mix(state);
            requests.push_back({kernel, kTimedBit | (state & (kTimedBit - 1)),
                                false});
        }
    }
    // Sampled rounds per kernel, drawn from the same seed.
    for (std::size_t kernel = 0; kernel < kernels; ++kernel) {
        for (std::size_t j = 0; j < kSamplesPerKernel; ++j) {
            const std::size_t round = (state = mix(state)) % rounds;
            for (std::size_t i = round * kernels; i < (round + 1) * kernels;
                 ++i) {
                if (requests[i].kernel == kernel)
                    requests[i].sampled = true;
            }
        }
    }
    return requests;
}

bool
reply_ok(const std::vector<float>& output, std::size_t expected)
{
    if (output.size() != expected)
        return false;
    for (const float value : output) {
        if (!std::isfinite(value))
            return false;
    }
    return true;
}

void
Checks::fail(const std::string& problem)
{
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
    problems_.push_back(problem);
}

void
check_samples(const std::vector<PreparedKernel>& kernels,
              const std::vector<Request>& requests,
              const std::vector<Outcome>& outcomes, Checks& checks)
{
    std::vector<double> quality_sum(kernels.size(), 0.0);
    std::vector<int> approx_count(kernels.size(), 0);
    std::vector<int> checked(kernels.size(), 0);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request& request = requests[i];
        const Outcome& outcome = outcomes[i];
        if (!request.sampled || !outcome.ok)
            continue;
        const PreparedKernel& kernel = kernels[request.kernel];
        const auto want = reference_output(kernel, request.seed);
        ++checked[request.kernel];
        if (outcome.exact) {
            const double error = max_scaled_error(want, outcome.output);
            if (!(error <= kExactTolerance)) {
                checks.fail(kernel.spec.app + ": exact output off the "
                            "reference by " + std::to_string(error));
            }
        } else {
            quality_sum[request.kernel] +=
                reference_quality(kernel.metric, want, outcome.output);
            ++approx_count[request.kernel];
        }
    }
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        if (checked[k] == 0)
            checks.fail(kernels[k].spec.app + ": no sampled reply checked");
        if (approx_count[k] == 0)
            continue;
        const double mean = quality_sum[k] / approx_count[k];
        std::fprintf(stderr, "  %-26s %d approximate replies checked, "
                     "%.2f%% mean quality\n",
                     kernels[k].spec.app.c_str(), approx_count[k], mean);
        if (mean < kToq) {
            checks.fail(kernels[k].spec.app + ": approximate replies average " +
                        std::to_string(mean) + "% quality, below the TOQ");
        }
    }
}

double
check_selections(const std::vector<PreparedKernel>& kernels,
                 const std::vector<std::string>& selected, Checks& checks)
{
    double log_sum = 0.0;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        if (selected[k] == "exact")
            continue;  // Speedup 1, quality 100.
        const auto selection = selection_of(kernels[k], selected[k]);
        if (!selection) {
            checks.fail(kernels[k].spec.app + ": no calibration runs of `" +
                        selected[k] + "`");
            continue;
        }
        if (selection->modeled_speedup < 1.0 ||
            selection->quality < kToq) {
            checks.fail(kernels[k].spec.app + ": selected `" + selected[k] +
                        "` has modeled speedup " +
                        std::to_string(selection->modeled_speedup) +
                        " and calibration quality " +
                        std::to_string(selection->quality));
        }
        std::fprintf(stderr, "  %-26s %-32s %6.3fx modeled, %6.2f%% "
                     "calibration quality\n",
                     kernels[k].spec.app.c_str(), selected[k].c_str(),
                     selection->modeled_speedup, selection->quality);
        log_sum += std::log(selection->modeled_speedup);
    }
    return std::exp(log_sum / static_cast<double>(kernels.size()));
}

void
fill_client_metrics(Result& result, const std::vector<Request>& requests,
                    const std::vector<Outcome>& outcomes, double cpu_s,
                    double rss_mb, double setup_s, double modeled_speedup)
{
    // The machine's own stalls come in bursts that hit a few stretches of
    // a run; a code change shifts every stretch.  So each figure is taken
    // per slice of consecutive requests and the run reports the median
    // slice.
    const std::size_t count = requests.size();
    const std::size_t slices =
        std::clamp<std::size_t>(count / kSliceRequests, 1, kMaxSlices);
    std::vector<double> throughput;
    std::vector<double> p50;
    std::vector<double> p99;
    std::uint64_t served = 0;
    std::uint64_t exact = 0;
    for (std::size_t slice = 0; slice < slices; ++slice) {
        std::vector<double> latencies_ms;
        Clock::time_point first = Clock::time_point::max();
        Clock::time_point last = Clock::time_point::min();
        for (std::size_t i = slice * count / slices;
             i < (slice + 1) * count / slices; ++i) {
            const Outcome& outcome = outcomes[i];
            if (!outcome.ok)
                continue;
            latencies_ms.push_back(outcome.latency_s * 1e3);
            exact += outcome.exact ? 1 : 0;
            const auto submitted =
                outcome.replied - std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          outcome.latency_s));
            first = std::min(first, submitted);
            last = std::max(last, outcome.replied);
        }
        if (latencies_ms.empty())
            continue;
        served += latencies_ms.size();
        const double span = std::chrono::duration<double>(last - first).count();
        throughput.push_back(static_cast<double>(latencies_ms.size()) / span);
        p50.push_back(quantile(latencies_ms, 0.50));
        p99.push_back(quantile(latencies_ms, 0.99));
    }
    result.attempted = count;
    result.failed = count - served;

    auto& e2e = result.end_to_end;
    e2e["setup_s"] = {setup_s, "s"};
    e2e["throughput_rps"] = {quantile(throughput, 0.5), "requests/s"};
    e2e["latency_p50_ms"] = {quantile(p50, 0.5), "ms"};
    e2e["latency_p99_ms"] = {quantile(p99, 0.5), "ms"};
    e2e["cpu_ms_per_request"] = {
        served > 0 ? cpu_s * 1e3 / static_cast<double>(served) : 0.0, "ms"};
    e2e["peak_rss_mb"] = {rss_mb, "MB"};
    e2e["modeled_speedup"] = {modeled_speedup, "x"};

    result.per_layer["runtime.exact_share"].value =
        served > 0 ? static_cast<double>(exact) / static_cast<double>(served)
                   : 0.0;
}

void
init_per_layer(Result& result)
{
    static const std::vector<std::pair<std::string, std::string>> metrics = {
        {"parser.parse_ms", "ms"},
        {"core.session_ms", "ms"},
        {"memo.table_searches", "count"},
        {"vm.programs_compiled", "count"},
        {"runtime.calibrate_ms", "ms"},
        {"runtime.variants", "count"},
        {"store.restore_ms", "ms"},
        {"store.hits", "count"},
        {"store.misses", "count"},
        {"apps.bind_us_p50", "us"},
        {"exec.launch_us_p50", "us"},
        {"vm.dispatches_per_request", "count"},
        {"runtime.exact_share", "share"},
        {"serve.queue_us_p50", "us"},
        {"serve.batch_mean", "requests"},
        {"serve.coalesced_share", "share"},
        {"serve.shadow_share", "share"},
        {"serve.shadow_violations", "count"},
        {"serve.recalibrations", "count"},
        {"net.codec_us_p50", "us"},
        {"net.reply_bytes", "bytes"},
        {"net.route_imbalance", "ratio"},
        {"net.requeues", "count"},
        {"host.spin_ms", "ms"},
    };
    for (const auto& [name, unit] : metrics)
        result.per_layer[name] = {0.0, unit};
}

ServeCounters::ServeCounters(const paraprox::serve::MetricsSnapshot& metrics)
    : served(static_cast<double>(metrics.served)),
      batches(static_cast<double>(metrics.batch.batches)),
      batch_requests(metrics.batch.mean_size *
                     static_cast<double>(metrics.batch.batches)),
      coalesced_requests(static_cast<double>(metrics.batch.coalesced_requests)),
      shadow_runs(static_cast<double>(metrics.shadow_runs)),
      shadow_violations(static_cast<double>(metrics.shadow_violations)),
      recalibrations(static_cast<double>(metrics.recalibrations))
{
}

ServeCounters&
ServeCounters::operator+=(const ServeCounters& other)
{
    served += other.served;
    batches += other.batches;
    batch_requests += other.batch_requests;
    coalesced_requests += other.coalesced_requests;
    shadow_runs += other.shadow_runs;
    shadow_violations += other.shadow_violations;
    recalibrations += other.recalibrations;
    return *this;
}

void
fill_layers(Result& result, const std::vector<Request>& requests,
            const std::vector<Outcome>& outcomes,
            const std::unordered_map<std::uint64_t, Trace::SeedRecord>& seeds,
            std::vector<double> bind_us, std::vector<double> launch_us,
            const ServeCounters& serve)
{
    auto& layer = result.per_layer;
    const Trace& t = trace();
    layer["parser.parse_ms"].value = t.parse_ms;
    layer["core.session_ms"].value = t.session_ms;
    layer["memo.table_searches"].value = static_cast<double>(t.table_searches);
    layer["vm.programs_compiled"].value =
        static_cast<double>(t.programs_compiled);
    layer["runtime.calibrate_ms"].value = t.calibrate_ms;
    layer["runtime.variants"].value = static_cast<double>(t.variants);

    layer["apps.bind_us_p50"].value = quantile(bind_us, 0.5);
    layer["exec.launch_us_p50"].value = quantile(launch_us, 0.5);
    std::vector<double> queue_us;
    double instructions = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto it = seeds.find(requests[i].seed);
        if (!outcomes[i].ok || it == seeds.end())
            continue;
        instructions += static_cast<double>(it->second.instructions);
        queue_us.push_back(
            (outcomes[i].latency_s - it->second.closure_seconds) * 1e6);
    }
    layer["serve.queue_us_p50"].value = quantile(queue_us, 0.5);
    layer["vm.dispatches_per_request"].value =
        queue_us.empty() ? 0.0
                         : instructions / static_cast<double>(queue_us.size());

    const auto share = [&serve](double part) {
        return serve.served > 0 ? part / serve.served : 0.0;
    };
    layer["serve.batch_mean"].value =
        serve.batches > 0 ? serve.batch_requests / serve.batches : 0.0;
    layer["serve.coalesced_share"].value = share(serve.coalesced_requests);
    layer["serve.shadow_share"].value = share(serve.shadow_runs);
    layer["serve.shadow_violations"].value = serve.shadow_violations;
    layer["serve.recalibrations"].value = serve.recalibrations;
}

}  // namespace perfbench
