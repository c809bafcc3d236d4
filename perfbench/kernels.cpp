/// @file
/// Kernel catalogue, set-up with benchmark-side probes, and the small
/// measurement helpers shared by every workload.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/variants.h"
#include "memo/table.h"
#include "runtime/session.h"
#include "vm/program_cache.h"

namespace perfbench {

namespace apps = paraprox::apps;
namespace core = paraprox::core;
namespace device = paraprox::device;
namespace exec = paraprox::exec;

std::vector<std::uint64_t>
training_seeds(const KernelSpec& spec)
{
    std::vector<std::uint64_t> seeds;
    for (int i = 1; i <= spec.training_inputs; ++i)
        seeds.push_back(101u * static_cast<std::uint64_t>(i));
    return seeds;
}

double
quantile(std::vector<double>& values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<KernelSpec>
workload_kernels(const std::string& workload)
{
    if (workload == "paper_mix") {
        // Mid-size requests for paper apps with a Setup handle, from each
        // approximation family: memoization, tile, sampling.  Kernel
        // Density Estimation is left out (see small_burst); Image
        // Denoising takes its sampling slot.  An odd kernel count keeps
        // the median request inside one kernel's latency cluster instead
        // of in the gap between two.
        return {{"BlackScholes", 0.5},
                {"Quasirandom Generator", 0.5},
                {"BoxMuller", 0.5},
                {"Mean Filter", 0.5},
                {"Gaussian Filter", 0.5},
                {"HotSpot", 0.5},
                {"Matrix Multiply", 0.5},
                {"Image Denoising", 0.5},
                {"Naive Bayes", 0.5}};
    }
    // Kernel Density Estimation at scale 0.5 and Gamma Correction at 1k
    // pixels are left out: their selected variants meet the TOQ on
    // average but miss it on enough single requests that the shadow
    // audits open and close their breakers during a run, so the served
    // variant, and with it every timing, changes from run to run.
    if (workload == "small_burst" || workload == "fleet_sync") {
        // About 1k elements each, so per-request fixed costs dominate.
        // Sixteen training inputs give calibration about as many elements
        // as the two mid-size inputs of paper_mix.
        return {{"BlackScholes", 1024.0 / 131072.0, 16},
                {"Quasirandom Generator", 1024.0 / 131072.0, 16},
                {"HotSpot", 0.25, 16}};
    }
    throw std::invalid_argument("unknown workload `" + workload + "`");
}

// ---- Probes ----------------------------------------------------------------

void
Samples::add(double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    values_.push_back(value);
}

std::vector<double>
Samples::take() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return values_;
}

void
Trace::record_run(std::uint64_t seed, double seconds,
                  std::uint64_t instructions)
{
    std::lock_guard<std::mutex> lock(seeds_mutex);
    SeedRecord& record = seeds[seed];
    record.closure_seconds += seconds;
    if (!record.ran) {
        record.instructions = instructions;
        record.ran = true;
    }
}

Trace&
trace()
{
    static Trace instance;
    return instance;
}

namespace {

/// Seconds this thread spent inside wrapped bind_inputs calls; a serving
/// closure reads it before and after its inner call.  Binding runs on the
/// closure's own thread (the launch pool holds one thread, see main).
thread_local double t_bind_seconds = 0.0;

std::unique_ptr<apps::Application>
make_app(const std::string& name)
{
    static const std::map<std::string,
                          std::function<std::unique_ptr<apps::Application>()>>
        factories = {
            {"BlackScholes", apps::make_blackscholes},
            {"Quasirandom Generator", apps::make_quasirandom},
            {"BoxMuller", apps::make_boxmuller},
            {"HotSpot", apps::make_hotspot},
            {"Gaussian Filter", apps::make_gaussian_filter},
            {"Mean Filter", apps::make_mean_filter},
            {"Matrix Multiply", apps::make_matrix_multiply},
            {"Image Denoising", apps::make_image_denoising},
            {"Naive Bayes", apps::make_naive_bayes},
        };
    const auto it = factories.find(name);
    if (it == factories.end())
        throw std::invalid_argument("no factory for app `" + name + "`");
    return it->second();
}

/// Time every bind_inputs call made for a timed seed.
void
wrap_binding(core::LaunchPlan& plan)
{
    plan.bind_inputs = [inner = plan.bind_inputs](
                           std::uint64_t seed, exec::ArgPack& args,
                           std::vector<std::unique_ptr<exec::Buffer>>&
                               storage) {
        const auto start = Clock::now();
        inner(seed, args, storage);
        const double seconds = seconds_since(start);
        t_bind_seconds += seconds;
        if (is_timed(seed))
            trace().bind_us.add(seconds * 1e6);
    };
}

/// Time the serving closures (run_fast, run_batch): launch time is the
/// closure's time minus the binding it did; closure time is charged to
/// every seed it served.
void
wrap_serving(runtime::Variant& variant)
{
    if (variant.run_fast) {
        variant.run_fast = [inner = variant.run_fast](std::uint64_t seed) {
            const double bind_before = t_bind_seconds;
            const auto start = Clock::now();
            runtime::VariantRun run = inner(seed);
            const double seconds = seconds_since(start);
            if (is_timed(seed)) {
                trace().launch_us.add(
                    (seconds - (t_bind_seconds - bind_before)) * 1e6);
                trace().record_run(seed, seconds, run.instructions);
            }
            return run;
        };
    }
    if (variant.run_batch) {
        variant.run_batch = [inner = variant.run_batch](
                                const std::vector<std::uint64_t>& seeds) {
            const double bind_before = t_bind_seconds;
            const auto start = Clock::now();
            auto runs = inner(seeds);
            const double seconds = seconds_since(start);
            if (!seeds.empty() && is_timed(seeds.front())) {
                trace().launch_us.add(
                    (seconds - (t_bind_seconds - bind_before)) * 1e6);
                for (std::size_t i = 0; i < seeds.size(); ++i)
                    trace().record_run(seeds[i], seconds,
                                       runs[i].instructions);
            }
            return runs;
        };
    }
}

/// Record the modeled cycles and quality of every instrumented training
/// run (calibration is the only caller of `run` while serving is Fast).
/// Only exact outputs are kept: the sweep runs the exact variant first,
/// so approximate runs are scored as they finish.
void
wrap_calibration(runtime::Variant& variant, runtime::Metric metric,
                 const std::shared_ptr<CalibrationCapture>& capture,
                 const std::vector<std::uint64_t>& seeds)
{
    variant.run = [inner = variant.run, label = variant.label, metric,
                   capture, seeds](std::uint64_t seed) {
        runtime::VariantRun run = inner(seed);
        if (std::find(seeds.begin(), seeds.end(), seed) == seeds.end())
            return run;
        std::lock_guard<std::mutex> lock(capture->mutex);
        CalibrationCapture::Run& slot = capture->runs[{label, seed}];
        slot.modeled_cycles = run.modeled_cycles;
        const auto exact = capture->runs.find({"exact", seed});
        if (label != "exact" && exact != capture->runs.end() &&
            !exact->second.output.empty())
            slot.quality =
                reference_quality(metric, exact->second.output, run.output);
        else
            slot.output = run.output;
        return run;
    };
}

}  // namespace

PreparedKernel
prepare_kernel(const KernelSpec& spec, const device::DeviceModel& device)
{
    PreparedKernel kernel;
    kernel.spec = spec;

    const auto parse_start = Clock::now();
    kernel.app = make_app(spec.app);
    trace().parse_ms += seconds_since(parse_start) * 1e3;
    kernel.app->set_scale(spec.scale);
    kernel.metric = kernel.app->info().metric;

    const auto session_start = Clock::now();
    kernel.setup = kernel.app->setup(device);
    if (!kernel.setup)
        throw std::runtime_error(spec.app + " has no Setup handle");
    // The probes wrap a copy of the plan: the reference check re-creates
    // inputs through the original, off the clock and unrecorded.
    core::LaunchPlan serving_plan = kernel.setup->plan;
    if (trace().enabled)
        wrap_binding(serving_plan);
    kernel.variants = kernel.setup->session->variants(serving_plan);
    trace().session_ms += seconds_since(session_start) * 1e3;

    kernel.capture = std::make_shared<CalibrationCapture>();
    for (auto& variant : kernel.variants) {
        wrap_calibration(variant, kernel.metric, kernel.capture,
                         training_seeds(spec));
        if (trace().enabled)
            wrap_serving(variant);
    }
    return kernel;
}

std::size_t
exact_output_length(const PreparedKernel& kernel)
{
    std::lock_guard<std::mutex> lock(kernel.capture->mutex);
    return kernel.capture->runs
        .at({"exact", training_seeds(kernel.spec).front()})
        .output.size();
}

SetupCounters::SetupCounters()
    : searches_(paraprox::memo::table_search_invocations()),
      programs_(paraprox::vm::ProgramCache::global().stats().misses)
{
}

void
SetupCounters::finish() const
{
    trace().table_searches =
        paraprox::memo::table_search_invocations() - searches_;
    trace().programs_compiled =
        paraprox::vm::ProgramCache::global().stats().misses - programs_;
}

std::optional<Selection>
selection_of(const PreparedKernel& kernel, const std::string& label)
{
    std::lock_guard<std::mutex> lock(kernel.capture->mutex);
    const auto& runs = kernel.capture->runs;
    Selection selection;
    double exact_cycles = 0.0;
    double cycles = 0.0;
    double quality = 0.0;
    const auto seeds = training_seeds(kernel.spec);
    for (const std::uint64_t seed : seeds) {
        const auto exact = runs.find({"exact", seed});
        const auto chosen = runs.find({label, seed});
        if (exact == runs.end() || chosen == runs.end())
            return std::nullopt;
        exact_cycles += exact->second.modeled_cycles;
        cycles += chosen->second.modeled_cycles;
        quality += chosen->second.quality >= 0.0
                       ? chosen->second.quality
                       : reference_quality(kernel.metric,
                                           exact->second.output,
                                           chosen->second.output);
    }
    selection.modeled_speedup = cycles > 0.0 ? exact_cycles / cycles : 1.0;
    selection.quality =
        quality / static_cast<double>(seeds.size());
    return selection;
}

// ---- Process measurements --------------------------------------------------

double
self_cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
proc_cpu_seconds(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(in, line))
        return 0.0;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const auto close = line.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int index = 3; rest >> field; ++index) {
        if (index == 14)
            utime = std::stod(field);
        if (index == 15) {
            stime = std::stod(field);
            break;
        }
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
peak_rss_mb(int pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
    return 0.0;
}

double
spin_ms()
{
    const auto start = Clock::now();
    volatile double sink = 0.0;
    double x = 1.0;
    for (int i = 0; i < 60'000'000; ++i)
        x = x * 1.0000001 + 1e-9;
    sink = x;
    (void)sink;
    return seconds_since(start) * 1e3;
}

}  // namespace perfbench
