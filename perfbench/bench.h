/// @file
/// Shared declarations of the end-to-end benchmark: the kernel catalogue,
/// the benchmark-side probes wrapped around each layer's public calls,
/// the plain C++ reference kernels, and small measurement helpers.
///
/// Everything here lives outside the library.  Layers are timed from the
/// benchmark's own closures around `LaunchPlan::bind_inputs`, the
/// `Variant` serving closures, `ApproxService::register_kernel`,
/// `Application::setup`, `FrontDoor::route` and the wire codecs; the
/// library itself carries no tracing.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/app.h"
#include "runtime/quality.h"
#include "runtime/tuner.h"
#include "serve/metrics.h"

namespace perfbench {

namespace runtime = paraprox::runtime;

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Target output quality of every kernel, in percent (the paper's TOQ).
constexpr double kToq = 90.0;

/// Seeds of timed requests carry this bit; warm-up and calibration seeds
/// do not.  Probes record samples only for tagged seeds, so a layer's
/// figures cover exactly the timed request sequence, in every process.
constexpr std::uint64_t kTimedBit = 1ull << 61;

inline bool
is_timed(std::uint64_t seed)
{
    return (seed & kTimedBit) != 0;
}

/// Linear-interpolated quantile of @p values (sorted in place); 0 when
/// empty.
double quantile(std::vector<double>& values, double q);

// ---- Kernel catalogue ------------------------------------------------------

/// One served kernel: which Table 1 application, at what scale, and on
/// how many training inputs it is calibrated.
struct KernelSpec {
    std::string app;      ///< apps::AppInfo::name.
    double scale = 1.0;   ///< apps::Application::set_scale argument.
    int training_inputs = 2;
};

/// Calibration inputs of @p spec; fixed, so selection does not depend on
/// --seed.
std::vector<std::uint64_t> training_seeds(const KernelSpec& spec);

/// The kernels a workload serves, in registration order.
std::vector<KernelSpec> workload_kernels(const std::string& workload);

// ---- Probes ----------------------------------------------------------------

/// Thread-safe sample list.
class Samples {
  public:
    void add(double value);
    std::vector<double> take() const;

  private:
    mutable std::mutex mutex_;
    std::vector<double> values_;
};

/// Benchmark-side observations of the layers, filled by the closures the
/// benchmark wraps around library calls.  One per process.
struct Trace {
    /// Off: serving closures and input binding run unwrapped (the
    /// CalibrationCapture closures are always on).
    bool enabled = false;

    // Set-up path.
    double parse_ms = 0.0;
    double session_ms = 0.0;
    double calibrate_ms = 0.0;
    std::uint64_t table_searches = 0;
    std::uint64_t programs_compiled = 0;
    std::uint64_t variants = 0;

    // Request path (timed seeds only).
    Samples bind_us;
    Samples launch_us;  ///< Closure time minus binding, per call.

    /// What the serving closures did for one timed seed.
    struct SeedRecord {
        /// Closure seconds spent on the seed: primary run (a coalesced
        /// batch's whole time for each member) plus any shadow run.
        double closure_seconds = 0.0;
        /// VM dispatches of the first (primary) run.
        std::uint64_t instructions = 0;
        bool ran = false;
    };
    std::mutex seeds_mutex;
    std::unordered_map<std::uint64_t, SeedRecord> seeds;

    void record_run(std::uint64_t seed, double seconds,
                    std::uint64_t instructions);
};

Trace& trace();

/// What the instrumented calibration runs produced, per (variant label,
/// training seed): the benchmark recomputes the tuner's modeled speedup
/// and calibration quality from it.
struct CalibrationCapture {
    struct Run {
        double modeled_cycles = 0.0;
        /// Quality against the exact run of the same seed; negative until
        /// scored.
        double quality = -1.0;
        /// Kept for the exact variant, and for a run that finished before
        /// its exact counterpart (scored later).
        std::vector<float> output;
    };
    std::mutex mutex;
    std::map<std::pair<std::string, std::uint64_t>, Run> runs;
};

/// A kernel set up from its ParaCL source and ready to register.
struct PreparedKernel {
    KernelSpec spec;
    std::unique_ptr<paraprox::apps::Application> app;
    std::optional<paraprox::apps::Application::Setup> setup;
    std::vector<runtime::Variant> variants;
    runtime::Metric metric = runtime::Metric::L1Norm;
    std::shared_ptr<CalibrationCapture> capture;
    std::size_t output_length = 0;
};

/// Construct the application (parse), set it up (detection, generation,
/// table search, bytecode) and build its variant list with the
/// benchmark's closures around binding and serving.  Adds parse and
/// session time to trace().
PreparedKernel prepare_kernel(const KernelSpec& spec,
                              const paraprox::device::DeviceModel& device);

/// Length of the kernel's output, from its first exact calibration run.
std::size_t exact_output_length(const PreparedKernel& kernel);

/// Set-up work counted between construction and finish(), into trace():
/// table searches and programs compiled.
class SetupCounters {
  public:
    SetupCounters();
    void finish() const;

  private:
    std::uint64_t searches_;
    std::uint64_t programs_;
};

/// What calibration selected for one kernel, recomputed from the capture.
struct Selection {
    double modeled_speedup = 1.0;
    double quality = 100.0;  ///< Mean over training seeds, Table 1 metric.
};

/// Recompute the tuner's figures for the variant labelled @p label.
/// nullopt when the capture lacks any run of it.
std::optional<Selection> selection_of(const PreparedKernel& kernel,
                                      const std::string& label);

// ---- Reference -------------------------------------------------------------

/// Quality in percent of @p approx against @p exact, computed by the
/// benchmark's own implementation of the Table 1 metric.
double reference_quality(runtime::Metric metric,
                         const std::vector<float>& exact,
                         const std::vector<float>& approx);

/// Re-create the inputs of request @p seed through @p kernel's launch
/// plan and compute the output with plain C++ arithmetic.
std::vector<float> reference_output(const PreparedKernel& kernel,
                                    std::uint64_t seed);

/// Largest |got - want| / max(1, |want|) over the elements.
double max_scaled_error(const std::vector<float>& want,
                        const std::vector<float>& got);

/// Exact-served outputs must match the reference within this scaled
/// error (single-precision transcendental calls and operation order).
constexpr double kExactTolerance = 1e-4;

// ---- Process measurements --------------------------------------------------

/// CPU seconds consumed so far by this process (all threads).
double self_cpu_seconds();
/// CPU seconds consumed so far by process @p pid, from /proc.
double proc_cpu_seconds(int pid);
/// Peak resident set of process @p pid (0 = self) in MiB, from /proc.
double peak_rss_mb(int pid = 0);

/// A fixed CPU loop; returns its wall milliseconds.  Moves no metric: it
/// tells machine drift apart from a regression.
double spin_ms();

// ---- Runs ------------------------------------------------------------------

/// Command-line options of one run.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /// Directory (relative to the working directory) for the fleet's
    /// artifact store and sockets; removed at the end of the run.
    std::string scratch = ".bench_build/run";
    // Variations used only for the README's reference figures.
    bool exact_only = false;  ///< Register each kernel's exact variant alone.
    int max_batch = 0;        ///< >0 overrides BatchConfig::max_batch.
    int sync_clients = 0;     ///< >0: that many submit-and-wait clients.
    /// After the run, time each kernel's exact and selected variants'
    /// serving closures on the same inputs (stderr only).
    bool wall_compare = false;
};

/// One reported figure.
struct Value {
    double value = 0.0;
    std::string unit;
};

/// What one run prints as its result line.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Value> end_to_end;
    std::map<std::string, Value> per_layer;
};

/// One timed request: which kernel, on which input.
struct Request {
    std::size_t kernel = 0;
    std::uint64_t seed = 0;
    bool sampled = false;  ///< Output kept for the reference check.
};

/// What the client saw for one request.
struct Outcome {
    bool ok = false;        ///< Ok status, finite, right length.
    bool exact = false;     ///< Served by the exact variant.
    double latency_s = 0.0;
    Clock::time_point replied{};     ///< When the client had the reply.
    std::vector<float> output;       ///< Sampled requests only.
};

/// Whole rounds of requests, one per kernel per round in a seeded order.
/// The count follows from --seconds and the workload's nominal rate on
/// the reference machine, never from the clock, so every run of a
/// workload serves the same number of requests.
std::vector<Request> make_requests(const Options& options,
                                   std::size_t kernels, double nominal_rps);

/// Length and finiteness check of one reply.
bool reply_ok(const std::vector<float>& output, std::size_t expected);

/// Off-clock checks; the run is correct only if none fails.
class Checks {
  public:
    void fail(const std::string& problem);
    bool ok() const { return problems_.empty(); }
    const std::vector<std::string>& problems() const { return problems_; }

  private:
    std::vector<std::string> problems_;
};

/// Score every sampled request against the reference: exact-served
/// outputs within kExactTolerance, approximate ones averaging at least
/// the TOQ per kernel.
void check_samples(const std::vector<PreparedKernel>& kernels,
                   const std::vector<Request>& requests,
                   const std::vector<Outcome>& outcomes, Checks& checks);

/// Check each kernel's calibrated selection (modeled speedup >= 1,
/// calibration quality >= TOQ) and return the geometric mean speedup.
double check_selections(const std::vector<PreparedKernel>& kernels,
                        const std::vector<std::string>& selected,
                        Checks& checks);

/// Fill the end-to-end metrics every workload reports, and the client
/// side of the per-layer ones.  Throughput and latency are medians over
/// consecutive slices of the request sequence (see common.cpp).
void fill_client_metrics(Result& result, const std::vector<Request>& requests,
                         const std::vector<Outcome>& outcomes, double cpu_s,
                         double rss_mb, double setup_s,
                         double modeled_speedup);

/// Every per-layer metric, zero; workloads overwrite what their path has.
void init_per_layer(Result& result);

/// The serve-layer counters of one or more services, summed.
struct ServeCounters {
    double served = 0.0;
    double batches = 0.0;
    double batch_requests = 0.0;  ///< Requests over all pops.
    double coalesced_requests = 0.0;
    double shadow_runs = 0.0;
    double shadow_violations = 0.0;
    double recalibrations = 0.0;

    ServeCounters() = default;
    explicit ServeCounters(const paraprox::serve::MetricsSnapshot& metrics);
    ServeCounters& operator+=(const ServeCounters& other);
};

/// Fill the set-up layers from trace(), and the request-path and serve
/// layers from the probes' samples: @p seeds maps a timed seed to what the
/// serving closures did for it.
void fill_layers(
    Result& result, const std::vector<Request>& requests,
    const std::vector<Outcome>& outcomes,
    const std::unordered_map<std::uint64_t, Trace::SeedRecord>& seeds,
    std::vector<double> bind_us, std::vector<double> launch_us,
    const ServeCounters& serve);

Result run_inprocess(const Options& options, Clock::time_point start);
Result run_fleet(const Options& options, Clock::time_point start);
/// Entry point of a forked fleet replica (see fleet.cpp).
int run_replica(const std::vector<std::string>& args);

}  // namespace perfbench
