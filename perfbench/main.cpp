/// @file
/// paraprox_perfbench: the repository's end-to-end benchmark.
///
///     paraprox_perfbench --workload <paper_mix|small_burst|fleet_sync>
///                        --seed <n> --seconds <s> --trace <0|1>
///                        [--scratch <dir>]
///
/// Sets up the workload's kernels from their ParaCL sources, serves a
/// fixed seeded request sequence through the library's public API, checks
/// every reply, and prints one JSON line last on stdout: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1.  A human
/// summary goes to stderr.  See README.md for the workloads and metrics.
///
/// Reference-figure variations (README only): --exact-only,
/// --max-batch <n>, --sync-clients <n>, --wall-compare.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Result;
using perfbench::Value;

[[noreturn]] void
usage(const std::string& problem)
{
    std::fprintf(stderr,
                 "paraprox_perfbench: %s\n"
                 "usage: paraprox_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>] "
                 "[--exact-only] [--max-batch <n>] [--sync-clients <n>] "
                 "[--wall-compare]\n",
                 problem.c_str());
    std::exit(2);
}

long long
parse_int(const std::string& flag, const std::string& text)
{
    try {
        std::size_t used = 0;
        const long long value = std::stoll(text, &used);
        if (used == text.size())
            return value;
    } catch (const std::exception&) {
    }
    usage("bad value `" + text + "` for " + flag);
}

Options
parse(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--exact-only" || flag == "--wall-compare") {
            (flag == "--exact-only" ? options.exact_only
                                    : options.wall_compare) = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = static_cast<std::uint64_t>(parse_int(flag, value));
        else if (flag == "--seconds")
            options.seconds = static_cast<int>(parse_int(flag, value));
        else if (flag == "--trace")
            options.trace = parse_int(flag, value) != 0;
        else if (flag == "--scratch")
            options.scratch = value;
        else if (flag == "--max-batch")
            options.max_batch = static_cast<int>(parse_int(flag, value));
        else if (flag == "--sync-clients")
            options.sync_clients = static_cast<int>(parse_int(flag, value));
        else
            usage("unknown flag " + flag);
    }
    if (options.workload.empty())
        usage("--workload is required");
    if (options.seconds < 1 || options.seconds > 600)
        usage("--seconds must be in [1, 600]");
    return options;
}

void
print_metrics(const std::map<std::string, Value>& metrics)
{
    bool first = true;
    for (const auto& [name, metric] : metrics) {
        // %.17g keeps every digit of the measured double.
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(),
                    std::isfinite(metric.value) ? metric.value : 0.0,
                    metric.unit.c_str());
        first = false;
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    const auto start = perfbench::Clock::now();
    if (argc > 1 && std::string(argv[1]) == "--replica")
        return perfbench::run_replica(
            std::vector<std::string>(argv + 2, argv + argc));

    const Options options = parse(argc, argv);
    // Busy threads stay within the cores: each launch runs on its
    // worker's own thread (a one-thread launch pool), and no artifact
    // store is attached unless a workload configures one.
    setenv("PARAPROX_THREADS", "1", 1);
    unsetenv("PARAPROX_STORE_DIR");
    unsetenv("PARAPROX_FAULTS");
    perfbench::trace().enabled = options.trace;

    Result result;
    try {
        result = options.workload == "fleet_sync"
                     ? perfbench::run_fleet(options, start)
                     : perfbench::run_inprocess(options, start);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "paraprox_perfbench: %s\n", error.what());
        return 1;
    }
    result.per_layer["host.spin_ms"].value = perfbench::spin_ms();

    std::fprintf(stderr, "%s seed=%llu: %llu attempted, %llu failed, %s\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 static_cast<unsigned long long>(result.attempted),
                 static_cast<unsigned long long>(result.failed),
                 result.correct ? "correct" : "INCORRECT");
    // End-to-end figures always (a traced run's show the tracing
    // overhead); per-layer ones only when they were traced.
    for (const auto* group : {&result.end_to_end, &result.per_layer}) {
        if (group == &result.per_layer && !options.trace)
            break;
        for (const auto& [name, metric] : *group)
            std::fprintf(stderr, "  %-26s %14.4f %s\n", name.c_str(),
                         metric.value, metric.unit.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    print_metrics(options.trace ? result.per_layer : result.end_to_end);
    std::printf("}}\n");
    std::fflush(stdout);
    return 0;
}
