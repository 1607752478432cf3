/**
 * @file
 * Parallel-in-model PDES speedup bench: one 16x16 open-loop injector
 * simulation partitioned across {1, 2, 4} logical processes (one
 * worker thread per LP), timed wall-clock.
 *
 * Two numbers matter:
 *  - correctness: every LP count must produce a bit-identical
 *    InjectorResult (the binary exits non-zero otherwise), and
 *  - speedup: events/sec at 4 LPs over the single-LP run.
 *
 * Timed points run with metrics timing on, so the per-LP horizon
 * breakdown (busy, blocked and spin wall time, spills, peak channel
 * depth) lands in BENCH_pdes.json next to the speedup — the perf
 * trajectory records *why* a point is slow. --sim-stats prints each
 * point's load-balance report (PdesLoadReport).
 *
 * Shared harness telemetry flags:
 *   --trace=<file>    capture the 4-LP run's parallel Perfetto
 *                     timeline (PdesTracer) — captured twice, with 1
 *                     and 3 worker threads, and the two serializations
 *                     must be byte-identical (exit non-zero
 *                     otherwise); the JSON is self-validated before
 *                     writing.
 *   --metrics=<file>  dump the 4-LP point's pdes.* stat registry.
 *   --profile         print each timed point's per-LP event-loop
 *                     profile, folded in fixed LP order.
 *
 * --smoke shrinks the window for CI (the smoke run is also wired
 * into the MACROSIM_SANITIZE=thread configuration, where it doubles
 * as a TSan exercise of the horizon protocol under real load);
 * full runs pin their measurement in BENCH_pdes.json.
 *
 * --lp N / --threads-per-sim T time one extra point with N logical
 * processes on T worker threads (T defaults to N). N must lie in
 * [1, 256] (the grid's site count) and T in [1, N]; anything else,
 * garbage included, exits non-zero before any point runs.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.hh"
#include "harness.hh"
#include "net/pt2pt.hh"
#include "sim/logging.hh"
#include "sim/telemetry/json.hh"
#include "workloads/packet_injector.hh"

namespace
{

using namespace macrosim;
using namespace macrosim::bench;
using Clock = std::chrono::steady_clock;

struct PdesBenchPoint
{
    std::uint32_t lps = 1;
    std::size_t threads = 1;
    PdesInjectorResult run;
    double wallSec = 0.0;
    double eventsPerSec = 0.0;
    std::string profile;
    std::string metrics;
};

InjectorConfig
benchConfig(bool smoke)
{
    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = 0.10;
    cfg.warmup = (smoke ? 300 : 2000) * tickNs;
    cfg.window = (smoke ? 1500 : 10000) * tickNs;
    cfg.seed = 42;
    return cfg;
}

PdesNetworkFactory
benchFactory()
{
    return [](Simulator &sim) -> std::unique_ptr<Network> {
        return std::make_unique<PointToPointNetwork>(
            sim, scaledConfig(16, 16));
    };
}

PdesBenchPoint
timePoint(const InjectorConfig &cfg, std::uint32_t lps,
          std::size_t threads, const TelemetryOptions &topts)
{
    PdesBenchPoint p;
    p.lps = lps;
    p.threads = threads;
    PdesObservability obs;
    obs.timing = true;
    obs.profile = topts.profile;
    if (topts.profile)
        obs.profileOut = &p.profile;
    if (!topts.metricsPath.empty())
        obs.metricsOut = &p.metrics;
    const Clock::time_point t0 = Clock::now();
    p.run = runOpenLoopPdes(benchFactory(), cfg, lps, threads, &obs);
    const Clock::time_point t1 = Clock::now();
    p.wallSec =
        std::chrono::duration<double>(t1 - t0).count();
    p.eventsPerSec = p.wallSec > 0.0
        ? static_cast<double>(p.run.eventsExecuted) / p.wallSec
        : 0.0;
    return p;
}

/**
 * How much CPU this machine actually gives 4 concurrent threads,
 * measured with pure busy loops: 4.0 on >= 4 free cores, ~1.0 in a
 * single-core container. The PDES wall-clock speedup is bounded above
 * by this number, so it is pinned next to the speedup — a 1.0x PDES
 * result on a 1.0x machine is the protocol breaking even, not
 * failing to scale.
 */
double
machineThreadScaling()
{
    constexpr std::uint64_t iters = 60'000'000;
    std::atomic<std::uint64_t> sink{0};
    const auto burn = [&sink] {
        std::uint64_t s = 0;
        for (std::uint64_t i = 0; i < iters; ++i)
            s += i * i;
        sink.fetch_add(s, std::memory_order_relaxed);
    };
    const Clock::time_point t0 = Clock::now();
    burn();
    const Clock::time_point t1 = Clock::now();
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back(burn);
    for (std::thread &t : threads)
        t.join();
    const Clock::time_point t2 = Clock::now();
    const double serial = std::chrono::duration<double>(t1 - t0).count();
    const double par = std::chrono::duration<double>(t2 - t1).count();
    return par > 0.0 ? 4.0 * serial / par : 0.0;
}

bool
identical(const InjectorResult &a, const InjectorResult &b)
{
    return a.offeredLoadPct == b.offeredLoadPct
        && a.meanLatencyNs == b.meanLatencyNs
        && a.maxLatencyNs == b.maxLatencyNs
        && a.p50LatencyNs == b.p50LatencyNs
        && a.p99LatencyNs == b.p99LatencyNs
        && a.deliveredBytesPerNsPerSite == b.deliveredBytesPerNsPerSite
        && a.deliveredPct == b.deliveredPct
        && a.measuredPackets == b.measuredPackets
        && a.overflowPackets == b.overflowPackets
        && a.offeredMeasuredPct == b.offeredMeasuredPct;
}

/**
 * Capture the PDES Perfetto timeline of one untimed run and return
 * its serialized JSON. Called twice with different worker-thread
 * counts: the two strings must be byte-identical (the PdesTracer
 * determinism bar).
 */
std::string
captureTrace(const InjectorConfig &cfg, std::uint32_t lps,
             std::size_t threads)
{
    TraceSink sink;
    PdesObservability obs;
    obs.trace = &sink;
    runOpenLoopPdes(benchFactory(), cfg, lps, threads, &obs);
    std::ostringstream os;
    sink.writeJson(os);
    return os.str();
}

/** "[a,b,c]" from a per-LP extractor, %g-rendered. */
template <typename Fn>
std::string
jsonLpArray(const PdesLoadReport &load, Fn &&value)
{
    std::string out = "[";
    for (std::size_t i = 0; i < load.lps.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%s%.6g", i ? "," : "",
                      value(load.lps[i]));
        out += buf;
    }
    out += "]";
    return out;
}

std::string
jsonNum(const char *key, double v, const char *fmt = "%.6g")
{
    char buf[96];
    std::string pattern = std::string("\"%s\":") + fmt;
    std::snprintf(buf, sizeof(buf), pattern.c_str(), key, v);
    return buf;
}

/** Sites of the bench grid: the most LPs a point can partition into. */
constexpr std::uint64_t benchSites = 16 * 16;

/**
 * The extra point's --lp / --threads-per-sim, both optional; fatal()
 * on garbage, on 0, on more LPs than sites, or on more threads than
 * LPs (the scheduler would clamp them and mislabel the point).
 */
void
extraPointArgs(int &argc, char **argv, std::uint32_t *lps,
               std::size_t *threads)
{
    std::uint64_t lp = 0, t = 0;
    const bool have_lp = stripNumberFlag(argc, argv, "lp", &lp);
    const bool have_t =
        stripNumberFlag(argc, argv, "threads-per-sim", &t);
    if (have_lp && (lp == 0 || lp > benchSites))
        fatal("--lp must be in [1, ", benchSites, "], got ", lp);
    if (have_t && !have_lp)
        fatal("--threads-per-sim needs --lp");
    if (have_t && (t == 0 || t > lp))
        fatal("--threads-per-sim must be in [1, --lp = ", lp,
              "], got ", t);
    *lps = static_cast<std::uint32_t>(lp);
    *threads = static_cast<std::size_t>(have_t ? t : lp);
}

} // namespace

int
main(int argc, char **argv)
{
    installSweepSignalHandlers();
    const TelemetryOptions topts = telemetryArgs(argc, argv);
    const bool simStats = simStatsArg(argc, argv);
    const bool smoke = topts.smoke;
    std::uint32_t extra_lp = 0;
    std::size_t extra_threads = 0;
    try {
        extraPointArgs(argc, argv, &extra_lp, &extra_threads);
        rejectUnknownFlags(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "bench_pdes: %s\n", e.what());
        return 2;
    }

    const InjectorConfig cfg = benchConfig(smoke);
    std::vector<PdesBenchPoint> points;
    for (const std::uint32_t lps : {1u, 2u, 4u})
        points.push_back(timePoint(cfg, lps, lps, topts));
    if (extra_lp > 0)
        points.push_back(timePoint(cfg, extra_lp, extra_threads, topts));

    bool ok = true;
    for (const PdesBenchPoint &p : points) {
        std::printf("pdes lp=%-2u threads=%-2zu  %10.6f s  "
                    "%.3e events/s  cross=%llu  mean=%.3f ns  "
                    "delivered=%.2f%%\n",
                    p.lps, p.threads, p.wallSec, p.eventsPerSec,
                    static_cast<unsigned long long>(p.run.crossPosts),
                    p.run.result.meanLatencyNs,
                    p.run.result.deliveredPct);
        if (!identical(points.front().run.result, p.run.result)) {
            std::fprintf(stderr,
                         "bench_pdes: lp=%u threads=%zu result "
                         "differs from the single-LP run\n",
                         p.lps, p.threads);
            ok = false;
        }
        if (simStats)
            p.run.load.print(std::cerr);
        if (topts.profile && !p.profile.empty())
            std::cerr << p.profile;
    }

    // Perfetto capture: two untimed runs of the largest point on
    // different worker-thread counts must serialize byte-identical
    // trace JSON — the observability layer is held to the same
    // determinism bar as the results (DESIGN.md §12).
    if (topts.tracing()) {
        const std::uint32_t trace_lps = extra_lp > 0 ? extra_lp : 4;
        const std::string t1 = captureTrace(cfg, trace_lps, 1);
        const std::string t3 = captureTrace(cfg, trace_lps, 3);
        if (t1 != t3) {
            std::fprintf(stderr,
                         "bench_pdes: trace JSON differs between 1 "
                         "and 3 worker threads (%zu vs %zu bytes)\n",
                         t1.size(), t3.size());
            ok = false;
        }
        std::string err;
        if (!jsonValid(t1, &err)) {
            std::fprintf(stderr,
                         "bench_pdes: trace JSON invalid: %s\n",
                         err.c_str());
            ok = false;
        }
        writeTextFile(topts.tracePath, t1);
        std::fprintf(stderr,
                     "bench_pdes: wrote %s (%zu bytes, lp=%u, "
                     "thread-count invariant: %s)\n",
                     topts.tracePath.c_str(), t1.size(), trace_lps,
                     t1 == t3 ? "yes" : "NO");
    }
    if (!topts.metricsPath.empty())
        writeTextFile(topts.metricsPath, points.back().metrics);

    const double base = points[0].eventsPerSec;
    const double speedup2 = base > 0.0
        ? points[1].eventsPerSec / base : 0.0;
    const double speedup4 = base > 0.0
        ? points[2].eventsPerSec / base : 0.0;
    const double scaling = machineThreadScaling();
    std::printf("pdes speedup: 2 LPs %.2fx, 4 LPs %.2fx "
                "(machine gives 4 threads %.2fx)\n",
                speedup2, speedup4, scaling);

    // The 4-LP point's per-LP breakdown goes into the pinned JSON:
    // with one LP per worker, drain + exec + blocked + spin wall per
    // LP sum to roughly wall_sec_4lp, so a slow point explains itself.
    const PdesBenchPoint &p4 = points[2];
    const PdesLoadReport &load4 = p4.run.load;
    std::string json = "{\"bench\":\"pdes\",\"grid\":\"16x16\",";
    json += jsonNum("load", cfg.load, "%.2f") + ",";
    json += jsonNum("events_per_sec_1lp", points[0].eventsPerSec,
                    "%.6e") + ",";
    json += jsonNum("events_per_sec_2lp", points[1].eventsPerSec,
                    "%.6e") + ",";
    json += jsonNum("events_per_sec_4lp", points[2].eventsPerSec,
                    "%.6e") + ",";
    json += jsonNum("speedup_2lp", speedup2, "%.3f") + ",";
    json += jsonNum("speedup_4lp", speedup4, "%.3f") + ",";
    json += jsonNum("machine_thread_scaling_4", scaling, "%.3f") + ",";
    json += jsonNum("cross_posts_4lp",
                    static_cast<double>(p4.run.crossPosts), "%.0f")
        + ",";
    json += jsonNum("spsc_spills_4lp",
                    static_cast<double>(p4.run.spscSpills), "%.0f")
        + ",";
    json += jsonNum("wall_sec_4lp", p4.wallSec, "%.6f") + ",";
    json += jsonNum("blocked_frac_4lp", load4.blockedFraction, "%.4f")
        + ",";
    json += jsonNum("imbalance_4lp", load4.eventImbalance, "%.4f")
        + ",";
    json += jsonNum("critical_lp_4lp",
                    static_cast<double>(load4.criticalLp), "%.0f")
        + ",";
    json += "\"lp_events_4lp\":"
        + jsonLpArray(load4,
                      [](const PdesLpLoad &l) {
                          return static_cast<double>(l.executed);
                      })
        + ",";
    json += "\"lp_drain_wall_ns_4lp\":"
        + jsonLpArray(load4,
                      [](const PdesLpLoad &l) { return l.drainWallNs; })
        + ",";
    json += "\"lp_exec_wall_ns_4lp\":"
        + jsonLpArray(load4,
                      [](const PdesLpLoad &l) { return l.execWallNs; })
        + ",";
    json += "\"lp_blocked_wall_ns_4lp\":"
        + jsonLpArray(load4,
                      [](const PdesLpLoad &l) {
                          return l.blockedWallNs;
                      })
        + ",";
    json += "\"lp_spin_wall_ns_4lp\":"
        + jsonLpArray(load4,
                      [](const PdesLpLoad &l) { return l.spinWallNs; })
        + ",";
    json += "\"lp_posts_4lp\":"
        + jsonLpArray(load4,
                      [](const PdesLpLoad &l) {
                          return static_cast<double>(l.posts);
                      })
        + ",";
    json += "\"lp_spills_4lp\":"
        + jsonLpArray(load4,
                      [](const PdesLpLoad &l) {
                          return static_cast<double>(l.spills);
                      })
        + ",";
    json += "\"bit_identical\":";
    json += ok ? "true" : "false";
    json += "}";

    std::string jerr;
    if (!jsonValid(json, &jerr)) {
        std::fprintf(stderr, "bench_pdes: result JSON invalid: %s\n",
                     jerr.c_str());
        ok = false;
    }
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    if (!smoke) {
        if (std::FILE *f = std::fopen("BENCH_pdes.json", "w")) {
            std::fprintf(f, "%s\n", json.c_str());
            std::fclose(f);
        } else {
            std::fprintf(stderr,
                         "bench_pdes: cannot write BENCH_pdes.json\n");
        }
    }
    if (!ok)
        return 1;
    return sweepExitStatus();
}
