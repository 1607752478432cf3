/**
 * @file
 * Microbenchmarks of the simulation core. Two layers:
 *
 * 1. A pinned event-core throughput baseline: three fixed scenarios
 *    (push-pop, cancel-heavy, same-tick-burst) timed with
 *    steady_clock and printed as one JSON line on stdout. Events/sec
 *    counts every core operation performed (schedule + cancel +
 *    execute).
 * 2. google-benchmark micros of the queue, RNG, channel reservation
 *    and a full point-to-point packet path.
 *
 * These track the simulator's own performance, not the modelled
 * system.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "net/pt2pt.hh"
#include "sim/event.hh"
#include "sim/random.hh"
#include "workloads/patterns.hh"

using namespace macrosim;

namespace
{

// ---------------------------------------------------------------
// Pinned throughput scenarios
// ---------------------------------------------------------------

/**
 * Schedule a spread of 4096 events, then drain: the pure
 * sift-up/sift-down path with zero cancellation.
 */
std::uint64_t
scenarioPushPop()
{
    EventQueue q;
    int sink = 0;
    for (int i = 0; i < 4096; ++i)
        q.schedule(static_cast<Tick>(i * 7 % 997), [&sink] { ++sink; });
    q.runUntil();
    benchmark::DoNotOptimize(sink);
    return 2 * 4096; // schedules + executions
}

/**
 * Cancellation churn: ~75% of scheduled events are cancelled from a
 * random live set while scheduling continues, then the queue drains.
 * This is the token-ring grant-re-arm pattern at maximum intensity,
 * and the scenario the tombstone-compacting arena is built for.
 */
std::uint64_t
scenarioCancelHeavy()
{
    EventQueue q;
    Rng rng(42);
    int sink = 0;
    std::uint64_t ops = 0;
    std::vector<EventId> live;
    live.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
        live.push_back(
            q.schedule(q.now() + 1 + static_cast<Tick>(rng.below(997)),
                       [&sink] { ++sink; }));
        ++ops;
        if (live.size() >= 2 && (i & 1)) {
            for (int burst = 0; burst < 2 && !live.empty(); ++burst) {
                const std::size_t k = rng.below(live.size());
                q.cancel(live[k]);
                ++ops;
                live[k] = live.back();
                live.pop_back();
            }
        }
    }
    ops += q.runUntil();
    benchmark::DoNotOptimize(sink);
    return ops;
}

/**
 * Same-tick bursts: 16 ticks x 256 FIFO events each — the pattern a
 * saturated network produces, and the worst case for heap churn at a
 * single timestamp.
 */
std::uint64_t
scenarioSameTickBurst()
{
    EventQueue q;
    int sink = 0;
    for (int t = 0; t < 16; ++t) {
        for (int i = 0; i < 256; ++i)
            q.schedule(static_cast<Tick>(t * 10), [&sink] { ++sink; });
    }
    q.runUntil();
    benchmark::DoNotOptimize(sink);
    return 2 * 16 * 256;
}

/** Repeat @p scenario until >= ~0.3 s of wall time; return ops/sec. */
template <typename Scenario>
double
eventsPerSec(Scenario &&scenario)
{
    using Clock = std::chrono::steady_clock;
    // Warm up allocators and caches.
    scenario();
    std::uint64_t ops = 0;
    double seconds = 0.0;
    while (seconds < 0.3) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < 20; ++i)
            ops += scenario();
        seconds += std::chrono::duration<double>(Clock::now() - t0)
                       .count();
    }
    return static_cast<double>(ops) / seconds;
}

/** Run the three pinned scenarios and print one JSON line. */
void
emitSimcoreBaseline()
{
    const double push_pop = eventsPerSec(scenarioPushPop);
    const double cancel_heavy = eventsPerSec(scenarioCancelHeavy);
    const double burst = eventsPerSec(scenarioSameTickBurst);

    char json[256];
    std::snprintf(json, sizeof(json),
                  "{\"bench\":\"simcore\","
                  "\"push_pop_events_per_sec\":%.6e,"
                  "\"cancel_heavy_events_per_sec\":%.6e,"
                  "\"same_tick_burst_events_per_sec\":%.6e}",
                  push_pop, cancel_heavy, burst);
    std::printf("%s\n", json);
    std::fflush(stdout);
}

// ---------------------------------------------------------------
// google-benchmark micros
// ---------------------------------------------------------------

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            q.schedule(static_cast<Tick>(i * 7 % 997),
                       [&sink] { ++sink; });
        q.runUntil();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(scenarioCancelHeavy());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void
BM_EventQueueSameTickBurst(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(scenarioSameTickBurst());
    }
    state.SetItemsProcessed(state.iterations() * 16 * 256);
}
BENCHMARK(BM_EventQueueSameTickBurst);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(42);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc += rng.next();
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

void
BM_ChannelTransmit(benchmark::State &state)
{
    OpticalChannel ch(2, 250);
    Tick t = 0;
    for (auto _ : state) {
        t = ch.transmit(t, 64);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelTransmit);

void
BM_PointToPointPacket(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Simulator sim(1);
        PointToPointNetwork net(sim, simulatedConfig());
        net.setDefaultHandler([](const Message &) {});
        Rng rng(7);
        state.ResumeTiming();
        for (int i = 0; i < 512; ++i) {
            Message m;
            m.src = static_cast<SiteId>(rng.below(64));
            m.dst = static_cast<SiteId>(rng.below(64));
            net.inject(m);
        }
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_PointToPointPacket);

void
BM_DestinationGenerator(benchmark::State &state)
{
    MacrochipGeometry geom(8, 8);
    DestinationGenerator gen(
        static_cast<TrafficPattern>(state.range(0)), geom);
    Rng rng(3);
    SiteId acc = 0;
    for (auto _ : state)
        acc ^= gen.next(acc % 64, rng);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_DestinationGenerator)->DenseRange(0, 4);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    emitSimcoreBaseline();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
