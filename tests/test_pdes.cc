/**
 * @file
 * Parallel-in-model PDES tests: the SPSC channel, keyed event
 * ordering, the horizon protocol itself, and — the property the
 * whole subsystem is built around — bit-identical results for every
 * LP count and worker-thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.hh"
#include "net/limited_pt2pt.hh"
#include "net/pt2pt.hh"
#include "net/token_ring.hh"
#include "sim/pdes_scheduler.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/spsc.hh"
#include "sim/telemetry/json.hh"
#include "sim/telemetry/trace.hh"
#include "workloads/coherence_pdes.hh"
#include "workloads/packet_injector.hh"

namespace
{

using namespace macrosim;

// ---------------------------------------------------------------- SPSC

TEST(Spsc, FifoWithinRingCapacity)
{
    SpscChannel<int> ch(8);
    EXPECT_EQ(ch.capacity(), 8u);
    for (int i = 0; i < 8; ++i)
        ch.push(i);
    int v = -1;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(ch.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(ch.pop(v));
    EXPECT_EQ(ch.spills(), 0u);
}

TEST(Spsc, OverflowSpillsWithoutLoss)
{
    SpscChannel<int> ch(4);
    for (int i = 0; i < 100; ++i)
        ch.push(i);
    EXPECT_GT(ch.spills(), 0u);
    std::vector<int> got;
    int v = -1;
    while (ch.pop(v))
        got.push_back(v);
    // Order across the ring/spill boundary is not guaranteed (the
    // payloads carry their own ordering), but nothing may be lost or
    // duplicated.
    ASSERT_EQ(got.size(), 100u);
    std::sort(got.begin(), got.end());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(Spsc, TwoThreadedStream)
{
    SpscChannel<std::uint64_t> ch(64);
    constexpr std::uint64_t n = 20000;
    std::thread producer([&ch] {
        for (std::uint64_t i = 1; i <= n; ++i)
            ch.push(i);
    });
    std::uint64_t sum = 0, popped = 0, v = 0;
    while (popped < n) {
        if (ch.pop(v)) {
            sum += v;
            ++popped;
        }
    }
    producer.join();
    EXPECT_EQ(sum, n * (n + 1) / 2);
    EXPECT_FALSE(ch.pop(v));
}

// -------------------------------------------------------- keyed events

TEST(KeyedEvents, RunAfterPlainEventsOrderedByKey)
{
    Simulator sim;
    std::vector<int> order;
    sim.events().scheduleKeyed(10, 500, [&order] {
        order.push_back(500);
    });
    sim.events().scheduleKeyed(10, 2, [&order] { order.push_back(2); });
    // Plain events of the same tick run first even when scheduled
    // after the keyed ones.
    sim.events().schedule(10, [&order] { order.push_back(-1); });
    sim.events().schedule(5, [&order] { order.push_back(-5); });
    sim.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], -5);
    EXPECT_EQ(order[1], -1);
    EXPECT_EQ(order[2], 2);
    EXPECT_EQ(order[3], 500);
}

TEST(KeyedEvents, PeekNextTick)
{
    Simulator sim;
    EXPECT_EQ(sim.nextEventTick(), maxTick);
    sim.events().schedule(42, [] {});
    EXPECT_EQ(sim.nextEventTick(), 42u);
    const EventId id = sim.events().schedule(7, [] {});
    EXPECT_EQ(sim.nextEventTick(), 7u);
    sim.events().cancel(id);
    EXPECT_EQ(sim.nextEventTick(), 42u);
}

// ----------------------------------------------------- horizon protocol

struct PingPongNode
{
    PdesScheduler *sched = nullptr;
    std::uint32_t lp = 0;
    std::uint64_t rounds = 0;
    std::uint64_t received = 0;

    static void
    apply(void *target, const void *payload)
    {
        auto *node = static_cast<PingPongNode *>(target);
        std::uint64_t counter = 0;
        std::memcpy(&counter, payload, sizeof(counter));
        ++node->received;
        node->bounce(counter + 1);
    }

    void
    bounce(std::uint64_t counter)
    {
        if (counter >= rounds)
            return;
        const std::uint32_t other = lp ^ 1u;
        PdesEvent ev;
        ev.when = sched->simOf(lp).now() + sched->lookahead();
        ev.key = counter;
        ev.apply = &PingPongNode::apply;
        ev.target = sched->target(other);
        std::memcpy(ev.payload, &counter, sizeof(counter));
        sched->post(lp, other, ev);
    }
};

TEST(PdesScheduler, PingPongAcrossTwoWorkers)
{
    constexpr std::uint64_t rounds = 400;
    PdesScheduler sched(2, 2);
    sched.setLookahead(10);
    PingPongNode nodes[2];
    for (std::uint32_t i = 0; i < 2; ++i) {
        nodes[i] = PingPongNode{&sched, i, rounds, 0};
        sched.setTarget(i, &nodes[i]);
    }
    sched.simOf(0).events().schedule(0, [&nodes] {
        nodes[0].bounce(0);
    });
    const std::uint64_t executed = sched.run();
    EXPECT_EQ(nodes[0].received + nodes[1].received, rounds);
    EXPECT_EQ(sched.crossPosts(), rounds);
    EXPECT_GE(executed, rounds + 1); // kickoff + every bounce
}

/**
 * Randomized message storm: every LP keeps a quota of messages it
 * fires at random other LPs with random (lookahead-respecting)
 * delays, re-triggered by every arrival. Per-LP execution logs must
 * be identical for any worker-thread count — arrival order is
 * real-time-dependent, execution order must not be.
 */
struct StressNode
{
    PdesScheduler *sched = nullptr;
    std::uint32_t lp = 0;
    std::uint32_t nLps = 0;
    Rng rng{0};
    std::uint64_t budget = 0;
    std::uint64_t seq = 0;
    std::vector<std::pair<Tick, std::uint64_t>> log;

    static void
    apply(void *target, const void *payload)
    {
        auto *node = static_cast<StressNode *>(target);
        std::uint64_t key = 0;
        std::memcpy(&key, payload, sizeof(key));
        node->log.emplace_back(node->sched->simOf(node->lp).now(), key);
        node->sendNext();
    }

    void
    sendNext()
    {
        if (budget == 0)
            return;
        --budget;
        std::uint32_t dst = static_cast<std::uint32_t>(
            rng.below(nLps - 1));
        if (dst >= lp)
            ++dst;
        PdesEvent ev;
        ev.when = sched->simOf(lp).now() + sched->lookahead()
            + rng.below(500);
        ev.key = (static_cast<std::uint64_t>(lp) << 32) | ++seq;
        ev.apply = &StressNode::apply;
        ev.target = sched->target(dst);
        std::memcpy(ev.payload, &ev.key, sizeof(ev.key));
        sched->post(lp, dst, ev);
    }
};

std::vector<std::vector<std::pair<Tick, std::uint64_t>>>
runStress(std::uint32_t lps, std::size_t threads)
{
    PdesScheduler sched(lps, threads);
    sched.setLookahead(25);
    std::vector<StressNode> nodes(lps);
    for (std::uint32_t i = 0; i < lps; ++i) {
        nodes[i].sched = &sched;
        nodes[i].lp = i;
        nodes[i].nLps = lps;
        nodes[i].rng = Rng(deriveSeed(11, "stress", std::to_string(i)));
        nodes[i].budget = 500;
        sched.setTarget(i, &nodes[i]);
    }
    for (std::uint32_t i = 0; i < lps; ++i) {
        StressNode *node = &nodes[i];
        // Staggered kickoff, two initial sends per LP so traffic
        // fans out instead of forming one chain.
        sched.simOf(i).events().schedule(i, [node] {
            node->sendNext();
            node->sendNext();
        });
    }
    sched.run();
    // A chain dies when it lands on a node whose budget is spent, so
    // budgets need not fully drain — but sends and executions must
    // balance: every sent message executes exactly once.
    std::uint64_t unspent = 0, logged = 0;
    for (const auto &node : nodes) {
        unspent += node.budget;
        logged += node.log.size();
    }
    EXPECT_EQ(logged + unspent, static_cast<std::uint64_t>(lps) * 500u);
    std::vector<std::vector<std::pair<Tick, std::uint64_t>>> logs;
    logs.reserve(lps);
    for (auto &node : nodes)
        logs.push_back(std::move(node.log));
    return logs;
}

TEST(PdesScheduler, RandomStormIsThreadCountInvariant)
{
    const auto serial = runStress(4, 1);
    const auto threaded = runStress(4, 4);
    ASSERT_EQ(serial.size(), threaded.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], threaded[i]) << "LP " << i;
        total += serial[i].size();
    }
    EXPECT_GT(total, 1000u); // the storm actually stormed
}

// --------------------------------------- partitioned injector results

PdesNetworkFactory
pt2ptFactory()
{
    return [](Simulator &sim) -> std::unique_ptr<Network> {
        return std::make_unique<PointToPointNetwork>(
            sim, simulatedConfig());
    };
}

InjectorConfig
pdesCfg(double load, std::uint64_t seed)
{
    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = load;
    cfg.warmup = 300 * tickNs;
    cfg.window = 1500 * tickNs;
    cfg.seed = seed;
    return cfg;
}

void
expectIdentical(const InjectorResult &a, const InjectorResult &b)
{
    EXPECT_EQ(a.offeredLoadPct, b.offeredLoadPct);
    EXPECT_EQ(a.meanLatencyNs, b.meanLatencyNs);
    EXPECT_EQ(a.maxLatencyNs, b.maxLatencyNs);
    EXPECT_EQ(a.p50LatencyNs, b.p50LatencyNs);
    EXPECT_EQ(a.p99LatencyNs, b.p99LatencyNs);
    EXPECT_EQ(a.deliveredBytesPerNsPerSite, b.deliveredBytesPerNsPerSite);
    EXPECT_EQ(a.deliveredPct, b.deliveredPct);
    EXPECT_EQ(a.measuredPackets, b.measuredPackets);
    EXPECT_EQ(a.overflowPackets, b.overflowPackets);
    EXPECT_EQ(a.offeredMeasuredPct, b.offeredMeasuredPct);
}

TEST(PdesInjector, BitIdenticalAcrossLpAndThreadCounts)
{
    const InjectorConfig cfg = pdesCfg(0.25, 99);
    const PdesInjectorResult base =
        runOpenLoopPdes(pt2ptFactory(), cfg, 1, 1);
    EXPECT_EQ(base.effectiveLps, 1u);
    EXPECT_EQ(base.crossPosts, 0u);
    EXPECT_GT(base.result.measuredPackets, 1000u);
    EXPECT_NEAR(base.result.deliveredPct, 25.0, 3.0);
    // The drift-free arrival clock keeps the realized offered load
    // within the final-truncated-arrival slack of the request.
    EXPECT_NEAR(base.result.offeredMeasuredPct, 25.0, 0.5);

    for (const std::uint32_t lps : {2u, 4u, 8u}) {
        for (const std::size_t threads : {std::size_t{1},
                                          std::size_t{3}}) {
            const PdesInjectorResult r =
                runOpenLoopPdes(pt2ptFactory(), cfg, lps, threads);
            EXPECT_EQ(r.effectiveLps, lps);
            EXPECT_GT(r.crossPosts, 0u);
            expectIdentical(base.result, r.result);
        }
    }
}

TEST(PdesInjector, ForwardedTopologyIsLpCountInvariant)
{
    // limited_pt2pt ships forwarded packets' second legs to the
    // forwarder's LP — the one cross-LP event kind beyond final
    // deliveries. Uniform traffic on 8x8 forwards ~78% of packets.
    const PdesNetworkFactory factory =
        [](Simulator &sim) -> std::unique_ptr<Network> {
            return std::make_unique<LimitedPointToPointNetwork>(
                sim, simulatedConfig());
        };
    InjectorConfig cfg = pdesCfg(0.10, 7);
    cfg.window = 1200 * tickNs;
    const PdesInjectorResult base = runOpenLoopPdes(factory, cfg, 1, 1);
    EXPECT_GT(base.result.measuredPackets, 500u);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        const PdesInjectorResult r =
            runOpenLoopPdes(factory, cfg, 4, threads);
        EXPECT_EQ(r.effectiveLps, 4u);
        EXPECT_GT(r.crossPosts, 0u);
        expectIdentical(base.result, r.result);
    }
}

TEST(PdesInjector, ColocatedTopologyCollapsesToOneLp)
{
    const PdesNetworkFactory factory =
        [](Simulator &sim) -> std::unique_ptr<Network> {
            return std::make_unique<TokenRingCrossbar>(
                sim, simulatedConfig());
        };
    InjectorConfig cfg = pdesCfg(0.02, 21);
    cfg.window = 800 * tickNs;
    const PdesInjectorResult a = runOpenLoopPdes(factory, cfg, 4, 4);
    EXPECT_EQ(a.effectiveLps, 1u);
    EXPECT_EQ(a.crossPosts, 0u);
    const PdesInjectorResult b = runOpenLoopPdes(factory, cfg, 1, 1);
    expectIdentical(a.result, b.result);
}

// ------------------------------------------------------ coherence PDES

TEST(PdesCoherence, ReproducibleThroughKeyedDeliveries)
{
    CoherencePdesConfig cfg;
    cfg.transactionsPerSite = 12;
    cfg.mix = SharerMix::moreSharing();
    cfg.seed = 5;
    const CoherencePdesResult a = runCoherencePdes(pt2ptFactory(), cfg);
    EXPECT_EQ(a.effectiveLps, 1u);
    EXPECT_EQ(a.completed, 64u * 12u);
    EXPECT_GT(a.messagesSent, a.completed);
    EXPECT_GT(a.meanOpLatencyNs, 0.0);
    const CoherencePdesResult b = runCoherencePdes(pt2ptFactory(), cfg);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.messagesSent, b.messagesSent);
    EXPECT_EQ(a.meanOpLatencyNs, b.meanOpLatencyNs);
    EXPECT_EQ(a.maxOpLatencyNs, b.maxOpLatencyNs);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
}

// -------------------------------------------------- block partition

TEST(BlockPartition, SingleGroupMapsEverySiteToZero)
{
    const std::vector<std::uint32_t> map =
        PdesScheduler::blockPartition(17, 1);
    ASSERT_EQ(map.size(), 17u);
    for (const std::uint32_t g : map)
        EXPECT_EQ(g, 0u);
}

TEST(BlockPartition, MoreGroupsThanSitesClampsToIdentity)
{
    // lps > sites clamps to one site per LP; effective LP count is
    // the site count, so every group id stays in range.
    const std::vector<std::uint32_t> map =
        PdesScheduler::blockPartition(4, 9);
    ASSERT_EQ(map.size(), 4u);
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_EQ(map[s], s);
}

TEST(BlockPartition, RemainderGoesToLeadingGroups)
{
    // 10 sites over 4 groups: 10 % 4 = 2 leading groups get the
    // extra site -> sizes {3, 3, 2, 2}, contiguous.
    const std::vector<std::uint32_t> expect = {0, 0, 0, 1, 1, 1,
                                               2, 2, 3, 3};
    EXPECT_EQ(PdesScheduler::blockPartition(10, 4), expect);
}

TEST(BlockPartition, ZeroSitesYieldsEmptyMap)
{
    EXPECT_TRUE(PdesScheduler::blockPartition(0, 3).empty());
}

TEST(BlockPartition, ContiguousBalancedBandsProperty)
{
    // The lookahead floor depends on groups being contiguous
    // row-major bands: sweep (sites, lps) and check the map is
    // nondecreasing, every group is non-empty, sizes differ by at
    // most one, and the larger groups come first.
    for (std::uint32_t sites = 1; sites <= 40; ++sites) {
        for (std::uint32_t lps = 1; lps <= 12; ++lps) {
            const std::vector<std::uint32_t> map =
                PdesScheduler::blockPartition(sites, lps);
            ASSERT_EQ(map.size(), sites);
            const std::uint32_t groups = std::min(lps, sites);
            std::vector<std::uint32_t> count(groups, 0);
            for (std::uint32_t s = 0; s < sites; ++s) {
                if (s > 0) {
                    ASSERT_GE(map[s], map[s - 1])
                        << "sites=" << sites << " lps=" << lps;
                    ASSERT_LE(map[s], map[s - 1] + 1);
                }
                ASSERT_LT(map[s], groups);
                ++count[map[s]];
            }
            for (std::uint32_t g = 0; g < groups; ++g) {
                ASSERT_GE(count[g], 1u);
                ASSERT_LE(count[g] - count[groups - 1], 1u);
                if (g > 0) {
                    ASSERT_LE(count[g], count[g - 1]);
                }
            }
        }
    }
}

// ------------------------------------------------ observability

TEST(PdesObservabilityRun, LoadReportTickDomainFieldsAreInvariant)
{
    // Round counts, EOT advances and wall times are real-time
    // diagnostics; everything in the tick domain must be
    // bit-identical for every worker-thread count.
    const InjectorConfig cfg = pdesCfg(0.10, 11);
    const PdesInjectorResult a =
        runOpenLoopPdes(pt2ptFactory(), cfg, 4, 1);
    const PdesInjectorResult b =
        runOpenLoopPdes(pt2ptFactory(), cfg, 4, 3);
    ASSERT_EQ(a.load.lps.size(), 4u);
    ASSERT_EQ(b.load.lps.size(), 4u);
    EXPECT_EQ(a.load.totalExecuted, b.load.totalExecuted);
    EXPECT_EQ(a.load.crossPosts, b.load.crossPosts);
    EXPECT_EQ(a.load.minExecuted, b.load.minExecuted);
    EXPECT_EQ(a.load.maxExecuted, b.load.maxExecuted);
    for (std::uint32_t i = 0; i < 4; ++i) {
        const PdesLpLoad &x = a.load.lps[i];
        const PdesLpLoad &y = b.load.lps[i];
        EXPECT_EQ(x.sites, y.sites);
        EXPECT_EQ(x.executed, y.executed);
        EXPECT_EQ(x.drained, y.drained);
        EXPECT_EQ(x.posts, y.posts);
        EXPECT_EQ(x.consumedTicks, y.consumedTicks);
    }
}

TEST(PdesObservabilityRun, LoadReportInternalConsistency)
{
    const InjectorConfig cfg = pdesCfg(0.10, 13);
    PdesObservability obs;
    obs.timing = true;
    std::string metrics;
    obs.metricsOut = &metrics;
    const auto t0 = std::chrono::steady_clock::now();
    const PdesInjectorResult r =
        runOpenLoopPdes(pt2ptFactory(), cfg, 4, 2, &obs);
    const double wallNs = std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    const PdesLoadReport &load = r.load;
    ASSERT_EQ(load.lps.size(), 4u);
    EXPECT_TRUE(load.timed);
    EXPECT_GT(load.lookahead, 0u);
    EXPECT_EQ(load.totalExecuted, r.eventsExecuted);
    EXPECT_EQ(load.crossPosts, r.crossPosts);
    EXPECT_EQ(load.spills, r.spscSpills);
    std::uint64_t executed = 0, drained = 0, posts = 0;
    for (const PdesLpLoad &lp : load.lps) {
        EXPECT_EQ(lp.rounds, lp.progressRounds + lp.blockedRounds);
        EXPECT_GT(lp.rounds, 0u);
        EXPECT_GE(lp.maxRoundExecuted, 1u);
        // Every round is classified somewhere in the wall split, and
        // the split never claims more time than the run took.
        EXPECT_GT(lp.busyWallNs(), 0.0);
        EXPECT_GE(lp.spinWallNs, 0.0);
        EXPECT_LE(lp.drainWallNs + lp.execWallNs + lp.blockedWallNs
                      + lp.spinWallNs,
                  wallNs)
            << "LP " << lp.lp;
        executed += lp.executed;
        drained += lp.drained;
        posts += lp.posts;
    }
    EXPECT_EQ(executed, load.totalExecuted);
    // Every cross post is drained by its destination exactly once.
    EXPECT_EQ(posts, load.crossPosts);
    EXPECT_EQ(drained, load.crossPosts);
    EXPECT_GE(load.eventImbalance, 1.0);
    EXPECT_GE(load.blockedFraction, 0.0);
    EXPECT_LE(load.blockedFraction, 1.0);
    EXPECT_LT(load.criticalLp, 4u);
    // The registry dump names every LP and channel subtree.
    EXPECT_NE(metrics.find("pdes.lp0.executed"), std::string::npos);
    EXPECT_NE(metrics.find("pdes.lp3.granted_ticks"),
              std::string::npos);
    EXPECT_NE(metrics.find("pdes.lp1.spin_wall_ns"), std::string::npos);
    EXPECT_NE(metrics.find("pdes.lp2.max_unpublished_ticks"),
              std::string::npos);
    EXPECT_NE(metrics.find("pdes.ch0_1.posts"), std::string::npos);
    EXPECT_NE(metrics.find("pdes.ch3_2.peak_depth"),
              std::string::npos);
    // The report prints without tripping any stream state.
    std::ostringstream table;
    load.print(table);
    EXPECT_NE(table.str().find("critical=lp"), std::string::npos);
    EXPECT_NE(table.str().find("spin_ms"), std::string::npos);
}

TEST(PdesObservabilityRun, EotIsRepublishedWithinEachLookahead)
{
    // Each LP republishes its EOT after every lookahead of simulated
    // time it executes, so no event ever runs more than one lookahead
    // past the base of the EOT its peers can see. Publishing only at
    // the end of a granted window (min(EIT - 1, limit)) breaks the
    // bound, and every advance it makes is a ratchet on the EIT:
    // the 2-LP run must also show event-driven advances.
    const InjectorConfig cfg = pdesCfg(0.10, 31);
    const PdesInjectorResult two =
        runOpenLoopPdes(pt2ptFactory(), cfg, 2, 2);
    const PdesInjectorResult four =
        runOpenLoopPdes(pt2ptFactory(), cfg, 4, 1);
    ASSERT_EQ(two.load.lps.size(), 2u);
    ASSERT_EQ(four.load.lps.size(), 4u);
    for (const PdesInjectorResult *r : {&two, &four}) {
        for (const PdesLpLoad &lp : r->load.lps) {
            EXPECT_GT(lp.maxUnpublishedTicks, 0u) << "LP " << lp.lp;
            EXPECT_LE(lp.maxUnpublishedTicks, r->load.lookahead)
                << r->load.lps.size() << " LPs, LP " << lp.lp;
        }
    }
    for (const PdesLpLoad &lp : two.load.lps)
        EXPECT_GT(lp.eotEventAdvances, 0u) << "LP " << lp.lp;
    expectIdentical(two.result, four.result);
}

TEST(PdesObservabilityRun, UntimedRunLeavesWallColumnsZero)
{
    const InjectorConfig cfg = pdesCfg(0.05, 17);
    const PdesInjectorResult r =
        runOpenLoopPdes(pt2ptFactory(), cfg, 2, 2);
    EXPECT_FALSE(r.load.timed);
    for (const PdesLpLoad &lp : r.load.lps) {
        EXPECT_EQ(lp.drainWallNs, 0.0);
        EXPECT_EQ(lp.execWallNs, 0.0);
        EXPECT_EQ(lp.blockedWallNs, 0.0);
        EXPECT_EQ(lp.spinWallNs, 0.0);
        EXPECT_GT(lp.rounds, 0u);
    }
}

TEST(PdesObservabilityRun, ProfileFoldsInFixedLpOrder)
{
    const InjectorConfig cfg = pdesCfg(0.05, 19);
    PdesObservability obs;
    obs.profile = true;
    std::string profile;
    obs.profileOut = &profile;
    runOpenLoopPdes(pt2ptFactory(), cfg, 2, 2, &obs);
    const std::size_t lp0 = profile.find("[pdes lp0 event profile]");
    const std::size_t lp1 = profile.find("[pdes lp1 event profile]");
    ASSERT_NE(lp0, std::string::npos);
    ASSERT_NE(lp1, std::string::npos);
    EXPECT_LT(lp0, lp1);
    EXPECT_NE(profile.find("pdes.cross"), std::string::npos);
}

TEST(PdesTraceRun, ByteIdenticalAcrossWorkerThreadCounts)
{
    const InjectorConfig cfg = pdesCfg(0.10, 23);
    const auto capture = [&cfg](std::size_t threads) {
        TraceSink sink;
        PdesObservability obs;
        obs.trace = &sink;
        const PdesInjectorResult r =
            runOpenLoopPdes(pt2ptFactory(), cfg, 4, threads, &obs);
        EXPECT_EQ(r.effectiveLps, 4u);
        std::ostringstream os;
        sink.writeJson(os);
        return os.str();
    };
    const std::string t1 = capture(1);
    const std::string t3 = capture(3);
    EXPECT_EQ(t1, t3) << "trace must not depend on worker timing";
    std::string err;
    EXPECT_TRUE(jsonValid(t1, &err)) << err;
    // The timeline carries the LP rows, horizon spans, the derived
    // counter tracks and sampled cross-LP flow arrows.
    EXPECT_NE(t1.find("\"pdes horizon\""), std::string::npos);
    EXPECT_NE(t1.find("lp0 sites 0..15"), std::string::npos);
    EXPECT_NE(t1.find("\"horizon\""), std::string::npos);
    EXPECT_NE(t1.find("eot.lp0"), std::string::npos);
    EXPECT_NE(t1.find("eit.floor"), std::string::npos);
    EXPECT_NE(t1.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(t1.find("\"ph\":\"f\""), std::string::npos);
}

TEST(PdesTraceRun, SingleLpTraceHasNoFlowsOrEitFloor)
{
    InjectorConfig cfg = pdesCfg(0.05, 29);
    cfg.window = 800 * tickNs;
    TraceSink sink;
    PdesObservability obs;
    obs.trace = &sink;
    runOpenLoopPdes(pt2ptFactory(), cfg, 1, 1, &obs);
    std::ostringstream os;
    sink.writeJson(os);
    const std::string t = os.str();
    std::string err;
    EXPECT_TRUE(jsonValid(t, &err)) << err;
    EXPECT_NE(t.find("\"horizon\""), std::string::npos);
    // No cross-LP machinery on one LP: no arrows, no EIT floor.
    EXPECT_EQ(t.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_EQ(t.find("eit.floor"), std::string::npos);
}

} // namespace
