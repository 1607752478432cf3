/**
 * @file
 * Fault-injection subsystem tests: deterministic schedules, link
 * margin re-evaluation through the section 2 budget arithmetic,
 * fault.* telemetry, protocol retry/timeout behaviour, and sweep
 * determinism across worker-thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hh"
#include "fault/injector.hh"
#include "harness.hh"
#include "net/pt2pt.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"
#include "sim/telemetry/trace.hh"
#include "workloads/coherence.hh"
#include "workloads/message_passing.hh"
#include "workloads/packet_injector.hh"

namespace
{

using namespace macrosim;
using namespace macrosim::bench;

bool
sameEvents(const std::vector<FaultEvent> &a,
           const std::vector<FaultEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].at != b[i].at || a[i].kind != b[i].kind
            || !(a[i].target == b[i].target)
            || a[i].magnitudeDb != b[i].magnitudeDb) {
            return false;
        }
    }
    return true;
}

TEST(FaultSchedule, RandomIsAPureFunctionOfSeed)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    RandomFaultConfig cfg;
    cfg.events = 24;

    const FaultSchedule a = FaultSchedule::random(42, cfg, net);
    const FaultSchedule b = FaultSchedule::random(42, cfg, net);
    const FaultSchedule c = FaultSchedule::random(43, cfg, net);
    EXPECT_FALSE(a.empty());
    EXPECT_TRUE(sameEvents(a.events(), b.events()));
    EXPECT_FALSE(sameEvents(a.events(), c.events()));

    // Every generated channel target is a published faultable link,
    // every site target a valid site.
    const auto links = net.faultableLinks();
    for (const FaultEvent &ev : a.events()) {
        if (ev.target.scope == FaultTarget::Scope::Site) {
            EXPECT_LT(ev.target.a, net.config().siteCount());
            continue;
        }
        bool found = false;
        for (const auto &[s, d] : links)
            found = found || (s == ev.target.a && d == ev.target.b);
        EXPECT_TRUE(found);
    }
}

TEST(FaultSchedule, OrderedReplaysByTimeStably)
{
    FaultSchedule s;
    const FaultTarget t = FaultTarget::channel(0, 1);
    s.add(30, FaultKind::Repair, t);
    s.add(10, FaultKind::RingDrift, t, 1.0);
    s.add(10, FaultKind::WaveguideCreep, t, 2.0);
    const std::vector<FaultEvent> ordered = s.ordered();
    ASSERT_EQ(ordered.size(), 3u);
    EXPECT_EQ(ordered[0].kind, FaultKind::RingDrift);
    EXPECT_EQ(ordered[1].kind, FaultKind::WaveguideCreep);
    EXPECT_EQ(ordered[2].kind, FaultKind::Repair);
}

TEST(FaultInjector, SoftDegradationDeratesThenKillsThenRepairs)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    FaultInjector inj(sim, net, FaultSchedule{});
    const FaultTarget t = FaultTarget::channel(0, 1);
    const std::uint32_t full =
        net.channel(0, 1).activeWavelengths();

    // 3 dB of ring drift: margin 1 dB, inside the 2 dB derate
    // threshold -> half the wavelengths masked, still up.
    inj.apply({0, FaultKind::RingDrift, t, 3.0});
    EXPECT_NEAR(inj.marginDbOf(t), 1.0, 1e-9);
    EXPECT_EQ(inj.linksDerated(), 1u);
    EXPECT_EQ(inj.linksDown(), 0u);
    EXPECT_FALSE(net.channel(0, 1).down());
    EXPECT_EQ(net.channel(0, 1).activeWavelengths(), full / 2);

    // 2 dB more of waveguide creep: margin -1 dB -> link down.
    inj.apply({0, FaultKind::WaveguideCreep, t, 2.0});
    EXPECT_NEAR(inj.marginDbOf(t), -1.0, 1e-9);
    EXPECT_EQ(inj.linksDown(), 1u);
    EXPECT_EQ(inj.linksDerated(), 0u);
    EXPECT_TRUE(net.channel(0, 1).down());
    EXPECT_NEAR(inj.minMarginDb(), -1.0, 1e-9);

    // Repair clears all accumulated degradation.
    inj.apply({0, FaultKind::Repair, t});
    EXPECT_NEAR(inj.marginDbOf(t), 4.0, 1e-9);
    EXPECT_EQ(inj.linksDown(), 0u);
    EXPECT_FALSE(net.channel(0, 1).down());
    EXPECT_EQ(net.channel(0, 1).activeWavelengths(), full);
    EXPECT_EQ(inj.repairs(), 1u);
    EXPECT_EQ(inj.injectedFaults(), 2u);
    // The historical minimum survives the repair.
    EXPECT_NEAR(inj.minMarginDb(), -1.0, 1e-9);
}

TEST(FaultInjector, LaserAndReceiverDegradationErodeMargin)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    FaultInjector inj(sim, net, FaultSchedule{});
    const FaultTarget t = FaultTarget::channel(2, 3);
    inj.apply({0, FaultKind::LaserDroop, t, 2.5});
    EXPECT_NEAR(inj.marginDbOf(t), 1.5, 1e-9);
    inj.apply({0, FaultKind::ReceiverDegrade, t, 2.5});
    EXPECT_NEAR(inj.marginDbOf(t), -1.0, 1e-9);
    EXPECT_TRUE(net.channel(2, 3).down());
}

TEST(FaultInjector, StatsAndTraceInstantEventsSurface)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    TraceSink trace;
    FaultSchedule sched;
    const FaultTarget t = FaultTarget::channel(0, 1);
    sched.add(100, FaultKind::ChannelKill, t);
    sched.add(200, FaultKind::Repair, t);
    FaultInjector inj(sim, net, sched, {}, &trace, 7);
    inj.arm();

    net.setRetryPolicy({10 * tickNs, 2});
    int dropped = 0;
    net.setDropHandler([&](const Message &) { ++dropped; });
    sim.events().schedule(150, [&net] {
        Message m;
        m.src = 0;
        m.dst = 1;
        net.inject(m);
    }, "test.inject");
    sim.run();

    // The packet hit the killed channel, backed off 10 ns, and the
    // repair at t=200 let the retry through.
    EXPECT_EQ(dropped, 0);
    EXPECT_EQ(net.retriedPackets(), 1u);
    EXPECT_EQ(net.stats().delivered.value(), 1u);

    const StatRegistry &reg = sim.telemetry();
    ASSERT_TRUE(reg.has("fault.injected"));
    EXPECT_DOUBLE_EQ(reg.value("fault.injected"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("fault.repairs"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("fault.links_down"), 0.0);
    EXPECT_DOUBLE_EQ(reg.value("fault.min_margin_db"), 4.0);

    ASSERT_EQ(trace.size(), 2u);
    for (const TraceEvent &ev : trace.events()) {
        EXPECT_EQ(ev.ph, TraceEvent::Phase::Instant);
        EXPECT_EQ(ev.cat, "fault");
        EXPECT_EQ(ev.pid, 7u);
        EXPECT_NE(ev.name.find("net.pt2pt.ch0_1"), std::string::npos);
    }
    EXPECT_EQ(trace.events()[0].ts, 100u);
    EXPECT_EQ(trace.events()[1].ts, 200u);
}

TEST(FaultInjector, CoherenceRetriesThenCompletesAfterRepair)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    net.setDropHandler([](const Message &) {});
    net.applyLinkHealth(0, 1, {true, 1.0});

    CoherenceEngine eng(sim, net, false);
    eng.setResilience({true, 500 * tickNs, 3});

    int completions = 0;
    eng.startSynthetic(0, 1, CoherenceOp::GetS, {},
                       [&](TxnId, Tick) { ++completions; });
    // Repair the requester->home channel before the first timeout
    // fires at t=500 ns, so the one retry sails through.
    sim.events().schedule(300 * tickNs, [&net] {
        net.applyLinkHealth(0, 1, {false, 1.0});
    }, "test.repair");
    sim.run();

    EXPECT_EQ(completions, 1);
    EXPECT_EQ(eng.retriedTransactions(), 1u);
    EXPECT_EQ(eng.abortedTransactions(), 0u);
    EXPECT_EQ(eng.inFlight(), 0u);
}

TEST(FaultInjector, CoherenceAbortsAfterRetryExhaustion)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    net.setDropHandler([](const Message &) {});
    net.applyLinkHealth(0, 1, {true, 1.0}); // permanently dead

    CoherenceEngine eng(sim, net, false);
    eng.setResilience({true, 100 * tickNs, 2});

    int completions = 0;
    eng.startSynthetic(0, 1, CoherenceOp::GetS, {},
                       [&](TxnId, Tick) { ++completions; });
    sim.run();

    // The abort still fires the completion callback so closed-loop
    // drivers drain, but counts as aborted, not completed.
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(eng.retriedTransactions(), 2u);
    EXPECT_EQ(eng.abortedTransactions(), 1u);
    EXPECT_EQ(eng.transactionsCompleted(), 0u);
    EXPECT_EQ(eng.inFlight(), 0u);
}

TEST(FaultInjector, MessagePassingToleratesLoss)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    net.applyLinkHealth(0, 1, {true, 1.0});

    MpiWorkloadSpec spec;
    spec.collective = Collective::HaloExchange;
    spec.iterations = 3;
    spec.tolerateLoss = true;
    MessagePassingSystem mpi(sim, net, spec);
    const MpiResult res = mpi.run();

    // Site 0 -> 1 is a halo neighbour pair; its message is lost every
    // iteration, yet every iteration still completes.
    EXPECT_EQ(res.iterations, 3u);
    EXPECT_EQ(res.lost, 3u);
    EXPECT_GT(res.runtime, 0u);
    EXPECT_EQ(net.droppedPackets(), 3u);
}

/** One availability cell of the resilience sweep, as a fingerprint. */
struct CellPrint
{
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t retried = 0;
    double minMargin = 0.0;

    bool
    operator==(const CellPrint &o) const
    {
        return delivered == o.delivered && dropped == o.dropped
            && retried == o.retried && minMargin == o.minMargin;
    }
};

std::vector<CellPrint>
runFaultSweep(std::size_t jobs)
{
    std::vector<SweepJob<CellPrint>> sweep;
    for (int cell = 0; cell < 4; ++cell) {
        sweep.push_back(SweepJob<CellPrint>{
            "cell" + std::to_string(cell), [cell] {
                const std::uint64_t seed = deriveSeed(
                    7, "fault-sweep", std::to_string(cell));
                Simulator sim(seed);
                PointToPointNetwork net(sim, simulatedConfig());
                net.setRetryPolicy({50 * tickNs, 4});
                RandomFaultConfig cfg;
                cfg.events = 12;
                cfg.horizon = 3000 * tickNs;
                FaultInjector inj(
                    sim, net,
                    FaultSchedule::random(seed, cfg, net));
                inj.arm();
                InjectorConfig traffic;
                traffic.load = 0.05;
                traffic.warmup = 500 * tickNs;
                traffic.window = 2500 * tickNs;
                traffic.seed = seed;
                runOpenLoop(sim, net, traffic);
                return CellPrint{net.stats().delivered.value(),
                                 net.droppedPackets(),
                                 net.retriedPackets(),
                                 inj.minMarginDb()};
            }});
    }
    return SweepRunner(jobs, false).run("fault-sweep",
                                        std::move(sweep));
}

/**
 * Independent reference for the injector's flat margin lanes: per-link
 * degradation totals kept here, and margins computed through the
 * public photonics API (OpticalPath::deratedPath + margin).
 */
class ReferenceMargins
{
  public:
    using Links = std::vector<std::pair<SiteId, SiteId>>;

    explicit ReferenceMargins(const FaultModelParams &params)
        : params_(params), minMarginDb_(marginOf(Link{}))
    {
    }

    void
    apply(const FaultEvent &ev)
    {
        Link &l = links_[{ev.target.a, ev.target.b}];
        switch (ev.kind) {
          case FaultKind::LaserDroop: l.droopDb += ev.magnitudeDb; break;
          case FaultKind::RingDrift: l.dropDb += ev.magnitudeDb; break;
          case FaultKind::WaveguideCreep: l.wgDb += ev.magnitudeDb; break;
          case FaultKind::ReceiverDegrade: l.rxDb += ev.magnitudeDb; break;
          case FaultKind::ChannelKill: l.killed = true; break;
          case FaultKind::Repair: l = Link{}; break;
          case FaultKind::SiteKill: FAIL() << "site event";
        }
        if (ev.kind == FaultKind::Repair)
            ++repairs_;
        else
            ++injected_;
        minMarginDb_ = std::min(minMarginDb_, marginOf(l));
    }

    double
    marginDb(SiteId a, SiteId b) const
    {
        const auto it = links_.find({a, b});
        return marginOf(it == links_.end() ? Link{} : it->second);
    }

    /** Links down (killed or negative margin) among @p links. */
    std::uint64_t
    linksDown(const Links &links) const
    {
        std::uint64_t n = 0;
        for (const auto &[a, b] : links)
            n += isDown(a, b) ? 1 : 0;
        return n;
    }

    /** Links up but inside the derate threshold among @p links. */
    std::uint64_t
    linksDerated(const Links &links) const
    {
        std::uint64_t n = 0;
        for (const auto &[a, b] : links) {
            n += !isDown(a, b)
                    && marginDb(a, b) < params_.derateThreshold.value()
                ? 1 : 0;
        }
        return n;
    }

    double
    minMarginNow(const Links &links) const
    {
        double min = marginOf(Link{});
        for (const auto &[a, b] : links)
            min = std::min(min, marginDb(a, b));
        return min;
    }

    std::uint64_t injected() const { return injected_; }
    std::uint64_t repairs() const { return repairs_; }
    double minMarginDb() const { return minMarginDb_; }

  private:
    struct Link
    {
        double droopDb = 0.0;
        double dropDb = 0.0;
        double wgDb = 0.0;
        double rxDb = 0.0;
        bool killed = false;
    };

    double
    marginOf(const Link &l) const
    {
        return params_.basePath.deratedPath(Decibel(l.dropDb + l.wgDb))
            .margin(params_.launch - Decibel(l.droopDb),
                    params_.sensitivity + Decibel(l.rxDb))
            .value();
    }

    bool
    isDown(SiteId a, SiteId b) const
    {
        const auto it = links_.find({a, b});
        return (it != links_.end() && it->second.killed)
            || marginDb(a, b) < 0.0;
    }

    FaultModelParams params_;
    std::map<std::pair<SiteId, SiteId>, Link> links_;
    std::uint64_t injected_ = 0;
    std::uint64_t repairs_ = 0;
    double minMarginDb_;
};

TEST(FaultMarginDifferential, FuzzedStatesMatchScalarExactly)
{
    setQuiet(true);
    Simulator sim;
    auto net = makeNetwork(NetId::PointToPoint, sim, simulatedConfig());
    FaultInjector inj(sim, *net, FaultSchedule{});
    ReferenceMargins ref{FaultModelParams{}};
    const auto links = net->faultableLinks();
    ASSERT_GT(inj.trackedLinks(), 0u);
    ASSERT_EQ(inj.trackedLinks(), links.size());

    std::mt19937_64 rng(1234);
    std::uniform_real_distribution<double> mag(0.05, 6.0);
    const FaultKind kinds[] = {
        FaultKind::LaserDroop,   FaultKind::RingDrift,
        FaultKind::WaveguideCreep, FaultKind::ReceiverDegrade,
        FaultKind::ChannelKill,  FaultKind::Repair,
    };

    for (int step = 0; step < 400; ++step) {
        const auto &[a, b] = links[rng() % links.size()];
        FaultEvent ev;
        ev.kind = kinds[rng() % std::size(kinds)];
        ev.target = FaultTarget::channel(a, b);
        ev.magnitudeDb = mag(rng);
        inj.apply(ev);
        ref.apply(ev);
        // The flat lanes replay the object path's fold order, so the
        // margins agree to the last bit, not a tolerance.
        EXPECT_EQ(inj.marginDbOf(ev.target), ref.marginDb(a, b))
            << "step " << step;
    }

    for (const auto &[a, b] : links)
        EXPECT_EQ(inj.marginDbOf(FaultTarget::channel(a, b)),
                  ref.marginDb(a, b));
    EXPECT_EQ(inj.sweepMargins(), ref.minMarginNow(links));
    EXPECT_EQ(inj.injectedFaults(), ref.injected());
    EXPECT_EQ(inj.repairs(), ref.repairs());
    EXPECT_EQ(inj.linksDown(), ref.linksDown(links));
    EXPECT_EQ(inj.linksDerated(), ref.linksDerated(links));
    EXPECT_EQ(inj.minMarginDb(), ref.minMarginDb());
}

TEST(FaultMarginDifferential, KillAndRepairExtremes)
{
    setQuiet(true);
    Simulator sim;
    auto net = makeNetwork(NetId::TokenRing, sim, simulatedConfig());
    FaultInjector inj(sim, *net, FaultSchedule{});
    ReferenceMargins ref{FaultModelParams{}};
    const auto links = net->faultableLinks();

    // Kill every channel, then repair every channel: the injector
    // walks the down/derated counter transitions the reference
    // recounts from scratch.
    for (const FaultKind kind : {FaultKind::ChannelKill,
                                 FaultKind::Repair}) {
        for (const auto &[a, b] : links) {
            FaultEvent ev;
            ev.kind = kind;
            ev.target = FaultTarget::channel(a, b);
            inj.apply(ev);
            ref.apply(ev);
        }
        EXPECT_EQ(inj.linksDown(),
                  kind == FaultKind::ChannelKill ? links.size() : 0u);
        EXPECT_EQ(inj.linksDown(), ref.linksDown(links));
        EXPECT_EQ(inj.linksDerated(), ref.linksDerated(links));
        EXPECT_EQ(inj.sweepMargins(), ref.minMarginNow(links));
    }
    EXPECT_EQ(inj.injectedFaults(), links.size());
    EXPECT_EQ(inj.repairs(), links.size());
    EXPECT_EQ(inj.minMarginDb(), ref.minMarginDb());
}

TEST(FaultSweep, BitIdenticalForAnyJobsCount)
{
    const std::vector<CellPrint> serial = runFaultSweep(1);
    const std::vector<CellPrint> parallel = runFaultSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
    // Faults actually bit: something was dropped or retried, or a
    // margin dipped below the healthy 4 dB, in at least one cell.
    bool bit = false;
    for (const CellPrint &c : serial)
        bit = bit || c.dropped > 0 || c.retried > 0
            || c.minMargin < 4.0;
    EXPECT_TRUE(bit);
}

} // namespace
