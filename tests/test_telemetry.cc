/**
 * @file
 * Tests for the unified telemetry layer: StatRegistry hierarchy,
 * Perfetto trace export (golden JSON for a 3-message micro-run),
 * snapshot determinism across --jobs counts, event-loop profiler
 * count exactness, JSON validation, and the warn_once() latch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "net/pt2pt.hh"
#include "net/tracer.hh"
#include "sim/logging.hh"
#include "sim/telemetry/json.hh"
#include "sim/telemetry/registry.hh"
#include "sim/telemetry/sampler.hh"
#include "sim/telemetry/trace.hh"
#include "sweep.hh"
#include "workloads/packet_injector.hh"

namespace
{

using namespace macrosim;
using namespace macrosim::bench;

// ---------------------------------------------------------------- //
// StatRegistry hierarchy                                           //
// ---------------------------------------------------------------- //

TEST(StatRegistry, HierarchicalNamesAndValueLookup)
{
    StatRegistry reg;
    Counter c;
    c += 11;
    reg.addCounter("net.tring.grants", c);
    reg.add("net.tring.ch3.occupancy", [] { return 0.25; });

    EXPECT_TRUE(reg.has("net.tring.grants"));
    EXPECT_FALSE(reg.has("net.tring"));
    EXPECT_EQ(reg.value("net.tring.grants"), 11.0);
    EXPECT_EQ(reg.value("net.tring.ch3.occupancy"), 0.25);
}

TEST(StatRegistry, UniquePrefixDisambiguatesInstances)
{
    StatRegistry reg;
    EXPECT_EQ(reg.uniquePrefix("net.pt2pt"), "net.pt2pt");
    reg.add("net.pt2pt.injected", [] { return 0.0; });
    EXPECT_EQ(reg.uniquePrefix("net.pt2pt"), "net.pt2pt#2");
    reg.add("net.pt2pt#2.injected", [] { return 0.0; });
    EXPECT_EQ(reg.uniquePrefix("net.pt2pt"), "net.pt2pt#3");
}

TEST(StatRegistry, PrefixFilteredDump)
{
    StatRegistry reg;
    reg.add("a.x", [] { return 1.0; });
    reg.add("b.y", [] { return 2.0; });
    reg.add("a.z", [] { return 3.0; });

    std::ostringstream os;
    reg.dump(os, "a.");
    EXPECT_EQ(os.str(), "a.x 1\na.z 3\n");
}

TEST(StatRegistry, NetworksRegisterThemselvesOnConstruction)
{
    Simulator sim(1);
    PointToPointNetwork net(sim, simulatedConfig());
    const StatRegistry &reg = sim.telemetry();
    // The simulator core and the topology both live in one tree.
    EXPECT_TRUE(reg.has("simcore.executed"));
    EXPECT_TRUE(reg.has("net.pt2pt.injected"));
    EXPECT_TRUE(reg.has("net.pt2pt.occupancy"));
    EXPECT_EQ(net.statPrefix(), "net.pt2pt");
}

// ---------------------------------------------------------------- //
// Perfetto trace export                                            //
// ---------------------------------------------------------------- //

/** The golden Chrome trace-event JSON for a 3-message micro-run. */
const char *const goldenMicroRunJson =
    "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
    "{\"ph\":\"M\",\"name\":\"process_name\",\"cat\":\"sim\",\"pid\":1,"
    "\"tid\":0,\"args\":{\"name\":\"micro\"}},\n"
    "{\"ph\":\"M\",\"name\":\"thread_name\",\"cat\":\"sim\",\"pid\":1,"
    "\"tid\":0,\"args\":{\"name\":\"site 0\"}},\n"
    "{\"ph\":\"X\",\"name\":\"Data\",\"cat\":\"net.msg\",\"pid\":1,"
    "\"tid\":0,\"ts\":0.000000,\"dur\":0.013450,\"args\":{\"id\":1,"
    "\"dst\":1,\"bytes\":64,\"txn\":1,\"queue_ns\":0,\"ser_ns\":12.8}"
    "},\n"
    "{\"ph\":\"s\",\"name\":\"txn\",\"cat\":\"sim\",\"pid\":1,"
    "\"tid\":0,\"ts\":0.000000,\"id\":1},\n"
    "{\"ph\":\"f\",\"name\":\"txn\",\"cat\":\"sim\",\"pid\":1,"
    "\"tid\":0,\"ts\":0.013450,\"id\":1,\"bp\":\"e\"},\n"
    "{\"ph\":\"X\",\"name\":\"Data\",\"cat\":\"net.msg\",\"pid\":1,"
    "\"tid\":0,\"ts\":0.000000,\"dur\":0.013700,\"args\":{\"id\":2,"
    "\"dst\":2,\"bytes\":64,\"txn\":2,\"queue_ns\":0,\"ser_ns\":12.8}"
    "},\n"
    "{\"ph\":\"s\",\"name\":\"txn\",\"cat\":\"sim\",\"pid\":1,"
    "\"tid\":0,\"ts\":0.000000,\"id\":2},\n"
    "{\"ph\":\"f\",\"name\":\"txn\",\"cat\":\"sim\",\"pid\":1,"
    "\"tid\":0,\"ts\":0.013700,\"id\":2,\"bp\":\"e\"},\n"
    "{\"ph\":\"X\",\"name\":\"Data\",\"cat\":\"net.msg\",\"pid\":1,"
    "\"tid\":0,\"ts\":0.000000,\"dur\":0.013950,\"args\":{\"id\":3,"
    "\"dst\":3,\"bytes\":64,\"txn\":3,\"queue_ns\":0,\"ser_ns\":12.8}"
    "},\n"
    "{\"ph\":\"s\",\"name\":\"txn\",\"cat\":\"sim\",\"pid\":1,"
    "\"tid\":0,\"ts\":0.000000,\"id\":3},\n"
    "{\"ph\":\"f\",\"name\":\"txn\",\"cat\":\"sim\",\"pid\":1,"
    "\"tid\":0,\"ts\":0.013950,\"id\":3,\"bp\":\"e\"}]}\n";

/** Trace event name "e<i>". Built by append: GCC 12 at -O3 raises a
 *  false -Wrestrict on `"e" + std::to_string(i)`. */
std::string
eventName(int i)
{
    std::string name = "e";
    name += std::to_string(i);
    return name;
}

TEST(TraceExport, GoldenJsonForThreeMessageMicroRun)
{
    Simulator sim(1);
    PointToPointNetwork net(sim, simulatedConfig());
    MessageTracer tracer(net);
    net.setDefaultHandler([](const Message &) {});
    for (SiteId d = 1; d <= 3; ++d) {
        Message m;
        m.src = 0;
        m.dst = d;
        m.txn = d;
        net.inject(m);
    }
    sim.run();
    ASSERT_EQ(tracer.count(), 3u);

    TraceSink sink;
    tracer.writeTrace(sink, 1, "micro");
    std::ostringstream os;
    sink.writeJson(os);
    EXPECT_EQ(os.str(), goldenMicroRunJson);
    EXPECT_TRUE(jsonValid(os.str()));
}

TEST(TraceExport, OverflowSurfacesInRegistryAndWarnsOnce)
{
    // Must stay the first TraceSink overflow in the binary: the drop
    // warning is a warn_once, latched per-callsite for the whole
    // process, and this test pins that exactly one warning fires no
    // matter how many events are lost.
    StatRegistry reg;
    TraceSink sink(4);
    sink.regStats(reg, "trace.ring");
    EXPECT_EQ(reg.value("trace.ring.dropped"), 0.0);

    setQuiet(true);
    const std::uint64_t warningsBefore = warningsIssued();
    for (int i = 0; i < 10; ++i)
        sink.instant(eventName(i), "sim", 0, 0, Tick(i));
    // 10 pushes into a 4-slot ring: 6 dropped, visible through the
    // registered getter.
    EXPECT_EQ(reg.value("trace.ring.events"), 4.0);
    EXPECT_EQ(reg.value("trace.ring.dropped"), 6.0);
    EXPECT_EQ(warningsIssued(), warningsBefore + 1);
}

TEST(TraceExport, RingDropsOldestAndRecordsTheLoss)
{
    TraceSink sink(4);
    for (int i = 0; i < 6; ++i)
        sink.instant(eventName(i), "sim", 0, 0, Tick(i));
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 2u);
    EXPECT_EQ(sink.events().front().name, "e2");

    std::ostringstream os;
    sink.writeJson(os);
    EXPECT_NE(os.str().find("trace_dropped_events"),
              std::string::npos);
    EXPECT_TRUE(jsonValid(os.str()));
}

TEST(TraceExport, EscapesNamesAndFormatsTimestampsExactly)
{
    TraceSink sink;
    sink.span("a\"b\\c\n", "cat", 0, 0, 1'234'567, 1);
    std::ostringstream os;
    sink.writeJson(os);
    EXPECT_NE(os.str().find("a\\\"b\\\\c\\n"), std::string::npos);
    // 1'234'567 ps = 1.234567 us, exact fixed-point.
    EXPECT_NE(os.str().find("\"ts\":1.234567"), std::string::npos);
    EXPECT_TRUE(jsonValid(os.str()));
}

// ---------------------------------------------------------------- //
// Snapshot determinism under parallel sweeps                       //
// ---------------------------------------------------------------- //

/** One sweep cell: a short open-loop run with periodic snapshots. */
std::string
snapshotCell(std::uint64_t seed)
{
    Simulator sim(seed);
    PointToPointNetwork net(sim, simulatedConfig());
    SnapshotRecorder rec(sim, 100 * tickNs);
    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = 0.05;
    cfg.warmup = 100 * tickNs;
    cfg.window = 300 * tickNs;
    cfg.seed = seed;
    runOpenLoop(sim, net, cfg);
    return rec.csv();
}

std::string
runSnapshotSweep(std::size_t jobs)
{
    std::vector<SweepJob<std::string>> cells;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        cells.push_back(SweepJob<std::string>{
            "cell" + std::to_string(seed),
            [seed] { return snapshotCell(seed); }});
    }
    const std::vector<std::string> results =
        SweepRunner(jobs, false).run("snap", std::move(cells));
    std::string combined;
    for (const std::string &csv : results)
        combined += csv;
    return combined;
}

TEST(SnapshotDeterminism, IdenticalForAnyJobsCount)
{
    const std::string serial = runSnapshotSweep(1);
    const std::string parallel = runSnapshotSweep(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(PeriodicSampler, TwoSamplersDoNotSustainEachOther)
{
    // Regression: each sampler re-arms only while *model* events are
    // pending. Two samplers counting each other's re-arm events
    // would ping-pong forever after the model drains.
    Simulator sim(1);
    SnapshotRecorder a(sim, 10);
    SnapshotRecorder b(sim, 15);
    sim.events().scheduleAfter(100, [] {});
    sim.run(1'000'000);
    EXPECT_TRUE(sim.events().empty());
    EXPECT_LE(sim.now(), 200u);
    EXPECT_GE(a.rows(), 1u);
    EXPECT_GE(b.rows(), 1u);
}

// ---------------------------------------------------------------- //
// Event-loop profiler                                              //
// ---------------------------------------------------------------- //

TEST(EventProfiler, CountsAreExactPerTag)
{
    EventQueue q;
    q.setProfiling(true);
    for (int i = 0; i < 5; ++i)
        q.schedule(Tick(i + 1), [] {}, "tag.a");
    for (int i = 0; i < 3; ++i)
        q.schedule(Tick(i + 10), [] {}, "tag.b");
    q.schedule(20, [] {}); // untagged
    q.runUntil();

    std::uint64_t a = 0, b = 0, untagged = 0, total = 0;
    for (const EventProfileEntry &e : q.profile()) {
        total += e.count;
        if (e.tag == "tag.a")
            a = e.count;
        else if (e.tag == "tag.b")
            b = e.count;
        else if (e.tag == "(untagged)")
            untagged = e.count;
    }
    EXPECT_EQ(a, 5u);
    EXPECT_EQ(b, 3u);
    EXPECT_EQ(untagged, 1u);
    EXPECT_EQ(total, 9u);
}

TEST(EventProfiler, OffByDefaultAndTogglableMidRun)
{
    EventQueue q;
    EXPECT_FALSE(q.profiling());
    q.schedule(1, [] {}, "tag.x");
    q.runUntil(1);
    EXPECT_TRUE(q.profile().empty());

    // Tags survive on already-scheduled events, so flipping the
    // profiler on mid-simulation attributes them correctly.
    q.schedule(2, [] {}, "tag.y");
    q.setProfiling(true);
    q.runUntil();
    ASSERT_EQ(q.profile().size(), 1u);
    EXPECT_EQ(q.profile()[0].tag, "tag.y");
    EXPECT_EQ(q.profile()[0].count, 1u);
}

TEST(EventProfiler, DumpProfileTableListsEveryTag)
{
    Simulator sim(1);
    sim.events().setProfiling(true);
    PointToPointNetwork net(sim, simulatedConfig());
    net.setDefaultHandler([](const Message &) {});
    Message m;
    m.src = 0;
    m.dst = 5;
    net.inject(m);
    sim.run();

    std::ostringstream os;
    sim.events().dumpProfile(os);
    EXPECT_NE(os.str().find("net.deliver"), std::string::npos);
}

// ---------------------------------------------------------------- //
// JSON validation                                                  //
// ---------------------------------------------------------------- //

TEST(JsonValid, AcceptsWellFormedDocuments)
{
    EXPECT_TRUE(jsonValid("{}"));
    EXPECT_TRUE(jsonValid("[1, 2.5, -3e4, \"x\", true, null]"));
    EXPECT_TRUE(jsonValid("{\"a\":{\"b\":[{}]}, \"c\":\"\\u00e9\"}"));
}

TEST(JsonValid, RejectsMalformedDocumentsWithAnError)
{
    std::string error;
    EXPECT_FALSE(jsonValid("{\"a\":1,}", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(jsonValid("{\"a\":1} trailing", &error));
    EXPECT_FALSE(jsonValid("\"unterminated", &error));
    EXPECT_FALSE(jsonValid("{\"bad\\q\":1}", &error));
    EXPECT_FALSE(jsonValid("01", &error));
    EXPECT_FALSE(jsonValid("", &error));
}

// ---------------------------------------------------------------- //
// warn_once                                                        //
// ---------------------------------------------------------------- //

void
warnFromOneCallsite()
{
    warn_once("telemetry test warning (expected once)");
}

TEST(WarnOnce, LatchesPerCallsite)
{
    setQuiet(true);
    const std::uint64_t before = warningsIssued();
    for (int i = 0; i < 5; ++i)
        warnFromOneCallsite();
    EXPECT_EQ(warningsIssued(), before + 1);
}

} // namespace
