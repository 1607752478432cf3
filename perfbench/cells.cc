#include "cells.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <sstream>
#include <string_view>

#include "arch/config.hh"
#include "net/pt2pt.hh"
#include "service/campaign.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workloads/packet_injector.hh"
#include "workloads/pdes_driver.hh"
#include "workloads/trace_cpu.hh"

namespace perfbench
{

using namespace macrosim;
using service::NetSel;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

std::uint64_t
SpanRecorder::add(const std::string &name, std::uint32_t track,
                  Clock::time_point t0, Clock::time_point t1,
                  std::uint64_t parent, std::uint64_t cell)
{
    const std::uint64_t id = nextId_++;
    // Trace ticks are picoseconds; host nanoseconds scale by 1000 so
    // the JSON's microsecond timestamps read as real host time.
    const auto ps = [this](Clock::time_point t) {
        return static_cast<Tick>(
            std::max(0.0, nsBetween(origin_, t)) * 1000.0);
    };
    const Tick start = ps(t0);
    const Tick end = std::max(ps(t1), start + 1);
    sink_.span(name, "perfbench", 1, track, start, end - start,
               {{"span_id", std::to_string(id)},
                {"parent_id", std::to_string(parent)},
                {"cell_id", std::to_string(cell == 0 ? id : cell)}});
    return id;
}

void
SpanRecorder::nameTrack(std::uint32_t track, const std::string &name)
{
    sink_.threadName(1, track, name);
}

std::string
SpanRecorder::json() const
{
    std::ostringstream os;
    sink_.writeJson(os);
    return os.str();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
CellRun::outputText() const
{
    std::string text;
    char buf[64];
    for (const auto &[name, v] : outputs) {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        text += name + "=" + buf + "\n";
    }
    return text;
}

namespace
{

/** A cell span and the nested spans of its set-up and run calls. */
class CellSpans
{
  public:
    CellSpans(const SpanContext &ctx, std::string cell)
        : ctx_(ctx), cell_(std::move(cell)), start_(Clock::now())
    {}

    /** Record a child span [t0, t1) of the cell. */
    void
    child(const std::string &name, Clock::time_point t0,
          Clock::time_point t1)
    {
        children_.push_back({name, t0, t1});
    }

    /** Close the cell span and write it and its children. */
    void
    finish()
    {
        if (ctx_.spans == nullptr)
            return;
        const std::uint64_t cell = ctx_.spans->add(
            cell_, ctx_.track, start_, Clock::now(), 0, 0);
        for (const Child &c : children_)
            ctx_.spans->add(c.name, ctx_.track, c.t0, c.t1, cell, cell);
    }

  private:
    struct Child
    {
        std::string name;
        Clock::time_point t0, t1;
    };

    const SpanContext &ctx_;
    std::string cell_;
    Clock::time_point start_;
    std::vector<Child> children_;
};

/** Network family name used in per-layer metric names: the two
 *  two-phase variants share the "2phase" event tags. */
std::string
topoName(NetSel id)
{
    return id == NetSel::TwoPhaseAlt ? "2phase"
                                     : service::netShortName(id);
}

/**
 * Roll one profiler row up into the per-layer callback times by tag
 * prefix: "net.deliver", "net.<topo>.*", "arch.*", "workload.*".
 * Every row also counts toward the total callback time, from which
 * the event core's self time is derived.
 */
void
addProfileRow(CellRun &r, std::string_view tag, double ns)
{
    const double s = ns * 1e-9;
    r.layer["_cb_s"] += s;
    if (tag == "net.deliver") {
        r.layer["net.deliver.cb_s"] += s;
    } else if (tag.starts_with("net.")) {
        const std::string_view rest = tag.substr(4);
        const std::size_t dot = rest.find('.');
        if (dot != std::string_view::npos)
            r.layer["net." + std::string(rest.substr(0, dot)) + ".cb_s"]
                += s;
    } else if (tag.starts_with("arch.")) {
        r.layer["arch.cb_s"] += s;
    } else if (tag.starts_with("workload.")) {
        r.layer["workload.cb_s"] += s;
    }
}

/** Event-core counters and (when profiled) callback times. */
void
readEventCore(CellRun &r, const EventQueue &q)
{
    const EventQueueStats &st = q.stats();
    r.layer["simcore.executed"] = static_cast<double>(st.executed);
    r.layer["simcore.scheduled"] = static_cast<double>(st.scheduled);
    r.layer["simcore.cancelled"] = static_cast<double>(st.cancelled);
    r.layer["simcore.peak_pending"] =
        static_cast<double>(st.peakPending);
    r.layer["simcore.max_same_tick_burst"] =
        static_cast<double>(st.maxSameTickBurst);
    r.layer["_batch_events"] = static_cast<double>(st.batchEvents);
    if (!q.profiling())
        return;
    for (const EventProfileEntry &e : q.profile())
        addProfileRow(r, e.tag, e.wallNs);
    r.layer["simcore.self_s"] = r.runNs * 1e-9 - r.layer["_cb_s"];
}

void
readNetwork(CellRun &r, const Network &net)
{
    const NetworkStats &st = net.stats();
    r.layer["net.injected"] = static_cast<double>(st.injected.value());
    r.layer["net.delivered"] =
        static_cast<double>(st.delivered.value());
    r.layer["net.dropped"] = static_cast<double>(st.dropped.value());
    r.layer["net.retries"] = static_cast<double>(st.retries.value());
    if (st.injected.value()
        != st.delivered.value() + st.dropped.value()) {
        r.failures.push_back(
            "conservation: injected " + std::to_string(st.injected.value())
            + " != delivered " + std::to_string(st.delivered.value())
            + " + dropped " + std::to_string(st.dropped.value()));
    }
}

void
requireFinite(CellRun &r, const char *what, double v)
{
    if (!std::isfinite(v))
        r.failures.push_back(std::string(what) + " is not finite");
}

/**
 * One cell's model. Members are declared in dependency order, so the
 * CPUs go before the network and the network before its simulator.
 */
struct Model
{
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<Network> net;
    std::unique_ptr<TraceCpuSystem> cpu;
};

/** Host times of a cell's repeated set-up, ns per build. */
struct SetupTimes
{
    std::vector<double> total, net, cpu;
};

/**
 * Build the cell's model @p reps times, keeping the last build, so
 * the set-up time is a median rather than a single timer read. With
 * @p spec set, the TraceCpuSystem is built too.
 */
Model
setUp(int reps, NetSel id, std::uint64_t seed, const MacrochipConfig &cfg,
      const WorkloadSpec *spec, CellSpans &spans, SetupTimes &times)
{
    Model m;
    for (int rep = 0; rep < reps; ++rep) {
        m.cpu.reset(); // dependents first
        m.net.reset();
        m.sim.reset();
        const auto t0 = Clock::now();
        m.sim = std::make_unique<Simulator>(seed);
        m.net = service::makeNetworkFor(id, *m.sim, cfg);
        const auto t1 = Clock::now();
        if (spec != nullptr) {
            m.cpu = std::make_unique<TraceCpuSystem>(*m.sim, *m.net, *spec,
                                                     mix64(seed));
        }
        const auto t2 = Clock::now();
        spans.child("makeNetwork", t0, t1);
        if (spec != nullptr)
            spans.child("TraceCpuSystem()", t1, t2);
        times.total.push_back(nsBetween(t0, t2));
        times.net.push_back(nsBetween(t0, t1));
        times.cpu.push_back(nsBetween(t1, t2));
    }
    return m;
}

/* ---------------------------------------------------------------- */
/* fig7_closed_loop                                                 */
/* ---------------------------------------------------------------- */

constexpr std::uint64_t fig7InstrPerCore = 1200;
constexpr int fig7SetupReps = 5;

/** The paper's figure 7 network order. */
constexpr NetSel fig7Networks[] = {
    NetSel::TokenRing,     NetSel::CircuitSwitched,
    NetSel::PointToPoint,  NetSel::LimitedPtToPt,
    NetSel::TwoPhase,      NetSel::TwoPhaseAlt,
};

/** Figure 7's x axis: six applications, then five synthetics. */
std::vector<WorkloadSpec>
fig7Specs()
{
    std::vector<WorkloadSpec> all = applicationWorkloads();
    for (const WorkloadSpec &s : syntheticWorkloads())
        all.push_back(s);
    for (WorkloadSpec &s : all)
        s.instructionsPerCore = fig7InstrPerCore;
    return all;
}

CellRun
runFig7Cell(const WorkloadSpec &spec, NetSel id, std::uint64_t root,
            const SpanContext &ctx, bool traced)
{
    CellRun r;
    const std::string net_name = service::netDisplayName(id);
    CellSpans spans(ctx, spec.name + " on " + net_name);
    // The same per-cell seed derivation as the figure 7 bench, so the
    // default seed reproduces bench_fig7_speedup's matrix.
    const std::uint64_t cell_seed = deriveSeed(root, spec.name, net_name);
    const MacrochipConfig cfg = simulatedConfig();

    SetupTimes setup;
    Model m = setUp(fig7SetupReps, id, cell_seed, cfg, &spec, spans, setup);
    m.sim->events().setProfiling(traced);
    const auto t2 = Clock::now();
    const TraceCpuResult res = m.cpu->run();
    const auto t3 = Clock::now();
    spans.child("TraceCpuSystem::run", t2, t3);
    spans.finish();

    r.setupNs = median(setup.total);
    r.runNs = nsBetween(t2, t3);
    r.layer["net." + topoName(id) + ".setup_s"] = median(setup.net) * 1e-9;
    r.layer["arch.setup_s"] = median(setup.cpu) * 1e-9;
    readEventCore(r, m.sim->events());
    readNetwork(r, *m.net);

    const CoherenceEngine &eng = m.cpu->engine();
    r.layer["coherence.txn_completed"] =
        static_cast<double>(eng.transactionsCompleted());
    r.layer["coherence.messages"] =
        static_cast<double>(eng.messagesSent());
    r.layer["coherence.writebacks"] =
        static_cast<double>(eng.writebacks());
    r.layer["_coh_started"] =
        static_cast<double>(eng.transactionsStarted());
    r.layer["_coh_coalesced"] =
        static_cast<double>(eng.coalescedAccesses());
    if (spec.mode == HomeMode::Directory) {
        // SetAssocCache counts a hit per touch(), and the engine only
        // touches lines it found resident; every other access left the
        // L2 as a new or coalesced transaction.
        double hits = 0.0;
        for (SiteId s = 0; s < cfg.siteCount(); ++s)
            hits += static_cast<double>(eng.l2(s).hits());
        r.layer["_l2_hits"] = hits;
        r.layer["_l2_accesses"] = hits
            + static_cast<double>(eng.transactionsStarted()
                                  + eng.coalescedAccesses());
    }
    r.layer["workload.instructions"] =
        static_cast<double>(res.instructions);

    const NetworkStats &ns = m.net->stats();
    r.simRuntimeNs = res.runtimeNs();
    r.latencySumNs = ns.latencyNs.sum();
    r.latencyCount = static_cast<double>(ns.latencyNs.count());
    r.outputs = {
        {"runtime_ns", res.runtimeNs()},
        {"instructions", static_cast<double>(res.instructions)},
        {"coherence_ops", static_cast<double>(res.coherenceOps)},
        {"op_latency_ns", res.opLatencyNs},
        {"total_joules", res.totalJoules},
        {"router_joules", res.routerJoules},
        {"cpu_joules", res.cpuJoules},
        {"edp", res.edp},
        {"net_injected", static_cast<double>(ns.injected.value())},
        {"net_delivered", static_cast<double>(ns.delivered.value())},
        {"net_dropped", static_cast<double>(ns.dropped.value())},
        {"net_latency_mean_ns", ns.latencyNs.mean()},
    };

    // TraceCpuSystem::run() itself panics if the queue drains with a
    // core short of its budget; these checks cover the rest.
    const std::uint64_t budget = fig7InstrPerCore * cfg.coreCount();
    if (res.instructions != budget)
        r.failures.push_back("retired " + std::to_string(res.instructions)
                             + " of " + std::to_string(budget)
                             + " instructions");
    if (eng.transactionsStarted() != eng.transactionsCompleted()
        || eng.abortedTransactions() != 0 || eng.inFlight() != 0) {
        r.failures.push_back(
            "coherence: started " + std::to_string(eng.transactionsStarted())
            + ", completed " + std::to_string(eng.transactionsCompleted())
            + ", aborted " + std::to_string(eng.abortedTransactions()));
    }
    if (!(res.runtime > 0))
        r.failures.push_back("zero simulated runtime");
    for (const auto &[name, v] : r.outputs)
        requireFinite(r, name.c_str(), v);
    return r;
}

Workload
fig7Workload(std::uint64_t seed)
{
    Workload w;
    w.name = "fig7_closed_loop";
    struct Cell
    {
        WorkloadSpec spec;
        NetSel net;
    };
    auto cells = std::make_shared<std::vector<Cell>>();
    for (const WorkloadSpec &spec : fig7Specs()) {
        for (const NetSel id : fig7Networks) {
            cells->push_back({spec, id});
            w.cells.push_back(spec.name + "/" + service::netShortName(id));
        }
    }
    w.run = [cells, seed](std::size_t i, const SpanContext &ctx,
                          bool traced) {
        const Cell &c = (*cells)[i];
        return runFig7Cell(c.spec, c.net, seed, ctx, traced);
    };
    return w;
}

/* ---------------------------------------------------------------- */
/* open_loop_saturated                                              */
/* ---------------------------------------------------------------- */

constexpr NetSel openLoopNetworks[] = {
    NetSel::TokenRing, NetSel::CircuitSwitched, NetSel::TwoPhase,
    NetSel::Hermes,
};

/** An 8x8 network builds in microseconds: take the median of many. */
constexpr int openLoopSetupReps = 201;

InjectorConfig
openLoopConfig(std::uint64_t seed)
{
    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = 0.30;
    cfg.packetBytes = 64;
    cfg.warmup = 2000 * tickNs;
    cfg.window = 5000 * tickNs;
    cfg.seed = seed;
    return cfg;
}

/**
 * Saturation verdict for one injector cell: the measured tail left
 * the histogram, or the network delivered clearly less than was
 * offered during the window.
 */
bool
saturated(const InjectorResult &res)
{
    return res.overflowPackets > 0 || !std::isfinite(res.p99LatencyNs)
        || res.deliveredPct < 0.95 * res.offeredMeasuredPct;
}

void
injectorOutputs(CellRun &r, const InjectorResult &res)
{
    r.outputs = {
        {"offered_load_pct", res.offeredLoadPct},
        {"offered_measured_pct", res.offeredMeasuredPct},
        {"delivered_pct", res.deliveredPct},
        {"delivered_bytes_per_ns_per_site",
         res.deliveredBytesPerNsPerSite},
        {"mean_latency_ns", res.meanLatencyNs},
        {"max_latency_ns", res.maxLatencyNs},
        {"p50_latency_ns", res.p50LatencyNs},
        {"p99_latency_ns", res.p99LatencyNs},
        {"measured_packets", static_cast<double>(res.measuredPackets)},
        {"overflow_packets", static_cast<double>(res.overflowPackets)},
    };
    r.layer["workload.measured_packets"] =
        static_cast<double>(res.measuredPackets);
    r.layer["workload.overflow_packets"] =
        static_cast<double>(res.overflowPackets);
    r.latencySumNs =
        res.meanLatencyNs * static_cast<double>(res.measuredPackets);
    r.latencyCount = static_cast<double>(res.measuredPackets);
    r.saturated = saturated(res);

    if (res.measuredPackets == 0)
        r.failures.push_back("no packets measured");
    requireFinite(r, "mean_latency_ns", res.meanLatencyNs);
    if (!r.saturated) {
        // Below saturation every output must be a real number.
        for (const auto &[name, v] : r.outputs)
            requireFinite(r, name.c_str(), v);
    }
}

CellRun
runOpenLoopCell(NetSel id, std::uint64_t root, const SpanContext &ctx,
                bool traced)
{
    CellRun r;
    CellSpans spans(ctx, "open loop on " + service::netDisplayName(id));
    const std::uint64_t seed =
        deriveSeed(root, "open_loop_saturated", service::netShortName(id));
    const MacrochipConfig cfg = simulatedConfig();

    SetupTimes setup;
    Model m = setUp(openLoopSetupReps, id, seed, cfg, nullptr, spans, setup);
    r.setupNs = median(setup.total);
    r.layer["net." + topoName(id) + ".setup_s"] = r.setupNs * 1e-9;

    m.sim->events().setProfiling(traced);
    const auto t2 = Clock::now();
    const InjectorResult res = runOpenLoop(*m.sim, *m.net,
                                           openLoopConfig(seed));
    const auto t3 = Clock::now();
    spans.child("runOpenLoop", t2, t3);
    spans.finish();

    r.runNs = nsBetween(t2, t3);
    readEventCore(r, m.sim->events());
    readNetwork(r, *m.net);
    injectorOutputs(r, res);
    r.simRuntimeNs = ticksToNs(m.sim->now());
    const NetworkStats &ns = m.net->stats();
    r.outputs.push_back({"sim_end_ns", r.simRuntimeNs});
    r.outputs.push_back(
        {"net_injected", static_cast<double>(ns.injected.value())});
    r.outputs.push_back(
        {"net_delivered", static_cast<double>(ns.delivered.value())});
    r.outputs.push_back(
        {"net_dropped", static_cast<double>(ns.dropped.value())});
    return r;
}

Workload
openLoopWorkload(std::uint64_t seed)
{
    Workload w;
    w.name = "open_loop_saturated";
    for (const NetSel id : openLoopNetworks)
        w.cells.push_back(service::netShortName(id));
    w.run = [seed](std::size_t i, const SpanContext &ctx, bool traced) {
        return runOpenLoopCell(openLoopNetworks[i], seed, ctx, traced);
    };
    return w;
}

/* ---------------------------------------------------------------- */
/* pdes_p2p_16x16                                                   */
/* ---------------------------------------------------------------- */

constexpr std::uint32_t pdesLps = 2;
constexpr std::size_t pdesThreads = 2;
constexpr int pdesSetupReps = 15;

InjectorConfig
pdesConfig(std::uint64_t seed)
{
    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = 0.10;
    cfg.packetBytes = 64;
    cfg.warmup = 1000 * tickNs;
    cfg.window = 4000 * tickNs;
    cfg.seed = seed;
    return cfg;
}

/**
 * Deliveries seen by one network replica, written only by the worker
 * thread that steps the replica's LP. Message ids of a partitioned
 * network are (src + 1) << 40 | per-source injection sequence
 * (Network::inject), so the highest sequence delivered from a source
 * is the number of packets it injected once the run has drained.
 */
struct ReplicaTally
{
    explicit ReplicaTally(std::size_t sites) : maxSeq(sites, 0) {}

    std::vector<std::uint64_t> maxSeq;
    std::uint64_t delivered = 0;
    std::uint64_t windowDelivered = 0;
    Tick last = 0;
};

/**
 * Parse the per-LP profiler tables of PdesObservability::profileOut
 * ("tag count total_ms avg_ns pct" rows) into callback times.
 */
void
addPdesProfile(CellRun &r, const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '[' || line.starts_with("event tag"))
            continue;
        std::istringstream row(line);
        std::string tag;
        std::uint64_t count = 0;
        double total_ms = 0.0;
        if (row >> tag >> count >> total_ms)
            addProfileRow(r, tag, total_ms * 1e6);
    }
}

double
systemCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_stime.tv_sec)
        + static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

CellRun
runPdesCell(std::uint64_t root, const SpanContext &ctx, bool traced)
{
    CellRun r;
    CellSpans spans(ctx, "16x16 point-to-point, 2 LPs");
    const InjectorConfig cfg =
        pdesConfig(deriveSeed(root, "pdes_p2p_16x16", "uniform"));
    const MacrochipConfig mc = scaledConfig(16, 16);

    // One tally per factory call; a std::deque keeps the addresses
    // the observers captured stable as replicas are added.
    std::deque<ReplicaTally> tallies;
    double factory_ns = 0.0;
    const PdesNetworkFactory factory =
        [&](Simulator &sim) -> std::unique_ptr<Network> {
        const auto t0 = Clock::now();
        auto net = std::make_unique<PointToPointNetwork>(sim, mc);
        factory_ns += nsBetween(t0, Clock::now());
        ReplicaTally *tally = &tallies.emplace_back(mc.siteCount());
        net->setDeliveryObserver([tally](const Message &m) {
            std::uint64_t &seq = tally->maxSeq[m.src];
            seq = std::max(seq, m.id & ((std::uint64_t{1} << 40) - 1));
            ++tally->delivered;
            tally->windowDelivered += m.cookie == 1;
            tally->last = m.delivered;
        });
        return net;
    };

    std::vector<double> builds, net_builds;
    for (int rep = 0; rep < pdesSetupReps; ++rep) {
        factory_ns = 0.0;
        const auto t0 = Clock::now();
        PdesModel model = buildPdesModel(factory, pdesLps, pdesThreads,
                                         cfg.seed);
        const auto t1 = Clock::now();
        spans.child("buildPdesModel", t0, t1);
        builds.push_back(nsBetween(t0, t1));
        net_builds.push_back(factory_ns);
    }
    r.setupNs = median(builds);
    r.layer["net.pt2pt.setup_s"] = median(net_builds) * 1e-9;

    tallies.clear();
    std::string profile;
    PdesObservability obs;
    obs.timing = true;
    obs.profile = true;
    obs.profileOut = &profile;
    const double sys0 = systemCpuSeconds();
    const auto t2 = Clock::now();
    const PdesInjectorResult out = runOpenLoopPdes(
        factory, cfg, pdesLps, pdesThreads, traced ? &obs : nullptr);
    const auto t3 = Clock::now();
    const double sys1 = systemCpuSeconds();
    spans.child("runOpenLoopPdes", t2, t3);
    spans.finish();
    r.runNs = nsBetween(t2, t3);

    // Conservation from the delivery side: as many packets arrived
    // as the sources' sequence numbers say were injected.
    std::uint64_t injected = 0, delivered = 0, window_delivered = 0;
    Tick last = 0;
    for (std::size_t src = 0; src < mc.siteCount(); ++src) {
        std::uint64_t seq = 0;
        for (const ReplicaTally &t : tallies)
            seq = std::max(seq, t.maxSeq[src]);
        injected += seq;
    }
    for (const ReplicaTally &t : tallies) {
        delivered += t.delivered;
        window_delivered += t.windowDelivered;
        last = std::max(last, t.last);
    }
    const InjectorResult &res = out.result;
    // The window's injections, recovered from the realized offered
    // load: injected x bytes / window / sites / peak x 100.
    const double window_injected = res.offeredMeasuredPct / 100.0
        * mc.siteBandwidthBytesPerNs() * mc.siteCount()
        * ticksToNs(cfg.window) / cfg.packetBytes;

    r.layer["simcore.executed"] = static_cast<double>(out.eventsExecuted);
    r.layer["net.injected"] = static_cast<double>(injected);
    r.layer["net.delivered"] = static_cast<double>(delivered);
    r.layer["net.dropped"] = static_cast<double>(injected - delivered);
    injectorOutputs(r, res);
    r.simRuntimeNs = ticksToNs(last);
    r.outputs.push_back({"sim_end_ns", r.simRuntimeNs});
    r.outputs.push_back({"net_injected", static_cast<double>(injected)});
    r.outputs.push_back({"net_delivered", static_cast<double>(delivered)});

    if (out.effectiveLps != pdesLps)
        r.failures.push_back("ran on " + std::to_string(out.effectiveLps)
                             + " LPs, expected 2");
    if (injected != delivered)
        r.failures.push_back("conservation: injected "
                             + std::to_string(injected) + " != delivered "
                             + std::to_string(delivered));
    if (window_delivered != res.measuredPackets
        || std::llround(window_injected)
            != static_cast<long long>(res.measuredPackets)) {
        r.failures.push_back(
            "window: measured " + std::to_string(res.measuredPackets)
            + ", delivered " + std::to_string(window_delivered)
            + ", injected " + std::to_string(window_injected));
    }
    if (r.saturated)
        r.failures.push_back("saturated at 10% load");

    if (traced) {
        const PdesLoadReport &load = out.load;
        const PdesLpLoad &crit = load.lps.at(load.criticalLp);
        double exec_all = 0.0, rounds = 0.0;
        for (const PdesLpLoad &lp : load.lps) {
            exec_all += lp.execWallNs;
            rounds += static_cast<double>(lp.rounds);
        }
        addPdesProfile(r, profile);
        r.layer["simcore.self_s"] = (exec_all * 1e-9) - r.layer["_cb_s"];
        r.layer["pdes.exec_s"] = crit.execWallNs * 1e-9;
        r.layer["pdes.drain_s"] = crit.drainWallNs * 1e-9;
        r.layer["pdes.blocked_s"] = crit.blockedWallNs * 1e-9;
        r.layer["pdes.unattributed_s"] = (r.runNs - crit.drainWallNs
                                          - crit.execWallNs
                                          - crit.blockedWallNs)
            * 1e-9;
        r.layer["pdes.exec_ns_per_event"] = crit.executed
            ? crit.execWallNs / static_cast<double>(crit.executed)
            : 0.0;
        r.layer["pdes.blocked_frac"] = load.blockedFraction;
        r.layer["pdes.imbalance"] = load.eventImbalance;
        r.layer["pdes.cross_posts"] = static_cast<double>(load.crossPosts);
        r.layer["pdes.spills"] = static_cast<double>(load.spills);
        r.layer["pdes.rounds"] = rounds;
        r.layer["pdes.sys_s"] = sys1 - sys0;
    }
    return r;
}

Workload
pdesWorkload(std::uint64_t seed)
{
    Workload w;
    w.name = "pdes_p2p_16x16";
    w.threads = pdesThreads;
    w.cells = {"pt2pt-16x16-2lp"};
    w.run = [seed](std::size_t, const SpanContext &ctx, bool traced) {
        return runPdesCell(seed, ctx, traced);
    };
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig7_closed_loop", "open_loop_saturated", "pdes_p2p_16x16"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload *out)
{
    if (name == "fig7_closed_loop")
        *out = fig7Workload(seed);
    else if (name == "open_loop_saturated")
        *out = openLoopWorkload(seed);
    else if (name == "pdes_p2p_16x16")
        *out = pdesWorkload(seed);
    else
        return false;
    return true;
}

} // namespace perfbench
