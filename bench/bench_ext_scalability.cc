/**
 * @file
 * Extension bench: scaling the macrochip beyond the paper.
 *
 * Sweeps the R x C grid through 8x8 -> 16x16 -> 24x24 (the Table 4
 * system and two "what if the 2015 vision kept growing" points) for
 * all six networks — the paper's five architectures plus the
 * hierarchical hermes broadcast network. Every (grid, network) point
 * first passes the photonic feasibility gate: the worst-case link's
 * required launch power is checked against the waveguide-nonlinearity
 * ceiling (photonics/link_budget). Feasible points run the open-loop
 * uniform-traffic injector and report simulated latency, delivered
 * throughput and network energy alongside the analytic laser power;
 * infeasible points report the verdict and the analytic numbers only
 * — no amount of laser power closes those links, so simulating them
 * would manufacture results for unbuildable hardware.
 *
 * Also retained from the original section 6.4 bench: the WDM-scaling
 * table showing point-to-point bandwidth growing at constant
 * waveguide count.
 *
 * Flags:
 *   --rows N --cols M   sweep a single custom grid instead
 *   --network <slug>    one network only (tring, cswitch, pt2pt,
 *                       lpt2pt, 2phase, hermes)
 *   --smoke             16x16 only, short window (CI)
 *   --jobs N, --seed N  the usual sweep knobs
 *
 * A full (non-smoke) run pins the table in BENCH_scaling.json.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "net/analysis.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/telemetry/json.hh"
#include "sweep.hh"
#include "workloads/packet_injector.hh"

using namespace macrosim;
using namespace macrosim::bench;

namespace
{

struct GridSpec
{
    std::uint32_t rows = 8;
    std::uint32_t cols = 8;
};

struct Point
{
    GridSpec grid;
    NetId id = NetId::PointToPoint;
    LinkFeasibility feas;
    double laserW = 0.0;
    double staticW = 0.0;
    bool simulated = false;
    InjectorResult traffic;
    double energyMj = 0.0;
};

Point
runPoint(GridSpec grid, NetId id, std::uint64_t seed,
         const TelemetryOptions &topt)
{
    const std::string label = std::to_string(grid.rows) + "x"
        + std::to_string(grid.cols);
    const std::uint64_t cell_seed =
        deriveSeed(seed, "scale-" + label, netName(id));

    const MacrochipConfig cfg = scaledConfig(grid.rows, grid.cols);
    Simulator sim(cell_seed);
    auto net = makeNetwork(id, sim, cfg);

    Point p;
    p.grid = grid;
    p.id = id;
    p.feas = net->feasibility();
    p.laserW = net->laserWatts();
    p.staticW = net->staticWatts();
    if (!p.feas.feasible) {
        // The gate: links this lossy cannot be closed under the
        // launch-power ceiling, so no latency/energy numbers exist
        // for this point.
        return p;
    }

    InjectorConfig icfg;
    icfg.pattern = TrafficPattern::Uniform;
    icfg.load = 0.05;
    icfg.warmup = topt.smoke ? 250 * tickNs : 500 * tickNs;
    icfg.window = topt.smoke ? 1000 * tickNs : 2000 * tickNs;
    icfg.seed = cell_seed;
    p.traffic = runOpenLoop(sim, *net, icfg);
    p.energyMj = net->energy().totalJoules(sim.now()) * 1e3;
    p.simulated = true;

    if (simStatsEnabled())
        dumpSimStats(netName(id) + " @ " + label, sim);
    return p;
}

/**
 * Saturation verdict for one simulated point: the measured tail left
 * the latency histogram (p99 is then +inf), or the network delivered
 * clearly less than was offered during the window.
 */
bool
saturated(const InjectorResult &r)
{
    return r.overflowPackets > 0 || !std::isfinite(r.p99LatencyNs)
        || r.deliveredPct < 0.95 * r.offeredMeasuredPct;
}

/** @p v rendered with printf @p fmt, or @p nonFinite when it is not
 *  finite. */
std::string
formatValue(double v, const char *fmt, const char *nonFinite)
{
    if (!std::isfinite(v))
        return nonFinite;
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

/** @p v for the JSON: null when non-finite. */
std::string
jsonValue(double v, const char *fmt = "%.6f")
{
    return formatValue(v, fmt, "null");
}

/** @p v for the stdout CSV: "-", the placeholder of the fields an
 *  infeasible row lacks, when non-finite. */
std::string
csvValue(double v, const char *fmt)
{
    return formatValue(v, fmt, "-");
}

/** Positive-integer flag on top of the shared stripNumberFlag(). */
bool
numberFlag(int &argc, char **argv, const char *name,
           std::uint32_t &out)
{
    std::uint64_t v = 0;
    if (!stripNumberFlag(argc, argv, name, &v))
        return false;
    if (v == 0 || v > 0xFFFFFFFFull)
        fatal("bench_ext_scalability: --", name,
              " must be a positive integer, got ", v);
    out = static_cast<std::uint32_t>(v);
    return true;
}

void
printWdmTable()
{
    std::printf("Section 6.4: WDM scaling at 64 sites (constant "
                "point-to-point waveguides)\n");
    std::printf("  %-24s %4s %9s %10s %12s\n", "network", "wdm",
                "TB/s", "waveguides", "wgs per TB/s");
    for (std::uint32_t wdm : {8u, 16u, 32u}) {
        MacrochipConfig cfg = simulatedConfig();
        cfg.wavelengthsPerWaveguide = wdm;
        cfg.txPerSite = 128 * wdm / 8;
        cfg.rxPerSite = cfg.txPerSite;
        const auto rows = analyzeAllNetworks(cfg);
        const auto &p2p = rows[2];
        std::printf("  %-24s %4u %9.1f %10llu %12.2f\n",
                    p2p.network.c_str(), wdm, p2p.peakTBs,
                    static_cast<unsigned long long>(
                        p2p.counts.waveguides),
                    p2p.waveguidesPerTBs());
    }
    std::printf("  %-24s %4s %9s %10llu wires (16-bit links)\n",
                "electronic full mesh", "-", "-",
                static_cast<unsigned long long>(
                    electronicPointToPointWires(64, 16)));
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const std::size_t jobs = jobsArg(argc, argv);
    simStatsArg(argc, argv);
    const std::uint64_t seed = seedArg(argc, argv, 1);
    installSweepSignalHandlers();

    std::uint32_t rows_flag = 0;
    std::uint32_t cols_flag = 0;
    const bool have_rows = numberFlag(argc, argv, "rows", rows_flag);
    const bool have_cols = numberFlag(argc, argv, "cols", cols_flag);
    std::string net_flag;
    const bool have_net =
        stripValueFlag(argc, argv, "network", &net_flag);
    const TelemetryOptions topt = telemetryArgs(argc, argv);

    std::vector<GridSpec> grids = {{8, 8}, {16, 16}, {24, 24}};
    if (topt.smoke)
        grids = {{16, 16}};
    if (have_rows || have_cols) {
        GridSpec g;
        g.rows = have_rows ? rows_flag : 8;
        g.cols = have_cols ? cols_flag : g.rows;
        grids = {g};
    }

    std::vector<NetId> nets(extendedNetworks.begin(),
                            extendedNetworks.end());
    if (have_net) {
        NetId only;
        if (!service::netFromString(net_flag, &only))
            fatal("bench_ext_scalability: unknown --network '",
                  net_flag, "' (try tring, cswitch, pt2pt, lpt2pt, "
                  "2phase, hermes)");
        nets = {only};
    }

    printWdmTable();

    std::printf("\nGrid scaling with the feasibility gate "
                "(uniform traffic @ 5%% load)\n\n");
    std::printf("grid,network,feasible,loss_db,required_launch_dbm,"
                "margin_db,laser_w,static_w,mean_ns,p99_ns,"
                "delivered_pct,energy_mj\n");

    std::vector<SweepJob<Point>> sweep;
    for (const GridSpec grid : grids) {
        for (const NetId id : nets) {
            sweep.push_back(SweepJob<Point>{
                netName(id) + " @ " + std::to_string(grid.rows) + "x"
                    + std::to_string(grid.cols),
                [grid, id, seed, &topt] {
                    return runPoint(grid, id, seed, topt);
                }});
        }
    }

    const std::vector<Point> points =
        SweepRunner(jobs).run("scalability", std::move(sweep));
    if (sweepInterrupted())
        return sweepExitStatus();

    std::ostringstream json;
    json << "{\n  \"bench\": \"scaling\",\n  \"points\": [\n";
    bool first = true;
    for (const Point &p : points) {
        const auto simulatedCsv = [&p](double v, const char *fmt) {
            return p.simulated ? csvValue(v, fmt) : std::string("-");
        };
        const std::string fields[] = {
            csvValue(p.feas.totalLoss.value(), "%.2f"),
            csvValue(p.feas.requiredLaunch.value(), "%.2f"),
            csvValue(p.feas.margin.value(), "%.2f"),
            csvValue(p.laserW, "%.1f"),
            csvValue(p.staticW, "%.1f"),
            simulatedCsv(p.traffic.meanLatencyNs, "%.1f"),
            simulatedCsv(p.traffic.p99LatencyNs, "%.1f"),
            simulatedCsv(p.traffic.deliveredPct, "%.2f"),
            simulatedCsv(p.energyMj, "%.3f"),
        };
        std::string line = std::to_string(p.grid.rows);
        line += 'x';
        line += std::to_string(p.grid.cols);
        line += ',';
        line += netName(p.id);
        line += p.simulated ? ",yes" : ",infeasible";
        for (const std::string &f : fields) {
            line += ',';
            line += f;
        }
        line += '\n';
        std::fputs(line.c_str(), stdout);

        const auto simulatedValue = [&p](double v) {
            return p.simulated ? jsonValue(v) : std::string("null");
        };
        json << (first ? "" : ",\n") << "    {\"grid\": \""
             << p.grid.rows << "x" << p.grid.cols
             << "\", \"network\": \""
             << netName(p.id) << "\", \"feasible\": "
             << (p.feas.feasible ? "true" : "false")
             << ", \"loss_db\": "
             << jsonValue(p.feas.totalLoss.value(), "%.2f")
             << ", \"required_launch_dbm\": "
             << jsonValue(p.feas.requiredLaunch.value(), "%.2f")
             << ", \"margin_db\": "
             << jsonValue(p.feas.margin.value(), "%.2f")
             << ", \"laser_w\": " << jsonValue(p.laserW, "%.1f")
             << ", \"mean_ns\": "
             << simulatedValue(p.traffic.meanLatencyNs)
             << ", \"p99_ns\": "
             << simulatedValue(p.traffic.p99LatencyNs)
             << ", \"delivered_pct\": "
             << simulatedValue(p.traffic.deliveredPct)
             << ", \"energy_mj\": " << simulatedValue(p.energyMj)
             << ", \"saturated\": "
             << (!p.simulated ? "null"
                 : saturated(p.traffic) ? "true" : "false")
             << "}";
        first = false;
    }
    json << "\n  ]\n}\n";

    // Every mode validates the document, so a smoke run catches a
    // malformed value before a full run pins one.
    std::string err;
    if (!jsonValid(json.str(), &err)) {
        std::fprintf(stderr,
                     "bench_ext_scalability: result JSON invalid: %s\n",
                     err.c_str());
        return 1;
    }
    if (!topt.smoke && !have_net && !have_rows && !have_cols)
        writeTextFile("BENCH_scaling.json", json.str());
    return sweepExitStatus();
}
