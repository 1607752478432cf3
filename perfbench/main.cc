/**
 * @file
 * perfbench: times one named workload of the macrosim benchmark,
 * checks its simulated outputs, and prints its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--print-digests]
 *
 * A pass runs every cell of the workload once. Passes repeat until
 * another one would overrun --seconds (at least one runs). With
 * --trace 0 every pass is untraced and the end-to-end metrics are
 * reported; with --trace 1 untraced and traced passes alternate and
 * the per-layer metrics are reported, derived from the traced passes'
 * profiler and counters. Run times are per-cell medians over the
 * passes, summed over the cells. The set-up time is the median over
 * the passes of each pass's set-up total.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics. A fuller record (provenance, per-cell outputs and
 * digests) goes to the build tree's results/ directory as JSON, and
 * with --trace 1 the spans go next to it as Perfetto JSON. The pinned
 * digests are always checked, against the digests.txt this program
 * was built beside. See README.md.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cells.hh"
#include "sim/logging.hh"
#include "sim/telemetry/json.hh"

namespace
{

using namespace perfbench;

/** Seed whose per-cell output digests are pinned in digests.txt. */
constexpr std::uint64_t defaultSeed = 1;

struct Metric
{
    const char *name;
    const char *unit;
};

const Metric endToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_runtime_ns", "ns"},
    {"sim_latency_ns", "ns"},
};

/** How a per-layer number combines across a workload's cells. */
enum class Fold
{
    Sum,     ///< Counts and times add up.
    Max,     ///< High-water marks, and single-cell ratios.
    Derived, ///< Computed from other folded numbers.
};

struct LayerMetric
{
    const char *name;
    const char *unit;
    Fold fold;
};

const LayerMetric perLayer[] = {
    {"simcore.executed", "count", Fold::Sum},
    {"simcore.scheduled", "count", Fold::Sum},
    {"simcore.cancelled", "count", Fold::Sum},
    {"simcore.peak_pending", "count", Fold::Max},
    {"simcore.max_same_tick_burst", "count", Fold::Max},
    {"simcore.batch_events_frac", "ratio", Fold::Derived},
    {"simcore.ns_per_event", "ns", Fold::Derived},
    {"simcore.self_s", "s", Fold::Sum},
    {"net.tring.cb_s", "s", Fold::Sum},
    {"net.cswitch.cb_s", "s", Fold::Sum},
    {"net.lpt2pt.cb_s", "s", Fold::Sum},
    {"net.2phase.cb_s", "s", Fold::Sum},
    {"net.hermes.cb_s", "s", Fold::Sum},
    {"net.tring.setup_s", "s", Fold::Sum},
    {"net.cswitch.setup_s", "s", Fold::Sum},
    {"net.pt2pt.setup_s", "s", Fold::Sum},
    {"net.lpt2pt.setup_s", "s", Fold::Sum},
    {"net.2phase.setup_s", "s", Fold::Sum},
    {"net.hermes.setup_s", "s", Fold::Sum},
    {"net.deliver.cb_s", "s", Fold::Sum},
    {"net.injected", "count", Fold::Sum},
    {"net.delivered", "count", Fold::Sum},
    {"net.dropped", "count", Fold::Sum},
    {"net.retries", "count", Fold::Sum},
    {"net.delivered_frac", "ratio", Fold::Derived},
    {"arch.cb_s", "s", Fold::Sum},
    {"arch.setup_s", "s", Fold::Sum},
    {"arch.l2_hit_ratio", "ratio", Fold::Derived},
    {"coherence.txn_completed", "count", Fold::Sum},
    {"coherence.messages", "count", Fold::Sum},
    {"coherence.coalesced_frac", "ratio", Fold::Derived},
    {"coherence.writebacks", "count", Fold::Sum},
    {"workload.cb_s", "s", Fold::Sum},
    {"workload.instructions", "count", Fold::Sum},
    {"workload.measured_packets", "count", Fold::Sum},
    {"workload.overflow_packets", "count", Fold::Sum},
    {"pdes.exec_s", "s", Fold::Sum},
    {"pdes.drain_s", "s", Fold::Sum},
    {"pdes.blocked_s", "s", Fold::Sum},
    {"pdes.unattributed_s", "s", Fold::Sum},
    {"pdes.exec_ns_per_event", "ns", Fold::Max},
    {"pdes.blocked_frac", "ratio", Fold::Max},
    {"pdes.imbalance", "ratio", Fold::Max},
    {"pdes.cross_posts", "count", Fold::Sum},
    {"pdes.spills", "count", Fold::Sum},
    {"pdes.rounds", "count", Fold::Sum},
    {"pdes.sys_s", "s", Fold::Sum},
    {"telemetry.trace_overhead_frac", "ratio", Fold::Derived},
};

/** Internal inputs of the derived ratios (see cells.cc). */
const char *const ratioInputs[] = {
    "_batch_events", "_l2_hits", "_l2_accesses", "_coh_started",
    "_coh_coalesced",
};

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    int trace = 0;
    bool printDigests = false;
};

const char usage[] =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                 [--print-digests]\n"
    "workloads: fig7_closed_loop, open_loop_saturated, pdes_p2p_16x16\n";

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "perfbench: " << msg << "\n" << usage;
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos
        || text.size() > 19)
        usageError(flag + " needs a whole number, got '" + text + "'");
    return std::stoull(text);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << usage;
            std::exit(0);
        }
        if (arg == "--print-digests") {
            o.printDigests = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError("unknown option or missing value: " + arg);
        const std::string val = argv[++i];
        if (arg == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = parseUnsigned(arg, val);
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parseUnsigned(arg, val));
            if (o.seconds < 1)
                usageError("--seconds must be at least 1");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usageError("--trace takes 0 or 1");
            o.trace = val == "1";
        } else {
            usageError("unknown option: " + arg);
        }
    }
    if (!have_workload)
        usageError("--workload is required");
    return o;
}

/** FNV-1a 64 of @p text, as 16 hex digits. */
std::string
digest(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

/** A number as JSON: round-trip digits, null when not finite. */
std::string
num(double v)
{
    return std::isfinite(v) ? macrosim::jsonNumber(v) : "null";
}

std::string
quote(const std::string &s)
{
    return "\"" + macrosim::jsonEscape(s) + "\"";
}

/**
 * Pinned "<workload> <seed> <cell> <digest>" lines for @p workload
 * and @p seed, keyed by cell; cell "*" is the whole workload. A
 * missing or unreadable file is fatal.
 */
std::map<std::string, std::string>
readPinned(const std::string &path, const std::string &workload,
           std::uint64_t seed)
{
    std::map<std::string, std::string> pinned;
    std::ifstream is(path);
    if (!is) {
        std::cerr << "perfbench: cannot read digests file '" << path
                  << "'\n";
        std::exit(1);
    }
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        std::string w, cell, d;
        std::uint64_t s = 0;
        if (row >> w >> s >> cell >> d && w == workload && s == seed)
            pinned[cell] = d;
    }
    return pinned;
}

/** First line of @p path, or "" when it cannot be read. */
std::string
firstLine(const std::filesystem::path &path)
{
    std::ifstream is(path);
    std::string line;
    std::getline(is, line);
    return line;
}

/** The checked-out commit, read from .git; "unknown" without one. */
std::string
gitCommit(const std::filesystem::path &root)
{
    const std::filesystem::path git = root / ".git";
    const std::string head = firstLine(git / "HEAD");
    if (!head.starts_with("ref: "))
        return head.empty() ? "unknown" : head;
    const std::string ref = head.substr(5);
    const std::string loose = firstLine(git / ref);
    if (!loose.empty())
        return loose;
    std::ifstream packed(git / "packed-refs");
    std::string line;
    while (std::getline(packed, line)) {
        if (line.size() > ref.size() + 1 && line.ends_with(" " + ref))
            return line.substr(0, line.size() - ref.size() - 1);
    }
    return "unknown";
}

/** FNV-1a 64 over every file under src/, by sorted relative path. */
std::string
sourceDigest(const std::filesystem::path &root)
{
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(root / "src", ec)) {
        if (e.is_regular_file())
            files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    std::string all;
    for (const auto &f : files) {
        std::ifstream is(f, std::ios::binary);
        std::ostringstream text;
        text << is.rdbuf();
        all += f.lexically_relative(root).string() + '\0' + text.str();
    }
    return digest(all);
}

std::string
provenanceJson(unsigned threads)
{
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1.0;
    cpu_set_t set;
    CPU_ZERO(&set);
    const int allowed = sched_getaffinity(0, sizeof(set), &set) == 0
        ? CPU_COUNT(&set)
        : -1;
    char started[32] = "";
    const std::time_t now = std::time(nullptr);
    std::strftime(started, sizeof(started), "%Y-%m-%dT%H:%M:%SZ",
                  std::gmtime(&now));
    std::ostringstream os;
    os << "{\"commit\": " << quote(gitCommit(PERFBENCH_ROOT))
       << ", \"source_fnv1a\": " << quote(sourceDigest(PERFBENCH_ROOT))
       << ", \"compiler\": " << quote(PERFBENCH_COMPILER)
       << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"cpus_allowed\": " << allowed
       << ", \"loadavg_start\": [" << num(load[0]) << ", "
       << num(load[1]) << ", " << num(load[2]) << "]"
       << ", \"started_utc\": " << quote(started)
       << ", \"workload_threads\": " << threads << "}";
    return os.str();
}

using Pass = std::vector<CellRun>;

/** Per cell, the median over @p passes of @p get; summed over cells. */
template <typename Get>
double
sumOfCellMedians(const std::vector<Pass> &passes, Get get)
{
    if (passes.empty())
        return 0.0;
    double total = 0.0;
    for (std::size_t c = 0; c < passes.front().size(); ++c) {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back(get(p[c]));
        total += median(v);
    }
    return total;
}

/**
 * Per pass, @p get summed over the cells; the median over @p passes.
 * Each cell's set-up repeats take a few milliseconds, short enough to
 * fall wholly in a fast or a slow phase of a shared host; a pass's
 * total spans all its cells, so its median moves less than a sum of
 * per-cell medians does.
 */
template <typename Get>
double
medianOfPassSums(const std::vector<Pass> &passes, Get get)
{
    std::vector<double> totals;
    for (const Pass &p : passes) {
        double total = 0.0;
        for (const CellRun &r : p)
            total += get(r);
        totals.push_back(total);
    }
    return median(totals);
}

double
layerValue(const CellRun &r, const std::string &key)
{
    const auto it = r.layer.find(key);
    return it == r.layer.end() ? 0.0 : it->second;
}

/** @p part / @p whole, or 0 when @p whole is not positive. */
double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/** Fold the traced passes into the per-layer metrics. */
std::map<std::string, double>
perLayerMetrics(const std::vector<Pass> &traced,
                const std::vector<Pass> &untraced)
{
    std::map<std::string, double> m;
    const auto fold = [&](const std::string &key, Fold how) {
        double v = 0.0;
        for (std::size_t c = 0; c < traced.front().size(); ++c) {
            std::vector<double> vals;
            for (const Pass &p : traced)
                vals.push_back(layerValue(p[c], key));
            const double cell = median(vals);
            v = how == Fold::Max ? std::max(v, cell) : v + cell;
        }
        m[key] = v;
    };
    for (const LayerMetric &lm : perLayer) {
        if (lm.fold != Fold::Derived)
            fold(lm.name, lm.fold);
    }
    for (const char *key : ratioInputs)
        fold(key, Fold::Sum);

    const double untraced_wall =
        sumOfCellMedians(untraced, [](const CellRun &r) { return r.runNs; });
    const double traced_wall =
        sumOfCellMedians(traced, [](const CellRun &r) { return r.runNs; });
    m["simcore.batch_events_frac"] =
        ratio(m["_batch_events"], m["simcore.executed"]);
    m["simcore.ns_per_event"] = ratio(untraced_wall, m["simcore.executed"]);
    m["net.delivered_frac"] = ratio(m["net.delivered"], m["net.injected"]);
    m["arch.l2_hit_ratio"] = ratio(m["_l2_hits"], m["_l2_accesses"]);
    m["coherence.coalesced_frac"] = ratio(
        m["_coh_coalesced"], m["_coh_coalesced"] + m["_coh_started"]);
    m["telemetry.trace_overhead_frac"] =
        ratio(traced_wall, untraced_wall) - 1.0;
    return m;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Write @p text to @p path; false on any I/O failure. */
bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    os << text;
    os.close();
    return static_cast<bool>(os);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Workload w;
    if (!makeWorkload(opt.workload, opt.seed, &w))
        usageError("unknown workload '" + opt.workload + "'");
    macrosim::setQuiet(true);

    const std::map<std::string, std::string> pinned =
        readPinned(PERFBENCH_DIGESTS, w.name, opt.seed);
    const std::string provenance = provenanceJson(w.threads);
    const Clock::time_point start = Clock::now();
    SpanRecorder spans(start);

    // Alternate untraced and (with --trace 1) traced passes until the
    // next round would overrun the budget.
    std::vector<Pass> untraced, traced;
    for (;;) {
        const Clock::time_point round_start = Clock::now();
        Pass p;
        for (std::size_t c = 0; c < w.cells.size(); ++c)
            p.push_back(w.run(c, SpanContext{}, false));
        untraced.push_back(std::move(p));
        if (opt.trace) {
            const auto track = static_cast<std::uint32_t>(traced.size() + 1);
            spans.nameTrack(track, "traced pass " + std::to_string(track));
            Pass t;
            for (std::size_t c = 0; c < w.cells.size(); ++c)
                t.push_back(w.run(c, SpanContext{&spans, track}, true));
            traced.push_back(std::move(t));
        }
        const Clock::time_point now = Clock::now();
        const double elapsed = nsBetween(start, now) * 1e-9;
        const double round = nsBetween(round_start, now) * 1e-9;
        if (elapsed + round > opt.seconds)
            break;
    }

    // Correctness: every execution's own checks, identical outputs
    // across all passes (traced or not), and the pinned digests: per
    // cell where the seed has per-cell pins (the default seed), else
    // per workload ("*"). Only the default seed must be pinned.
    std::vector<std::string> problems;
    std::uint64_t attempted = 0, failed = 0;
    const Pass &first = untraced.front();
    std::string all_outputs;
    for (std::size_t c = 0; c < w.cells.size(); ++c)
        all_outputs += w.cells[c] + "\n" + first[c].outputText();
    const bool per_cell = pinned.size() > pinned.count("*");
    const auto pinnedProblem = [&](const std::string &key,
                                   const std::string &text)
        -> std::string {
        const auto it = pinned.find(key);
        if (it == pinned.end())
            return opt.seed == defaultSeed ? "no pinned digest" : "";
        const std::string got = digest(text);
        return got == it->second ? ""
                                 : "digest " + got + " != pinned "
                                       + it->second;
    };
    const std::string workload_problem =
        per_cell ? "" : pinnedProblem("*", all_outputs);
    std::vector<const Pass *> all;
    for (const Pass &p : untraced)
        all.push_back(&p);
    for (const Pass &p : traced)
        all.push_back(&p);
    for (std::size_t pi = 0; pi < all.size(); ++pi) {
        for (std::size_t c = 0; c < w.cells.size(); ++c) {
            const CellRun &r = (*all[pi])[c];
            std::vector<std::string> why = r.failures;
            if (r.outputText() != first[c].outputText())
                why.push_back("outputs differ from the first pass");
            if (pi == 0) {
                const std::string problem = per_cell
                    ? pinnedProblem(w.cells[c], r.outputText())
                    : workload_problem;
                if (!problem.empty())
                    why.push_back(problem);
            }
            ++attempted;
            if (!why.empty()) {
                ++failed;
                for (const std::string &y : why)
                    problems.push_back(w.cells[c] + ": " + y);
            }
        }
    }

    if (opt.printDigests) {
        for (std::size_t c = 0; c < w.cells.size(); ++c)
            std::cout << w.name << " " << opt.seed << " " << w.cells[c]
                      << " " << digest(first[c].outputText()) << "\n";
        std::cout << w.name << " " << opt.seed << " * "
                  << digest(all_outputs) << "\n";
    }

    std::map<std::string, double> values;
    std::vector<std::pair<std::string, std::string>> units;
    if (opt.trace) {
        values = perLayerMetrics(traced, untraced);
        for (const LayerMetric &lm : perLayer)
            units.push_back({lm.name, lm.unit});
    } else {
        double runtime = 0.0, lat_sum = 0.0, lat_count = 0.0;
        for (const CellRun &r : first) {
            runtime += r.simRuntimeNs;
            lat_sum += r.latencySumNs;
            lat_count += r.latencyCount;
        }
        values["wall_s"] = sumOfCellMedians(
            untraced, [](const CellRun &r) { return r.runNs; }) * 1e-9;
        values["setup_s"] = medianOfPassSums(
            untraced, [](const CellRun &r) { return r.setupNs; }) * 1e-9;
        values["peak_rss_mb"] = peakRssMb();
        values["sim_runtime_ns"] = runtime;
        values["sim_latency_ns"] = ratio(lat_sum, lat_count);
        for (const Metric &m : endToEnd)
            units.push_back({m.name, m.unit});
    }
    for (const auto &[name, unit] : units) {
        if (!std::isfinite(values[name]))
            problems.push_back("metric " + name + " is not finite");
    }

    std::ostringstream metrics;
    metrics << "{";
    for (std::size_t i = 0; i < units.size(); ++i) {
        const auto &[name, unit] = units[i];
        metrics << (i ? ", " : "") << quote(name) << ": {\"value\": "
                << num(values[name]) << ", \"unit\": " << quote(unit)
                << "}";
    }
    metrics << "}";
    const bool correct = problems.empty();

    // The fuller record: provenance, pass counts, per-cell outputs.
    std::ostringstream doc;
    doc << "{\"workload\": " << quote(w.name) << ", \"seed\": " << opt.seed
        << ", \"seconds\": " << num(opt.seconds)
        << ", \"trace\": " << opt.trace
        << ", \"provenance\": " << provenance
        << ", \"passes\": {\"untraced\": " << untraced.size()
        << ", \"traced\": " << traced.size() << "}"
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"failed_frac\": "
        << num(ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)))
        << ", \"metrics\": " << metrics.str() << ", \"problems\": [";
    for (std::size_t i = 0; i < problems.size(); ++i)
        doc << (i ? ", " : "") << quote(problems[i]);
    const auto passTotals = [&](const char *key, auto get) {
        doc << "], \"" << key << "\": [";
        for (std::size_t i = 0; i < untraced.size(); ++i) {
            double total = 0.0;
            for (const CellRun &r : untraced[i])
                total += get(r) * 1e-9;
            doc << (i ? ", " : "") << num(total);
        }
    };
    passTotals("pass_wall_s", [](const CellRun &r) { return r.runNs; });
    passTotals("pass_setup_s", [](const CellRun &r) { return r.setupNs; });
    doc << "], \"cells\": [";
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
        const CellRun &r = first[c];
        std::vector<double> walls, setups;
        for (const Pass &p : untraced) {
            walls.push_back(p[c].runNs * 1e-9);
            setups.push_back(p[c].setupNs * 1e-9);
        }
        doc << (c ? ", " : "") << "{\"name\": " << quote(w.cells[c])
            << ", \"digest\": " << quote(digest(r.outputText()))
            << ", \"saturated\": " << (r.saturated ? "true" : "false")
            << ", \"wall_s_median\": " << num(median(walls))
            << ", \"setup_s_median\": " << num(median(setups))
            << ", \"outputs\": {";
        for (std::size_t k = 0; k < r.outputs.size(); ++k)
            doc << (k ? ", " : "") << quote(r.outputs[k].first) << ": "
                << num(r.outputs[k].second);
        doc << "}}";
    }
    doc << "]}";

    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": " << metrics.str() << "}";

    std::string err;
    if (!macrosim::jsonValid(doc.str(), &err)
        || !macrosim::jsonValid(line.str(), &err)) {
        std::cerr << "perfbench: produced invalid JSON: " << err << "\n";
        return 1;
    }

    std::error_code ec;
    std::filesystem::create_directories(PERFBENCH_RESULTS_DIR, ec);
    const std::string stem = std::string(PERFBENCH_RESULTS_DIR) + "/"
        + w.name + "_seed"
        + std::to_string(opt.seed) + "_trace" + std::to_string(opt.trace)
        + "_" + std::to_string(getpid());
    if (!writeFile(stem + ".json", doc.str() + "\n")) {
        std::cerr << "perfbench: cannot write " << stem << ".json\n";
        return 1;
    }
    if (opt.trace) {
        const std::string trace = spans.json();
        if (!macrosim::jsonValid(trace, &err)) {
            std::cerr << "perfbench: span trace is invalid JSON: " << err
                      << "\n";
            return 1;
        }
        if (!writeFile(stem + ".perfetto.json", trace)) {
            std::cerr << "perfbench: cannot write the span trace\n";
            return 1;
        }
    }

    std::cerr << "perfbench: " << w.name << " seed " << opt.seed << ", "
              << untraced.size() << " untraced + " << traced.size()
              << " traced passes, " << failed << "/" << attempted
              << " cell runs failed; record " << stem << ".json\n";
    for (const auto &[name, unit] : units)
        std::cerr << "  " << name << " = " << num(values[name]) << " "
                  << unit << "\n";
    for (const std::string &p : problems)
        std::cerr << "  FAILED " << p << "\n";
    std::cout << line.str() << std::endl;
    return 0;
}
