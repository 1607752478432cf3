/**
 * @file
 * The benchmark's workloads, each a list of independent cells.
 *
 * A cell is one simulation: set it up (timed), run it (timed), read
 * the counters the layers expose, and check its outputs. Every call
 * into the simulator goes through the layers' public entry points
 * (service::makeNetworkFor, the TraceCpuSystem constructor and run(),
 * runOpenLoop, buildPdesModel and runOpenLoopPdes), timed from
 * outside; nothing in the simulator is modified to be measured.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/telemetry/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds from @p a to @p b. */
double nsBetween(Clock::time_point a, Clock::time_point b);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Host-time spans around the benchmark's calls into the simulator,
 * kept in memory and written once as Perfetto JSON. Every span
 * carries its own id, its parent's id (0 for a cell span) and the id
 * of the cell it belongs to, so all spans of one cell share a key.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

    /** Record [t0, t1) on track @p track; returns the new span id. */
    std::uint64_t add(const std::string &name, std::uint32_t track,
                      Clock::time_point t0, Clock::time_point t1,
                      std::uint64_t parent, std::uint64_t cell);

    /** Name the Perfetto row of @p track. */
    void nameTrack(std::uint32_t track, const std::string &name);

    /** Serialize the spans as trace-event JSON. */
    std::string json() const;

  private:
    Clock::time_point origin_;
    macrosim::TraceSink sink_;
    std::uint64_t nextId_ = 1;
};

/** Where a cell records its spans; null recorder = untraced pass. */
struct SpanContext
{
    SpanRecorder *spans = nullptr;
    std::uint32_t track = 0;
};

/**
 * One execution of one cell. Host times are nanoseconds. `layer`
 * holds the per-layer numbers this execution produced, keyed by the
 * per-layer metric name they feed (see main.cc); keys starting with
 * '_' are inputs of derived ratios.
 */
struct CellRun
{
    double setupNs = 0.0;
    double runNs = 0.0;
    std::map<std::string, double> layer;

    /** Simulated outputs, in a fixed order; may be non-finite. */
    std::vector<std::pair<std::string, double>> outputs;
    /** Simulated end time of the cell, ns. */
    double simRuntimeNs = 0.0;
    /** Sum and count of simulated packet latencies, for the pooled
     *  mean over the workload. */
    double latencySumNs = 0.0;
    double latencyCount = 0.0;
    /** The network ran past saturation: percentiles may be +inf. */
    bool saturated = false;
    /** Failed correctness checks; empty = the cell passed. */
    std::vector<std::string> failures;

    /** outputs rendered with %.17g, one "name=value" per line. */
    std::string outputText() const;
};

/** A named list of cells; run(i, ctx, traced) executes cell i. */
struct Workload
{
    std::string name;
    /** Worker threads the workload uses (for the record). */
    unsigned threads = 1;
    std::vector<std::string> cells;
    std::function<CellRun(std::size_t, const SpanContext &, bool)> run;
};

/** Names of the benchmark's workloads, in documentation order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name with inputs derived from @p seed. Returns
 *  false for an unknown name. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload *out);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
