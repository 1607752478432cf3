/**
 * @file
 * Ablation: MSHRs per core — the knob that couples network latency
 * to application runtime (section 5's "finite MSHRs").
 *
 * With one MSHR a core blocks on every miss, so runtime tracks raw
 * operation latency; with many MSHRs latency is overlapped and only
 * bandwidth matters. The point-to-point network's advantage over the
 * circuit-switched network persists across the sweep because it wins
 * on both axes.
 */

#include <cstdio>

#include "harness.hh"

#include "sim/logging.hh"

using namespace macrosim;
using namespace macrosim::bench;

int
main(int argc, char **argv)
{
    setQuiet(true);
    rejectUnknownFlags(argc, argv);
    const std::uint64_t instr = instructionsArg(argc, argv, 1200);
    WorkloadSpec spec = workloadByName("swaptions");
    spec.instructionsPerCore = instr;

    std::printf("MSHR ablation (swaptions, %llu instr/core)\n\n",
                static_cast<unsigned long long>(instr));
    std::printf("%8s %14s %14s %12s\n", "MSHRs", "p2p rt (ns)",
                "CS rt (ns)", "p2p speedup");

    for (const std::uint32_t mshrs : {1u, 2u, 4u, 8u, 16u}) {
        MacrochipConfig cfg = simulatedConfig();
        cfg.mshrsPerCore = mshrs;

        Simulator sim_a(3);
        PointToPointNetwork p2p(sim_a, cfg);
        const auto a = TraceCpuSystem(sim_a, p2p, spec, 7).run();

        Simulator sim_b(3);
        CircuitSwitchedTorus cs(sim_b, cfg);
        const auto b = TraceCpuSystem(sim_b, cs, spec, 7).run();

        std::printf("%8u %14.0f %14.0f %12.2f\n", mshrs,
                    a.runtimeNs(), b.runtimeNs(),
                    static_cast<double>(b.runtime)
                        / static_cast<double>(a.runtime));
        std::fflush(stdout);
    }
    return 0;
}
