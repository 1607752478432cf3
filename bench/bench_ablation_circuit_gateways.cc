/**
 * @file
 * Ablation: circuit gateways per site in the circuit-switched torus.
 *
 * DESIGN.md fixes the number of concurrent circuits a site can
 * source at 4 ("host access points" — a parameter the paper leaves
 * open). This sweep shows the figure 6 saturation point's
 * sensitivity: with few gateways the source serializes circuits;
 * with many, the serial control routers become the bottleneck and
 * extra gateways stop helping — which is why the ~2.5% saturation
 * is robust to the exact choice.
 */

#include <cstdio>

#include "harness.hh"

#include "sim/logging.hh"

using namespace macrosim;
using namespace macrosim::bench;

int
main(int argc, char **argv)
{
    rejectUnknownFlags(argc, argv);
    setQuiet(true);
    std::printf("Circuit-switched gateway ablation "
                "(uniform random, 64 B packets)\n\n");
    std::printf("%10s %14s %16s\n", "gateways",
                "zero-load (ns)", "sustained (%%)");

    for (const std::uint32_t gateways : {1u, 2u, 4u, 8u, 16u}) {
        // Zero-load latency at 0.2% offered.
        double zero_load = 0.0;
        {
            Simulator sim(3);
            CircuitSwitchedTorus net(sim, simulatedConfig(),
                                     gateways);
            InjectorConfig cfg;
            cfg.load = 0.002;
            cfg.warmup = 500 * tickNs;
            cfg.window = 2000 * tickNs;
            cfg.seed = 3;
            zero_load = runOpenLoop(sim, net, cfg).meanLatencyNs;
        }
        // Sustained bandwidth at deep overload (8% offered).
        double sustained = 0.0;
        {
            Simulator sim(3);
            CircuitSwitchedTorus net(sim, simulatedConfig(),
                                     gateways);
            InjectorConfig cfg;
            cfg.load = 0.08;
            cfg.warmup = 500 * tickNs;
            cfg.window = 2000 * tickNs;
            cfg.seed = 3;
            sustained = runOpenLoop(sim, net, cfg).deliveredPct;
        }
        std::printf("%10u %14.1f %15.2f%%\n", gateways, zero_load,
                    sustained);
        std::fflush(stdout);
    }
    return 0;
}
