#include "net/token_ring.hh"

#include "sim/logging.hh"

namespace macrosim
{

namespace
{

/** Index of the lowest set bit. @pre word != 0. */
inline unsigned
lowestSetBit(std::uint64_t word)
{
    return static_cast<unsigned>(__builtin_ctzll(word));
}

} // namespace

TokenRingCrossbar::TokenRingCrossbar(Simulator &sim,
                                     const MacrochipConfig &config)
    : Network(sim, config),
      hop_(geometry().ringHopDelay()),
      bundleLambdas_(config.rxPerSite),
      ringPos_(config.siteCount())
{
    const std::size_t sites = config.siteCount();
    arbTokenPos_.assign(sites, 0);
    arbTokenFree_.assign(sites, 0);
    arbBusyTicks_.assign(sites, 0);
    arbGrantEvent_.assign(sites, invalidEventId);
    arbMasked_.assign(sites, 0);
    downMask_.assign((sites + 63) / 64, 0);
    waitingMask_.assign((sites + 63) / 64, 0);
    arbWaiting_.resize(sites);

    // Serpentine (boustrophedon) ring order so consecutive ring
    // positions are physically adjacent sites.
    for (SiteId s = 0; s < config.siteCount(); ++s) {
        const SiteCoord c = geometry().coordOf(s);
        const std::uint32_t col_in_row =
            (c.row % 2 == 0) ? c.col : (geometry().cols() - 1 - c.col);
        ringPos_[s] = c.row * geometry().cols() + col_in_row;
    }
    primeEnergyModel();
    registerTelemetry();
}

void
TokenRingCrossbar::registerStats(StatRegistry &registry,
                                 const std::string &prefix)
{
    Network::registerStats(registry, prefix);
    registry.add(prefix + ".grants", [this] {
        return static_cast<double>(grants_);
    });
    // Whole-word popcounts over the flag masks: how many bundles are
    // dead, and how many have senders queued, right now.
    registry.add(prefix + ".down_channels", [this] {
        std::uint64_t n = 0;
        for (const std::uint64_t w : downMask_)
            n += static_cast<std::uint64_t>(__builtin_popcountll(w));
        return static_cast<double>(n);
    });
    registry.add(prefix + ".waiting_channels", [this] {
        std::uint64_t n = 0;
        for (const std::uint64_t w : waitingMask_)
            n += static_cast<std::uint64_t>(__builtin_popcountll(w));
        return static_cast<double>(n);
    });
    // One bundle (== channel) per destination site: report each
    // bundle's occupancy (token hold time over wall time) so hot
    // destinations stand out in snapshots.
    for (SiteId d = 0; d < config().siteCount(); ++d) {
        registry.add(
            prefix + ".ch" + std::to_string(d) + ".occupancy",
            [this, d] {
                const Tick t = now();
                return t == 0
                    ? 0.0
                    : static_cast<double>(arbBusyTicks_[d])
                        / static_cast<double>(t);
            });
    }
}

std::uint32_t
TokenRingCrossbar::forwardHops(std::uint32_t from, std::uint32_t to)
    const
{
    const std::uint32_t n = ringSize();
    return ((to + n - from - 1) % n) + 1;
}

Tick
TokenRingCrossbar::tokenArrival(SiteId dst, std::uint32_t pos,
                                Tick earliest) const
{
    const Tick loop = tokenRoundTrip();
    Tick arrival = arbTokenFree_[dst]
        + static_cast<Tick>(forwardHops(arbTokenPos_[dst], pos)) * hop_;
    if (arrival < earliest) {
        const Tick behind = earliest - arrival;
        const Tick loops = (behind + loop - 1) / loop;
        arrival += loops * loop;
    }
    return arrival;
}

std::vector<std::pair<SiteId, SiteId>>
TokenRingCrossbar::faultableLinks() const
{
    std::vector<std::pair<SiteId, SiteId>> links;
    links.reserve(config().siteCount());
    for (SiteId d = 0; d < config().siteCount(); ++d)
        links.emplace_back(d, d);
    return links;
}

bool
TokenRingCrossbar::applyLinkHealth(SiteId a, SiteId b,
                                   const LinkHealth &health)
{
    if (a != b || a >= config().siteCount())
        return false;
    setBit(downMask_, a, health.down);
    if (health.bandwidthFraction >= 1.0) {
        arbMasked_[a] = 0;
    } else {
        const auto masked = static_cast<std::uint32_t>(
            static_cast<double>(bundleLambdas_)
            * health.bandwidthFraction + 0.5);
        arbMasked_[a] = masked < 1 ? 1 : masked;
    }
    return true;
}

std::uint32_t
TokenRingCrossbar::allocWaiter()
{
    for (std::size_t w = 0; w < wFree_.size(); ++w) {
        if (wFree_[w] != 0) {
            const unsigned bit = lowestSetBit(wFree_[w]);
            wFree_[w] &= ~(std::uint64_t(1) << bit);
            return static_cast<std::uint32_t>(w * 64 + bit);
        }
    }
    // Grow the pool one 64-slot word at a time; claim the word's
    // first slot.
    const std::uint32_t base =
        static_cast<std::uint32_t>(wFree_.size() * 64);
    wFree_.push_back(~std::uint64_t(1));
    wMsg_.resize(wMsg_.size() + 64);
    wReady_.resize(wReady_.size() + 64, 0);
    wSrcPos_.resize(wSrcPos_.size() + 64, 0);
    return base;
}

void
TokenRingCrossbar::freeWaiter(std::uint32_t slot)
{
    wFree_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
}

void
TokenRingCrossbar::route(Message msg)
{
    if (testBit(downMask_, msg.dst)) {
        dropPacket(std::move(msg), "destination bundle down");
        return;
    }
    const SiteId dst = msg.dst;
    const std::uint32_t slot = allocWaiter();
    wSrcPos_[slot] = ringPos_[msg.src];
    wReady_[slot] = now();
    wMsg_[slot] = std::move(msg);
    arbWaiting_[dst].push_back(slot);
    setBit(waitingMask_, dst, true);
    armGrant(dst);
}

void
TokenRingCrossbar::armGrant(SiteId dst)
{
    const std::vector<std::uint32_t> &queue = arbWaiting_[dst];
    if (queue.empty())
        return;
    // Recompute the earliest token passage among all waiters; a newly
    // arrived waiter may be reached by the token before the currently
    // scheduled one. The scan walks the pool's flat ready/ring-
    // position lanes in arrival order, so ties resolve exactly as the
    // old per-arbiter deque did.
    if (arbGrantEvent_[dst] != invalidEventId) {
        sim().events().cancel(arbGrantEvent_[dst]);
        arbGrantEvent_[dst] = invalidEventId;
    }
    Tick best = maxTick;
    std::uint32_t best_idx = 0;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(queue.size()); ++i) {
        const std::uint32_t slot = queue[i];
        const Tick arrival =
            tokenArrival(dst, wSrcPos_[slot], wReady_[slot]);
        if (arrival < best) {
            best = arrival;
            best_idx = i;
        }
    }
    arbGrantEvent_[dst] = sim().events().schedule(
        best, [this, dst, best_idx] { grant(dst, best_idx); },
        "net.tring.grant");
}

void
TokenRingCrossbar::grant(SiteId dst, std::size_t waiter_idx)
{
    std::vector<std::uint32_t> &queue = arbWaiting_[dst];
    arbGrantEvent_[dst] = invalidEventId;
    if (waiter_idx >= queue.size())
        panic("TokenRingCrossbar::grant: stale waiter index");
    const std::uint32_t slot = queue[waiter_idx];
    Message msg = std::move(wMsg_[slot]);
    queue.erase(queue.begin()
                + static_cast<std::ptrdiff_t>(waiter_idx));
    freeWaiter(slot);
    if (queue.empty())
        setBit(waitingMask_, dst, false);

    if (testBit(downMask_, dst)) {
        // The bundle failed while this waiter held a grant slot.
        dropPacket(std::move(msg), "destination bundle down");
        armGrant(dst);
        return;
    }

    // The sender holds the token while it streams the packet onto
    // the destination's bundle, then re-injects it at its own ring
    // position. Masked (degraded) wavelengths stretch the hold.
    const std::uint32_t src_pos = ringPos_[msg.src];
    const std::uint32_t width = arbMasked_[dst]
        ? arbMasked_[dst] : bundleLambdas_;
    const Tick hold = OpticalChannel(width, 0)
        .serialization(msg.bytes);
    const Tick hold_end = now() + hold;
    arbTokenPos_[dst] = src_pos;
    arbTokenFree_[dst] = hold_end;
    arbBusyTicks_[dst] += hold;
    ++grants_;
    msg.serialization = hold;

    // Data flows forward along the serpentine bundle to the
    // destination site.
    const Tick data_prop =
        static_cast<Tick>(forwardHops(src_pos, ringPos_[dst])) * hop_;
    chargeOpticalHop(msg);
    deliverAt(std::move(msg), hold_end + data_prop);

    armGrant(dst);
}

std::uint64_t
TokenRingCrossbar::physicalWaveguides() const
{
    // 128-lambda bundles at WDM factor 2, with the loop's return
    // path, for each of the 64 destinations: 8192 physical
    // waveguides (section 6.4).
    const std::uint64_t per_bundle =
        (config().rxPerSite / wdmFactor) * 2;
    return static_cast<std::uint64_t>(config().siteCount())
        * per_bundle;
}

ComponentCounts
TokenRingCrossbar::componentCounts() const
{
    // Table 6: 512K Tx (every site modulates every destination's
    // bundle), 8192 Rx, 32K area-equivalent waveguides (each of the
    // 8192 physical waveguides is routed along every row of the
    // macrochip, quadrupling its area contribution), no switches.
    ComponentCounts c;
    const std::uint64_t sites = config().siteCount();
    c.transmitters = sites * sites * config().rxPerSite;
    c.receivers = sites * config().rxPerSite;
    c.waveguides = physicalWaveguides() * 4;
    return c;
}

std::vector<LaserPowerSpec>
TokenRingCrossbar::opticalPower() const
{
    // Every wavelength passes the off-resonance modulator rings of
    // all 64 sites (wdmFactor rings per site on its waveguide):
    // 128 x 0.1 dB = 12.8 dB of ring loss -> 19x laser power for the
    // 8192 circulating wavelengths (Table 5: 155 W).
    const std::uint64_t lambdas = static_cast<std::uint64_t>(
        config().siteCount()) * config().rxPerSite;
    const double ring_loss_db = 0.1
        * static_cast<double>(config().siteCount() * wdmFactor);
    return {LaserPowerSpec{"Token-Ring", lambdas,
                           lossFactorFromExtraLoss(
                               Decibel(ring_loss_db))}};
}

} // namespace macrosim
