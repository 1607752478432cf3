/**
 * @file
 * Token-ring-arbitrated optical crossbar (paper section 4.4; Corona
 * adapted to the macrochip).
 *
 * Every destination site owns a 128-wavelength / 320 GB/s waveguide
 * bundle that snakes past all 64 sites; any site may modulate onto
 * the bundle, so access is arbitrated by a per-destination optical
 * token circulating the same serpentine ring. A site diverts the
 * token, holds it while transmitting (one cycle moves a 64-byte
 * packet at 320 B/ns), and re-injects it. Scaled to macrochip
 * dimensions, a full token round trip is 80 cycles (16 ns), which is
 * the latency a sender pays between back-to-back packets to the same
 * destination — the effect that caps one-to-one patterns below 1% of
 * peak (section 6.1).
 *
 * Corona's 64-way WDM would suffer 0.1 dB off-resonance modulator
 * loss x 4096 rings; the macrochip adaptation reduces WDM to 2 and
 * quadruples waveguides, limiting ring loss to 12.8 dB (19x laser
 * power, Table 5).
 */

#ifndef MACROSIM_NET_TOKEN_RING_HH
#define MACROSIM_NET_TOKEN_RING_HH

#include <cstdint>
#include <vector>

#include "net/channel.hh"
#include "net/network.hh"

namespace macrosim
{

class TokenRingCrossbar : public Network
{
  public:
    /** WDM factor after the macrochip adaptation of section 4.4. */
    static constexpr std::uint32_t wdmFactor = 2;

    TokenRingCrossbar(Simulator &sim, const MacrochipConfig &config);

    std::string_view name() const override { return "Token Ring"; }
    std::string_view statName() const override { return "tring"; }

    ComponentCounts componentCounts() const override;
    std::vector<LaserPowerSpec> opticalPower() const override;

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) override;

    /** Grants issued (token captures) across all destinations. */
    std::uint64_t grantsIssued() const { return grants_; }

    /** Physical waveguides before area-equivalent accounting. */
    std::uint64_t physicalWaveguides() const;

    /** Ring position (serpentine order) of a site. */
    std::uint32_t ringPosition(SiteId s) const { return ringPos_[s]; }

    /** Token travel time for one full loop (80 cycles at 5 GHz). */
    Tick tokenRoundTrip() const { return hop_ * ringSize(); }

    std::uint32_t ringSize() const { return config().siteCount(); }

    /**
     * The fault granularity is the per-destination waveguide bundle,
     * keyed (d, d): any sender modulates the same bundle, so a fault
     * degrades every path toward that destination at once.
     */
    std::vector<std::pair<SiteId, SiteId>> faultableLinks() const override;

    bool applyLinkHealth(SiteId a, SiteId b,
                         const LinkHealth &health) override;

    /** The token's position is one global resource every injection
     *  contends for — the topology cannot split across LPs. */
    PdesPartition
    pdesPartition() const override
    {
        return PdesPartition::Colocated;
    }

  protected:
    void route(Message msg) override;

  private:
    /** Forward ring distance, in hops, from index @p from to @p to;
     *  a full loop (ringSize) when from == to. */
    std::uint32_t forwardHops(std::uint32_t from, std::uint32_t to) const;

    /** First time destination @p dst's token passes ring index
     *  @p pos at or after @p earliest. */
    Tick tokenArrival(SiteId dst, std::uint32_t pos,
                      Tick earliest) const;

    /** (Re)schedule the next grant for destination @p dst. */
    void armGrant(SiteId dst);

    /** Fire the grant chosen by armGrant(). */
    void grant(SiteId dst, std::size_t waiter_idx);

    /** Claim a waiter-pool slot (ctz over the free-mask words),
     *  growing the pool a word at a time. */
    std::uint32_t allocWaiter();
    void freeWaiter(std::uint32_t slot);

    /** Bit helpers over the per-destination flag words. */
    static bool
    testBit(const std::vector<std::uint64_t> &words, std::uint32_t i)
    {
        return (words[i >> 6] >> (i & 63)) & 1u;
    }
    static void
    setBit(std::vector<std::uint64_t> &words, std::uint32_t i, bool on)
    {
        if (on)
            words[i >> 6] |= std::uint64_t(1) << (i & 63);
        else
            words[i >> 6] &= ~(std::uint64_t(1) << (i & 63));
    }

    Tick hop_;              ///< Token/data propagation per ring hop.
    std::uint32_t bundleLambdas_;
    std::uint64_t grants_ = 0;
    std::vector<std::uint32_t> ringPos_;  ///< site -> ring index

    /** Per-destination arbiter state as parallel arrays (index =
     *  destination site). The grant scan and the summary stats read
     *  one field across many destinations, so structure-of-arrays
     *  keeps those passes dense. */
    std::vector<std::uint32_t> arbTokenPos_; ///< Ring idx, last holder.
    std::vector<Tick> arbTokenFree_;    ///< When the token departed.
    std::vector<Tick> arbBusyTicks_;    ///< Cumulative token hold.
    std::vector<EventId> arbGrantEvent_;
    /** Masked bundle width; 0 means the full engineered width. */
    std::vector<std::uint32_t> arbMasked_;

    /** Dead-bundle and has-waiters flags packed into 64-bit words
     *  (bit = destination): route()/grant() test single bits, and
     *  summary stats reduce whole words instead of branching per
     *  destination. */
    std::vector<std::uint64_t> downMask_;
    std::vector<std::uint64_t> waitingMask_;

    /** Waiter pool as parallel arrays; free slots are set bits in
     *  wFree_, claimed with ctz. The per-destination queues hold pool
     *  indices in arrival order, so the grant scan walks flat
     *  ready/ring-position lanes while tie-breaking stays exactly
     *  the old deque's insertion order. */
    std::vector<Message> wMsg_;
    std::vector<Tick> wReady_;
    std::vector<std::uint32_t> wSrcPos_;
    std::vector<std::uint64_t> wFree_;
    std::vector<std::vector<std::uint32_t>> arbWaiting_;
};

} // namespace macrosim

#endif // MACROSIM_NET_TOKEN_RING_HH
