#include "sim/lp.hh"

#include <algorithm>
#include <chrono>

#include "sim/pdes_scheduler.hh"

namespace macrosim
{

LogicalProcess::LogicalProcess(PdesScheduler &sched, std::uint32_t id,
                               std::uint64_t seed)
    : sched_(sched), id_(id), sim_(seed)
{
}

std::uint64_t
LogicalProcess::drainInboxes()
{
    std::uint64_t drained = 0;
    const std::uint32_t n = sched_.lpCount();
    PdesEvent ev;
    for (std::uint32_t j = 0; j < n; ++j) {
        if (j == id_)
            continue;
        SpscChannel<PdesEvent> &ch = sched_.channel(j, id_);
        while (ch.pop(ev)) {
            // Scheduling is not execution: the event enters the local
            // queue unconditionally (so inboxes are always drained
            // dry and a sender can never be wedged on a full ring),
            // but it only *runs* once the horizon passes its tick.
            schedulePdesEvent(sim_.events(), ev, "pdes.cross");
            ++drained;
        }
    }
    return drained;
}

void
LogicalProcess::publishEot(Tick next, Tick eit)
{
    // Only an advance is published: that guards the stale-eit case
    // where another LP's EOT was read early, so EOTs never move back.
    const Tick base = std::min(next, eit);
    const Tick look = sched_.lookahead();
    const Tick eot = base > maxTick - look ? maxTick : base + look;
    const Tick prevEot = eot_.load(std::memory_order_relaxed);
    if (eot <= prevEot)
        return;
    // Advance histogram: an advance is event-driven when a pending
    // local event (not the granted horizon) sets the base, i.e. real
    // model progress; otherwise the EOT merely ratcheted along
    // behind the other LPs' horizons.
    if (next < eit)
        ++metrics_.eotEventAdvances;
    else
        ++metrics_.eotRatchetAdvances;
    if (eot != maxTick)
        metrics_.eotAdvanceTicks += eot - prevEot;
    eot_.store(eot, std::memory_order_seq_cst);
}

void
LogicalProcess::publishState(bool idle, bool worked)
{
    if (!worked && idle == lastIdle_)
        return;
    lastIdle_ = idle;
    ++stepVersion_;
    state_.store((stepVersion_ << 1) | (idle ? 1u : 0u),
                 std::memory_order_seq_cst);
}

bool
LogicalProcess::step(Tick limit)
{
    using WallClock = std::chrono::steady_clock;
    const bool timing = sched_.metricsTiming();
    WallClock::time_point t0{};
    if (timing)
        t0 = WallClock::now();
    ++metrics_.rounds;

    // 1. Horizon: the earliest timestamp any other LP could still
    // send. Reading the EOTs *before* draining is load-bearing: a
    // message that is not in an inbox by the time we drain below was
    // sent after these reads, under an EOT at least this large.
    Tick eit = maxTick;
    const std::uint32_t n = sched_.lpCount();
    for (std::uint32_t j = 0; j < n; ++j) {
        if (j != id_)
            eit = std::min(eit, sched_.eotOf(j));
    }
    // Lookahead utilization numerator: how much horizon the other
    // LPs granted us this round. The endgame value maxTick (all
    // peers done) is excluded — it is "unbounded", not granted ticks.
    if (eit != maxTick && eit > lastEit_) {
        metrics_.grantedTicks += eit - lastEit_;
        lastEit_ = eit;
    }

    // 2. Fold every inbound message into the local queue.
    const std::uint64_t drained = drainInboxes();
    metrics_.drained += drained;
    WallClock::time_point t1{};
    if (timing)
        t1 = WallClock::now();

    // 3. Execute the granted window [now, min(eit - 1, limit)] in
    // chunks of at most one lookahead, republishing the EOT before
    // the first chunk and after each one. Every message this LP sends
    // from here on is caused by a local event at or after
    // min(next, eit) — later drains only bring ticks >= eit — so it
    // carries a timestamp >= min(next, eit) + lookahead: the bound
    // holds at any point inside the window, not only at its end, and
    // publishing it early lets the other LPs start their next window
    // while this one is still running. Chunk boundaries fall between
    // ticks, so the execution order is the single runUntil's.
    std::uint64_t ran = 0;
    const Tick nowBefore = sim_.now();
    const Tick look = sched_.lookahead();
    Tick next = sim_.events().peekNextTick();
    publishEot(next, eit);
    const Tick end = eit > 0 ? std::min(eit - 1, limit) : 0;
    while (eit > 0 && next <= end) {
        const Tick chunkEnd =
            look == 0 || end - next < look ? end : next + look - 1;
        const std::uint64_t chunk = sim_.events().runUntil(chunkEnd);
        ran += chunk;
        const Tick published = eot_.load(std::memory_order_relaxed);
        if (chunk > 0 && published != maxTick) {
            const Tick base = published - std::min(published, look);
            if (sim_.now() > base) {
                metrics_.maxUnpublishedTicks = std::max<std::uint64_t>(
                    metrics_.maxUnpublishedTicks, sim_.now() - base);
            }
        }
        next = sim_.events().peekNextTick();
        publishEot(next, eit);
    }
    executed_ += ran;
    if (ran > 0) {
        metrics_.consumedTicks += sim_.now() - nowBefore;
        if (ran > metrics_.maxRoundExecuted)
            metrics_.maxRoundExecuted = ran;
    }

    // 4. Publish idle state, then release the drained messages'
    // in-flight counts. The order matters for termination: a checker
    // that sees in-flight == 0 is guaranteed to also see this step's
    // version bump (and re-check the idle bit we just computed).
    // Idle = nothing pending at or below the limit. An empty queue
    // reports next == maxTick, which must count as idle even when the
    // limit itself is maxTick (the default run-to-completion case).
    publishState(/*idle=*/next > limit || next == maxTick,
                 /*worked=*/drained > 0 || ran > 0);
    if (drained > 0)
        sched_.inFlight_.fetch_sub(drained, std::memory_order_seq_cst);

    const bool progress = drained > 0 || ran > 0;
    if (progress)
        ++metrics_.progressRounds;
    else
        ++metrics_.blockedRounds;
    if (timing) {
        const WallClock::time_point t2 = WallClock::now();
        const auto ns = [](WallClock::duration d) {
            return std::chrono::duration<double, std::nano>(d).count();
        };
        // A round that made no progress is a blocked-on-EIT spin; its
        // whole cost is blocked time. Progress rounds split at the
        // end of the inbox drain (EIT reads + drain vs execute +
        // publish).
        if (progress) {
            metrics_.drainWallNs += ns(t1 - t0);
            metrics_.execWallNs += ns(t2 - t1);
        } else {
            metrics_.blockedWallNs += ns(t2 - t0);
        }
    }
    return progress;
}

} // namespace macrosim
