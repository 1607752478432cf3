#include "sim/pdes_scheduler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <utility>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/telemetry/pdes_trace.hh"
#include "sim/thread_pool.hh"

namespace macrosim
{

namespace
{

/** Drain-side callback capture: must fit InlineCallback's buffer. */
struct CrossApply
{
    void (*apply)(void *, const void *);
    void *target;
    unsigned char payload[pdesMaxPayload];
};

static_assert(sizeof(CrossApply) <= EventQueue::Callback::inlineCapacity,
              "cross-LP apply capture must stay inline");

} // namespace

void
schedulePdesEvent(EventQueue &q, const PdesEvent &ev, const char *tag)
{
    CrossApply cap;
    cap.apply = ev.apply;
    cap.target = ev.target;
    std::memcpy(cap.payload, ev.payload, pdesMaxPayload);
    q.scheduleKeyed(ev.when, ev.key,
                    [cap] { cap.apply(cap.target, cap.payload); }, tag);
}

PdesScheduler::PdesScheduler(std::uint32_t lp_count,
                             std::size_t threads, std::uint64_t seed)
    : threads_(threads == 0 ? lp_count : threads)
{
    if (lp_count == 0)
        panic("PdesScheduler: lp_count must be >= 1");
    if (threads_ == 0)
        threads_ = 1;
    lps_.reserve(lp_count);
    for (std::uint32_t i = 0; i < lp_count; ++i) {
        lps_.push_back(std::make_unique<LogicalProcess>(
            *this, i, mix64(hashCombine(seed, i))));
    }
    channels_.resize(static_cast<std::size_t>(lp_count) * lp_count);
    for (std::uint32_t s = 0; s < lp_count; ++s) {
        for (std::uint32_t d = 0; d < lp_count; ++d) {
            if (s != d) {
                channels_[static_cast<std::size_t>(s) * lp_count + d] =
                    std::make_unique<SpscChannel<PdesEvent>>(4096);
            }
        }
    }
    targets_.assign(lp_count, nullptr);
    registerStats();
}

void
PdesScheduler::registerStats()
{
    const std::uint32_t n = lpCount();
    StatScope pdes(telemetry_, "pdes");
    pdes.add("lp_count", [n] { return static_cast<double>(n); });
    pdes.add("lookahead", [this] {
        return static_cast<double>(lookahead_);
    });
    pdes.add("cross_posts", [this] {
        return static_cast<double>(crossPosts());
    });
    pdes.add("spills", [this] {
        return static_cast<double>(spills());
    });
    const auto u64 = [](const std::uint64_t &v) {
        return [p = &v] { return static_cast<double>(*p); };
    };
    for (std::uint32_t i = 0; i < n; ++i) {
        const LogicalProcess *lp = lps_[i].get();
        const LpMetrics &m = lp->metrics();
        StatScope s = pdes.scope("lp" + std::to_string(i));
        s.add("executed",
              [lp] { return static_cast<double>(lp->executed()); });
        s.add("rounds", u64(m.rounds));
        s.add("progress_rounds", u64(m.progressRounds));
        s.add("blocked_rounds", u64(m.blockedRounds));
        s.add("drained", u64(m.drained));
        s.add("max_round_events", u64(m.maxRoundExecuted));
        s.add("eot_event_advances", u64(m.eotEventAdvances));
        s.add("eot_ratchet_advances", u64(m.eotRatchetAdvances));
        s.add("eot_advance_ticks", u64(m.eotAdvanceTicks));
        s.add("max_unpublished_ticks", u64(m.maxUnpublishedTicks));
        s.add("granted_ticks", u64(m.grantedTicks));
        s.add("consumed_ticks", u64(m.consumedTicks));
        s.add("drain_wall_ns", [&m] { return m.drainWallNs; });
        s.add("exec_wall_ns", [&m] { return m.execWallNs; });
        s.add("blocked_wall_ns", [&m] { return m.blockedWallNs; });
        s.add("spin_wall_ns", [&m] { return m.spinWallNs; });
    }
    for (std::uint32_t src = 0; src < n; ++src) {
        for (std::uint32_t dst = 0; dst < n; ++dst) {
            if (src == dst)
                continue;
            const SpscChannel<PdesEvent> *ch =
                channels_[static_cast<std::size_t>(src) * n + dst]
                    .get();
            StatScope s = pdes.scope("ch" + std::to_string(src) + "_"
                                     + std::to_string(dst));
            s.add("posts",
                  [ch] { return static_cast<double>(ch->posts()); });
            s.add("spills",
                  [ch] { return static_cast<double>(ch->spills()); });
            s.add("peak_depth", [ch] {
                return static_cast<double>(ch->peakDepth());
            });
        }
    }
}

void
PdesScheduler::setLookahead(Tick l)
{
    if (l == 0)
        panic("PdesScheduler::setLookahead: lookahead must be > 0 "
              "(liveness of the horizon protocol depends on it)");
    lookahead_ = l;
}

void
PdesScheduler::setSitePartition(std::vector<std::uint32_t> lp_of_site)
{
    for (std::uint32_t g : lp_of_site) {
        if (g >= lpCount())
            panic("PdesScheduler::setSitePartition: group ", g,
                  " out of range (", lpCount(), " LPs)");
    }
    siteLp_ = std::move(lp_of_site);
}

std::vector<std::uint32_t>
PdesScheduler::blockPartition(std::uint32_t sites, std::uint32_t lps)
{
    if (lps == 0)
        lps = 1;
    if (lps > sites && sites > 0)
        lps = sites;
    std::vector<std::uint32_t> map(sites);
    const std::uint32_t base = sites / lps;
    const std::uint32_t rem = sites % lps;
    std::uint32_t site = 0;
    for (std::uint32_t g = 0; g < lps; ++g) {
        const std::uint32_t count = base + (g < rem ? 1u : 0u);
        for (std::uint32_t k = 0; k < count; ++k)
            map[site++] = g;
    }
    return map;
}

void
PdesScheduler::setTarget(std::uint32_t lp, void *target)
{
    targets_.at(lp) = target;
}

void
PdesScheduler::post(std::uint32_t src_lp, std::uint32_t dst_lp,
                    const PdesEvent &ev)
{
    if (src_lp == dst_lp || dst_lp >= lpCount())
        panic("PdesScheduler::post: bad LP pair ", src_lp, " -> ",
              dst_lp);
    if (!ev.apply)
        panic("PdesScheduler::post: event without apply function");
    const Tick src_now = lps_[src_lp]->sim().now();
    if (ev.when < src_now + lookahead_) {
        panic("PdesScheduler::post: event at tick ", ev.when,
              " violates the lookahead promise (sender now ", src_now,
              " + lookahead ", lookahead_, "); the topology's "
              "pdesLookahead() is not a true lower bound");
    }
    // The tracer records into the *source* LP's shard, so this call
    // shares post()'s single-producer contract.
    if (tracer_ != nullptr)
        tracer_->recordPost(src_lp, dst_lp, src_now, ev);
    // Count the message in flight *before* it becomes visible, so the
    // termination check can never observe the channel-resident message
    // as neither in flight nor scheduled.
    inFlight_.fetch_add(1, std::memory_order_seq_cst);
    channel(src_lp, dst_lp).push(ev);
}

bool
PdesScheduler::tryFinish(std::vector<std::uint64_t> &words)
{
    // Snapshot every LP's versioned idle word, require nothing in
    // flight, then require the snapshot unchanged. LPs bump their
    // version before releasing in-flight counts (LogicalProcess::
    // step), so "in flight == 0" implies the words already reflect
    // whichever step drained the last message.
    for (std::size_t i = 0; i < lps_.size(); ++i) {
        words[i] = lps_[i]->stateWord();
        if ((words[i] & 1) == 0)
            return false;
    }
    if (inFlight_.load(std::memory_order_seq_cst) != 0)
        return false;
    for (std::size_t i = 0; i < lps_.size(); ++i) {
        if (lps_[i]->stateWord() != words[i])
            return false;
    }
    done_.store(true, std::memory_order_seq_cst);
    return true;
}

void
PdesScheduler::workerLoop(std::size_t worker, Tick limit)
{
    using WallClock = std::chrono::steady_clock;
    const std::size_t stride = activeWorkers_;
    const std::uint32_t n = lpCount();
    const std::uint32_t first = static_cast<std::uint32_t>(worker);
    // This worker's tryFinish() snapshot, allocated once: idle
    // iterations are frequent, and workers call tryFinish()
    // concurrently, so the buffer cannot be a shared member.
    std::vector<std::uint64_t> words(n);
    while (!done_.load(std::memory_order_seq_cst)) {
        bool progress = false;
        for (std::uint32_t i = first; i < n; i += stride)
            progress = lps_[i]->step(limit) || progress;
        if (progress)
            continue;
        WallClock::time_point t0{};
        if (metricsTiming_)
            t0 = WallClock::now();
        const bool finished = tryFinish(words);
        if (!finished)
            std::this_thread::yield();
        if (metricsTiming_) {
            const double ns = std::chrono::duration<double, std::nano>(
                                  WallClock::now() - t0)
                                  .count();
            for (std::uint32_t i = first; i < n; i += stride)
                lps_[i]->addSpinWallNs(ns);
        }
        if (finished)
            break;
    }
}

std::uint64_t
PdesScheduler::run(Tick limit)
{
    if (lpCount() > 1 && lookahead_ == 0)
        panic("PdesScheduler::run: setLookahead() first (multi-LP "
              "runs need a cross-LP latency lower bound)");
    std::uint64_t before = 0;
    for (const auto &lp : lps_)
        before += lp->executed();
    done_.store(false, std::memory_order_seq_cst);
    activeWorkers_ =
        std::min<std::size_t>(std::max<std::size_t>(threads_, 1),
                              lps_.size());
    if (activeWorkers_ <= 1) {
        // One worker: run the protocol inline. Same code path and
        // same results as the threaded run — determinism tests pin
        // thread counts {1, N} against each other.
        workerLoop(0, limit);
    } else {
        ThreadPool pool(activeWorkers_);
        std::vector<std::future<void>> joins;
        joins.reserve(activeWorkers_);
        for (std::size_t w = 0; w < activeWorkers_; ++w) {
            joins.push_back(pool.submit(
                [this, w, limit] { workerLoop(w, limit); }));
        }
        for (auto &j : joins)
            j.get();
    }
    std::uint64_t after = 0;
    for (const auto &lp : lps_)
        after += lp->executed();
    return after - before;
}

std::uint64_t
PdesScheduler::crossPosts() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_) {
        if (ch)
            total += ch->posts();
    }
    return total;
}

std::uint64_t
PdesScheduler::spills() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_) {
        if (ch)
            total += ch->spills();
    }
    return total;
}

void
PdesScheduler::setTracer(PdesTracer *tracer)
{
    if (tracer != nullptr && tracer_ != nullptr && tracer != tracer_)
        panic("PdesScheduler::setTracer: a tracer is already attached");
    tracer_ = tracer;
}

PdesLoadReport
PdesScheduler::loadReport() const
{
    PdesLoadReport r;
    const std::uint32_t n = lpCount();
    r.lookahead = lookahead_;
    r.timed = metricsTiming_;
    r.crossPosts = crossPosts();
    r.spills = spills();
    std::vector<std::uint64_t> sitesPer(n, 0);
    for (std::uint32_t g : siteLp_)
        ++sitesPer[g];
    r.lps.reserve(n);
    r.minExecuted = maxTick;
    for (std::uint32_t i = 0; i < n; ++i) {
        const LogicalProcess &lp = *lps_[i];
        const LpMetrics &m = lp.metrics();
        PdesLpLoad row;
        row.lp = i;
        row.sites = sitesPer[i];
        row.executed = lp.executed();
        row.rounds = m.rounds;
        row.progressRounds = m.progressRounds;
        row.blockedRounds = m.blockedRounds;
        row.drained = m.drained;
        row.maxRoundExecuted = m.maxRoundExecuted;
        row.eotEventAdvances = m.eotEventAdvances;
        row.eotRatchetAdvances = m.eotRatchetAdvances;
        row.maxUnpublishedTicks = m.maxUnpublishedTicks;
        row.grantedTicks = m.grantedTicks;
        row.consumedTicks = m.consumedTicks;
        row.drainWallNs = m.drainWallNs;
        row.execWallNs = m.execWallNs;
        row.blockedWallNs = m.blockedWallNs;
        row.spinWallNs = m.spinWallNs;
        for (std::uint32_t d = 0; d < n; ++d) {
            if (d == i)
                continue;
            const SpscChannel<PdesEvent> &ch =
                *channels_[static_cast<std::size_t>(i) * n + d];
            row.posts += ch.posts();
            row.spills += ch.spills();
            row.peakDepth = std::max<std::uint64_t>(row.peakDepth,
                                                    ch.peakDepth());
        }
        r.totalExecuted += row.executed;
        r.minExecuted = std::min(r.minExecuted, row.executed);
        r.maxExecuted = std::max(r.maxExecuted, row.executed);
        r.drainWallNs += row.drainWallNs;
        r.execWallNs += row.execWallNs;
        r.blockedWallNs += row.blockedWallNs;
        r.lps.push_back(row);
    }
    r.meanExecuted =
        static_cast<double>(r.totalExecuted) / std::max(1u, n);
    r.eventImbalance = r.meanExecuted > 0.0
        ? static_cast<double>(r.maxExecuted) / r.meanExecuted
        : 0.0;
    // Critical LP: most busy wall time when timed (ties: most events,
    // then lowest id); most events otherwise.
    for (std::uint32_t i = 1; i < n; ++i) {
        const PdesLpLoad &a = r.lps[i];
        const PdesLpLoad &b = r.lps[r.criticalLp];
        const bool busier = r.timed
            ? (a.busyWallNs() > b.busyWallNs()
               || (a.busyWallNs() == b.busyWallNs()
                   && a.executed > b.executed))
            : a.executed > b.executed;
        if (busier)
            r.criticalLp = i;
    }
    const double total =
        r.drainWallNs + r.execWallNs + r.blockedWallNs;
    r.blockedFraction = total > 0.0 ? r.blockedWallNs / total : 0.0;
    return r;
}

void
PdesLoadReport::print(std::ostream &os) const
{
    using Ull = unsigned long long;
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "[pdes] %u LPs  lookahead=%llu ticks  events=%llu  "
        "cross_posts=%llu (spills=%llu)  imbalance=%.3f  "
        "critical=lp%u  blocked=%.1f%%%s\n",
        static_cast<unsigned>(lps.size()), static_cast<Ull>(lookahead),
        static_cast<Ull>(totalExecuted), static_cast<Ull>(crossPosts),
        static_cast<Ull>(spills), eventImbalance, criticalLp,
        100.0 * blockedFraction,
        timed ? "" : "  (untimed: wall columns are zero)");
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "  %3s %6s %10s %9s %8s %7s %7s %18s %17s %10s %10s"
                  " %11s %9s\n",
                  "lp", "sites", "events", "drained", "posts",
                  "spills", "peak_q", "rounds(prog/blk)",
                  "eot(evt/ratchet)", "drain_ms", "exec_ms",
                  "blocked_ms", "spin_ms");
    os << buf;
    for (const PdesLpLoad &row : lps) {
        char rounds[48];
        std::snprintf(rounds, sizeof(rounds), "%llu(%llu/%llu)",
                      static_cast<Ull>(row.rounds),
                      static_cast<Ull>(row.progressRounds),
                      static_cast<Ull>(row.blockedRounds));
        char eot[40];
        std::snprintf(eot, sizeof(eot), "%llu/%llu",
                      static_cast<Ull>(row.eotEventAdvances),
                      static_cast<Ull>(row.eotRatchetAdvances));
        std::snprintf(
            buf, sizeof(buf),
            "  %3u %6llu %10llu %9llu %8llu %7llu %7llu %18s %17s "
            "%10.3f %10.3f %11.3f %9.3f\n",
            row.lp, static_cast<Ull>(row.sites),
            static_cast<Ull>(row.executed),
            static_cast<Ull>(row.drained), static_cast<Ull>(row.posts),
            static_cast<Ull>(row.spills),
            static_cast<Ull>(row.peakDepth), rounds, eot,
            row.drainWallNs / 1e6, row.execWallNs / 1e6,
            row.blockedWallNs / 1e6, row.spinWallNs / 1e6);
        os << buf;
    }
}

} // namespace macrosim
