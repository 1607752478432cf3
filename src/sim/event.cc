#include "sim/event.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <utility>

#include "sim/logging.hh"
#include "sim/telemetry/registry.hh"

namespace macrosim
{

namespace
{

/** EventId layout: generation in the high word; in the low word the
 *  slot index biased by one (so invalidEventId never decodes to a
 *  slot). */
constexpr std::uint32_t
idGen(EventId id)
{
    return static_cast<std::uint32_t>(id >> 32);
}

constexpr std::uint32_t
idLow(EventId id)
{
    return static_cast<std::uint32_t>(id & 0xffffffffu);
}

constexpr EventId
makeId(std::uint32_t gen, std::uint32_t low)
{
    return (static_cast<EventId>(gen) << 32) |
           static_cast<EventId>(low);
}

} // namespace

std::uint32_t
EventQueue::allocCell(Callback &&cb, const char *tag)
{
    std::uint32_t slot;
    if (!freeCells_.empty()) {
        slot = freeCells_.back();
        freeCells_.pop_back();
    } else {
        if (cells_ == std::numeric_limits<std::uint32_t>::max()) {
            panic("EventQueue: arena overflow (", cells_,
                  " concurrent events)");
        }
        slot = cells_++;
        if (slot % chunkCells == 0)
            chunks_.push_back(std::make_unique<Cell[]>(chunkCells));
    }
    Cell &c = cell(slot);
    c.cb = std::move(cb);
    c.tag = tag;
    return slot;
}

void
EventQueue::freeTombstone(const HeapRecord &rec)
{
    cell(rec.slot).tombstone = false;
    freeCells_.push_back(rec.slot);
}

void
EventQueue::pushRecord(const HeapRecord &rec)
{
    heap_.push_back(rec);
    siftUp(heap_.size() - 1);
    ++pending_;
    ++stats_.scheduled;
    if (pending_ > stats_.peakPending)
        stats_.peakPending = pending_;
}

EventId
EventQueue::schedule(Tick when, Callback cb, const char *tag)
{
    if (when < now_) {
        panic("EventQueue::schedule: tried to schedule at tick ", when,
              " which is before now (", now_, ")");
    }
    if (!cb)
        panic("EventQueue::schedule: empty callback");
    const std::uint32_t slot = allocCell(std::move(cb), tag);
    pushRecord(HeapRecord{when, nextSeq_++, slot});
    return makeId(cell(slot).gen, slot + 1);
}

EventId
EventQueue::scheduleKeyed(Tick when, std::uint64_t key, Callback cb,
                          const char *tag)
{
    if (when < now_) {
        panic("EventQueue::scheduleKeyed: tried to schedule at tick ",
              when, " which is before now (", now_, ")");
    }
    if (key >= keyedSeqBit)
        panic("EventQueue::scheduleKeyed: key ", key, " uses the "
              "keyed-record marker bit");
    if (!cb)
        panic("EventQueue::scheduleKeyed: empty callback");
    const std::uint32_t slot = allocCell(std::move(cb), tag);
    pushRecord(HeapRecord{when, keyedSeqBit | key, slot});
    return makeId(cell(slot).gen, slot + 1);
}

Tick
EventQueue::peekNextTick()
{
    skipCancelled();
    return heap_.empty() ? maxTick : heap_[0].when;
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t biased = idLow(id);
    if (biased == 0 || biased > cells_)
        return false;
    // Only a live cell matches its id's generation: running,
    // executed, cancelled and recycled cells have all bumped theirs,
    // and a free cell holds no callback.
    Cell &c = cell(biased - 1);
    if (!c.cb || c.gen != idGen(id))
        return false;
    ++c.gen;
    c.tombstone = true;
    c.cb = nullptr; // release captured state immediately
    --pending_;
    ++tombstones_;
    ++stats_.cancelled;
    maybeCompact();
    return true;
}

void
EventQueue::siftUp(std::size_t i)
{
    const HeapRecord rec = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / arity;
        if (!earlier(rec, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = rec;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    const HeapRecord rec = heap_[i];
    for (;;) {
        const std::size_t first = arity * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + arity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], rec))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = rec;
}

void
EventQueue::popRoot()
{
    const HeapRecord last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        siftDown(0);
    }
}

void
EventQueue::skipCancelled()
{
    while (!heap_.empty() && isTombstone(heap_[0])) {
        freeTombstone(heap_[0]);
        --tombstones_;
        popRoot();
    }
}

void
EventQueue::noteExecuted(Tick when)
{
    ++stats_.executed;
    if (burst_ > 0 && when == lastExecTick_) {
        ++burst_;
    } else {
        // Crossing a tick boundary completes the previous tick: its
        // event count is final, so report it before restarting the
        // burst. Same-tick events always execute consecutively (the
        // heap is tick-ordered), so burst_ *is* the per-tick count.
        if (burst_ > 0)
            completeTick();
        burst_ = 1;
    }
    lastExecTick_ = when;
    if (burst_ > stats_.maxSameTickBurst)
        stats_.maxSameTickBurst = burst_;
}

void
EventQueue::completeTick()
{
    if (tickObs_ != nullptr)
        tickObs_(tickCtx_, lastExecTick_, burst_);
    std::size_t b = 0;
    while (b + 1 < EventQueueStats::burstBuckets &&
           (burst_ >> (b + 1)) != 0)
        ++b;
    ++stats_.burstHist[b];
}

void
EventQueue::executeRoot()
{
    const HeapRecord root = heap_[0];
    Cell &c = cell(root.slot);
    ++c.gen; // a callback cancelling its own id gets false
    now_ = root.when;
    popRoot();
    --pending_;
    noteExecuted(root.when);
    // All bookkeeping is consistent before the callback runs, so it
    // may freely schedule() and cancel(). Its cell is on neither the
    // heap nor the free list until it returns, and chunks never move,
    // so the callback runs in place even if the arena grows under it.
    if (!profiling_) {
        c.cb();
    } else {
        using Clock = std::chrono::steady_clock;
        const Clock::time_point t0 = Clock::now();
        c.cb();
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        ProfileBucket &bucket = profileBucketFor(c.tag);
        ++bucket.count;
        bucket.wallNs += ns;
    }
    c.cb = nullptr;
    freeCells_.push_back(root.slot);
}

EventQueue::ProfileBucket &
EventQueue::profileBucketFor(const char *tag)
{
    // Fast path: this exact pointer has been seen before.
    auto it = profileIds_.find(tag);
    if (it != profileIds_.end())
        return profileTags_[it->second].bucket;
    // Slow path (once per distinct pointer): intern by content so
    // identical literals from different translation units — or a
    // caller's transient buffer matching an existing tag — share one
    // bucket, and the text is copied into storage the queue owns.
    const std::string_view name =
        tag ? std::string_view(tag) : std::string_view("(untagged)");
    std::uint32_t id = 0;
    for (; id < profileTags_.size(); ++id) {
        if (profileTags_[id].name == name)
            break;
    }
    if (id == profileTags_.size())
        profileTags_.push_back(InternedTag{std::string(name), {}});
    profileIds_.try_emplace(tag, id);
    return profileTags_[id].bucket;
}

void
EventQueue::maybeCompact()
{
    if (tombstones_ >= compactMinTombstones &&
        tombstones_ * 2 > heap_.size()) {
        compact();
    }
}

void
EventQueue::compact()
{
    std::size_t out = 0;
    for (const HeapRecord &rec : heap_) {
        if (isTombstone(rec))
            freeTombstone(rec);
        else
            heap_[out++] = rec;
    }
    heap_.resize(out);
    tombstones_ = 0;
    // Floyd heapify: (when, seq) is a strict total order, so the
    // rebuilt heap pops in exactly the original schedule order.
    if (out > 1) {
        for (std::size_t i = (out - 2) / arity + 1; i-- > 0;)
            siftDown(i);
    }
    ++stats_.compactions;
}

bool
EventQueue::runOne()
{
    skipCancelled();
    if (heap_.empty())
        return false;
    executeRoot();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t ran = 0;
    for (;;) {
        // Clear tombstones first: a cancelled record with
        // when <= limit must not let an event beyond the limit run
        // (nor drag now() past it).
        skipCancelled();
        if (heap_.empty() || heap_[0].when > limit)
            break;
        executeRoot();
        ++ran;
    }
    return ran;
}

void
EventQueue::flushTickObserver()
{
    if (burst_ > 0) {
        completeTick();
        // Forget the in-progress burst so a flush never
        // double-reports; the intended call site is end-of-run.
        burst_ = 0;
    }
}

void
EventQueue::regStats(StatRegistry &registry,
                     const std::string &prefix) const
{
    const EventQueueStats *s = &stats_;
    registry.add(prefix + ".scheduled", [s] {
        return static_cast<double>(s->scheduled);
    });
    registry.add(prefix + ".cancelled", [s] {
        return static_cast<double>(s->cancelled);
    });
    registry.add(prefix + ".executed", [s] {
        return static_cast<double>(s->executed);
    });
    registry.add(prefix + ".peak_pending", [s] {
        return static_cast<double>(s->peakPending);
    });
    registry.add(prefix + ".compactions", [s] {
        return static_cast<double>(s->compactions);
    });
    registry.add(prefix + ".max_same_tick_burst", [s] {
        return static_cast<double>(s->maxSameTickBurst);
    });
    // Bucket ge_N counts completed ticks whose burst size lies in
    // [N, 2N); the last bucket is unbounded above.
    for (std::size_t b = 0; b < EventQueueStats::burstBuckets; ++b) {
        registry.add(prefix + ".burst_hist.ge_" +
                         std::to_string(std::uint64_t(1) << b),
                     [s, b] {
                         return static_cast<double>(s->burstHist[b]);
                     });
    }
}

std::vector<EventProfileEntry>
EventQueue::profile() const
{
    std::vector<EventProfileEntry> rows;
    rows.reserve(profileTags_.size());
    for (const InternedTag &t : profileTags_)
        rows.push_back({t.name, t.bucket.count, t.bucket.wallNs});
    std::sort(rows.begin(), rows.end(),
              [](const EventProfileEntry &a,
                 const EventProfileEntry &b) {
                  if (a.wallNs != b.wallNs)
                      return a.wallNs > b.wallNs;
                  return a.tag < b.tag;
              });
    return rows;
}

void
EventQueue::dumpProfile(std::ostream &os) const
{
    const std::vector<EventProfileEntry> rows = profile();
    double total_ns = 0.0;
    for (const EventProfileEntry &r : rows)
        total_ns += r.wallNs;
    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %12s %12s %10s %6s\n",
                  "event tag", "count", "total ms", "avg ns", "%");
    os << line;
    for (const EventProfileEntry &r : rows) {
        std::snprintf(
            line, sizeof(line), "%-28.*s %12llu %12.3f %10.1f %6.2f\n",
            static_cast<int>(r.tag.size()), r.tag.data(),
            static_cast<unsigned long long>(r.count), r.wallNs * 1e-6,
            r.count ? r.wallNs / static_cast<double>(r.count) : 0.0,
            total_ns > 0.0 ? r.wallNs / total_ns * 100.0 : 0.0);
        os << line;
    }
}

} // namespace macrosim
