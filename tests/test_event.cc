/**
 * @file
 * Unit tests for the event queue: ordering, cancellation, determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace
{

using namespace macrosim;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickEventsRunFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runUntil();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue q;
    int ran = 0;
    q.schedule(10, [&] { ++ran; });
    q.schedule(20, [&] { ++ran; });
    q.schedule(21, [&] { ++ran; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.size(), 1u);
}

namespace
{

/** Self-rescheduling callable (a lambda cannot capture itself). */
struct Chain
{
    EventQueue &q;
    int &depth;

    void
    operator()() const
    {
        if (++depth < 100)
            q.scheduleAfter(1, Chain{q, depth});
    }
};

} // namespace

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    q.schedule(0, Chain{q, depth});
    q.runUntil();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(q.now(), 99u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    q.runUntil();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CancelReturnsFalseForCompletedEvent)
{
    EventQueue q;
    EventId id = q.schedule(1, [] {});
    q.runUntil();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelReturnsFalseTwice)
{
    EventQueue q;
    EventId id = q.schedule(1, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdIsFalse)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(invalidEventId));
    EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelDoesNotDisturbOtherEvents)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    EventId id = q.schedule(10, [&] { order.push_back(2); });
    q.schedule(10, [&] { order.push_back(3); });
    q.cancel(id);
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, ExecutedCountsOnlyRunEvents)
{
    EventQueue q;
    q.schedule(1, [] {});
    EventId id = q.schedule(2, [] {});
    q.cancel(id);
    q.schedule(3, [] {});
    q.runUntil();
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, RunUntilLimitIgnoresCancelledTombstones)
{
    // Regression: a cancelled entry at when <= limit used to satisfy
    // the limit check, letting runOne() fall through to an event
    // beyond the limit (and drag now() past it) — which silently
    // skewed every warmup/measure window that cancelled a timeout.
    EventQueue q;
    bool b_ran = false;
    EventId a = q.schedule(10, [] {});
    q.schedule(50, [&] { b_ran = true; });
    ASSERT_TRUE(q.cancel(a));
    EXPECT_EQ(q.runUntil(20), 0u);
    EXPECT_FALSE(b_ran);
    EXPECT_LE(q.now(), 20u);
    EXPECT_EQ(q.size(), 1u);
    // The event past the limit still runs once the limit allows it.
    EXPECT_EQ(q.runUntil(50), 1u);
    EXPECT_TRUE(b_ran);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunUntilManyTombstonesBeforeLimit)
{
    EventQueue q;
    int ran = 0;
    std::vector<EventId> ids;
    for (Tick t = 1; t <= 100; ++t)
        ids.push_back(q.schedule(t, [&] { ++ran; }));
    for (EventId id : ids)
        q.cancel(id);
    q.schedule(200, [&] { ++ran; });
    EXPECT_EQ(q.runUntil(150), 0u);
    EXPECT_EQ(ran, 0);
    EXPECT_LE(q.now(), 150u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelReleasesCapturedStateImmediately)
{
    EventQueue q;
    auto payload = std::make_shared<int>(7);
    EventId id = q.schedule(10, [payload] { (void)*payload; });
    EXPECT_EQ(payload.use_count(), 2);
    ASSERT_TRUE(q.cancel(id));
    // The tombstone stays queued, but the callback (and its capture)
    // must already be gone.
    EXPECT_EQ(payload.use_count(), 1);
}

TEST(EventQueue, StaleIdOfRecycledSlotIsRejected)
{
    EventQueue q;
    EventId first = q.schedule(1, [] {});
    q.runUntil();
    // The arena slot of `first` is recycled here; the stale handle
    // must not cancel the new event.
    EventId second = q.schedule(2, [] {});
    EXPECT_FALSE(q.cancel(first));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(second));
}

namespace
{

/** Batch kernel appending its payloads to a std::vector<uint32_t>. */
void
appendPayloads(void *ctx, Tick, const std::uint32_t *payloads,
               std::size_t count)
{
    auto *out = static_cast<std::vector<std::uint32_t> *>(ctx);
    out->insert(out->end(), payloads, payloads + count);
}

/** Callable counting its own move constructions. When run, it first
 *  schedules @p grow more events (so the arena grows while it is
 *  running) and then records how often it had been moved. */
struct MoveCounter
{
    EventQueue *q;
    int grow;
    int *moves;
    int *movesAtRun;

    MoveCounter(EventQueue *q_, int grow_, int *moves_,
                int *movesAtRun_)
        : q(q_), grow(grow_), moves(moves_), movesAtRun(movesAtRun_)
    {
    }

    MoveCounter(MoveCounter &&o) noexcept
        : q(o.q), grow(o.grow), moves(o.moves),
          movesAtRun(o.movesAtRun)
    {
        ++*moves;
    }

    MoveCounter(const MoveCounter &) = delete;
    MoveCounter &operator=(const MoveCounter &) = delete;
    MoveCounter &operator=(MoveCounter &&) = delete;

    void
    operator()() const
    {
        for (int i = 0; i < grow; ++i)
            q->schedule(q->now() + 1, [] {});
        *movesAtRun = *moves;
    }
};

} // namespace

TEST(EventQueue, PlainCallbackIsNeverRelocatedAfterSchedule)
{
    // The plain arena must grow by whole chunks without moving live
    // cells, and the callback must run in its cell: both growth
    // before it runs and growth from inside it leave it in place.
    constexpr int chunk = static_cast<int>(EventQueue::plainChunkCells);
    EventQueue q;
    int moves = 0;
    int movesAtRun = -1;
    q.schedule(10, MoveCounter(&q, 2 * chunk + 1, &moves, &movesAtRun));
    const int movesAfterSchedule = moves;
    for (int i = 0; i < 2 * chunk + 1; ++i) {
        q.schedule(5, [] {});
        q.schedule(20, [] {});
    }
    q.runUntil();
    EXPECT_EQ(movesAtRun, movesAfterSchedule);
    EXPECT_EQ(q.executed(),
              static_cast<std::uint64_t>(1 + 3 * (2 * chunk + 1)));
}

TEST(EventQueue, CancelNeverCrossesEventKinds)
{
    // The first plain and the first batch event each take slot 0 of
    // their own arena: cancelling either id leaves the other alone.
    EventQueue q;
    std::vector<std::uint32_t> payloads;
    const std::uint16_t k =
        q.registerBatchKernel("test.append", appendPayloads, &payloads);
    bool plainRan = false;
    const EventId plain = q.schedule(1, [&] { plainRan = true; });
    const EventId batch = q.scheduleBatch(1, k, 7);
    EXPECT_NE(plain, batch);
    EXPECT_TRUE(q.cancel(batch));
    EXPECT_FALSE(q.cancel(batch));
    EXPECT_EQ(q.size(), 1u);
    q.runUntil();
    EXPECT_TRUE(plainRan);
    EXPECT_TRUE(payloads.empty());

    // The reverse, on the recycled slots.
    const EventId plain2 =
        q.schedule(2, [] { ADD_FAILURE() << "cancelled event ran"; });
    const EventId batch2 = q.scheduleBatch(2, k, 8);
    EXPECT_NE(plain2, batch2);
    EXPECT_TRUE(q.cancel(plain2));
    EXPECT_FALSE(q.cancel(plain2));
    EXPECT_EQ(q.size(), 1u);
    q.runUntil();
    EXPECT_EQ(payloads, (std::vector<std::uint32_t>{8}));
    EXPECT_EQ(q.stats().cancelled, 2u);
}

TEST(EventQueue, StaleBatchIdIsRejected)
{
    EventQueue q;
    std::vector<std::uint32_t> payloads;
    const std::uint16_t k =
        q.registerBatchKernel("test.append", appendPayloads, &payloads);
    const EventId first = q.scheduleBatch(1, k, 1);
    q.runUntil();
    EXPECT_FALSE(q.cancel(first));
    // The batch slot of `first` is recycled here; the stale handle
    // must not cancel the new event.
    const EventId second = q.scheduleBatch(2, k, 2);
    EXPECT_FALSE(q.cancel(first));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(second));
    q.runUntil();
    EXPECT_EQ(payloads, (std::vector<std::uint32_t>{1}));
}

namespace
{

/** Batch-kernel context for the self-cancel test. */
struct SelfCancel
{
    EventQueue *q = nullptr;
    EventId id = invalidEventId;
    int result = -1;
};

void
cancelOwnId(void *ctx, Tick, const std::uint32_t *, std::size_t)
{
    auto *s = static_cast<SelfCancel *>(ctx);
    s->result = s->q->cancel(s->id) ? 1 : 0;
}

} // namespace

TEST(EventQueue, CancellingTheRunningEventReturnsFalse)
{
    EventQueue q;
    EventId self = invalidEventId;
    int plainResult = -1;
    self = q.schedule(1, [&] { plainResult = q.cancel(self) ? 1 : 0; });
    SelfCancel batch;
    batch.q = &q;
    const std::uint16_t k =
        q.registerBatchKernel("test.self_cancel", cancelOwnId, &batch);
    batch.id = q.scheduleBatch(2, k, 0);
    q.runUntil();
    EXPECT_EQ(plainResult, 0);
    EXPECT_EQ(batch.result, 0);
    EXPECT_EQ(q.stats().cancelled, 0u);
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, StatsCountCoreActivity)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(q.schedule(10, [] {}));
    q.cancel(ids[3]);
    q.schedule(20, [] {});
    q.runUntil();
    const EventQueueStats &s = q.stats();
    EXPECT_EQ(s.scheduled, 9u);
    EXPECT_EQ(s.cancelled, 1u);
    EXPECT_EQ(s.executed, 8u);
    EXPECT_EQ(s.peakPending, 8u); // the cancel preceded schedule #9
    EXPECT_EQ(s.maxSameTickBurst, 7u); // tick 10 minus the cancel
    EXPECT_EQ(q.executed(), s.executed);
}

TEST(EventQueue, TickObserverReportsPerTickCounts)
{
    using TickCounts = std::vector<std::pair<Tick, std::uint64_t>>;
    EventQueue q;
    TickCounts seen;
    q.setTickObserver(
        [](void *ctx, Tick t, std::uint64_t n) {
            static_cast<TickCounts *>(ctx)->emplace_back(t, n);
        },
        &seen);
    for (int i = 0; i < 3; ++i)
        q.schedule(5, [] {});
    // An event scheduling into its own tick joins the same burst.
    q.schedule(9, [&q] { q.schedule(9, [] {}); });
    q.schedule(12, [] {});
    q.runUntil();
    // A tick is reported when a later tick starts executing; the
    // final one stays buffered until the flush.
    const TickCounts beforeFlush = {{5, 3}, {9, 2}};
    EXPECT_EQ(seen, beforeFlush);
    q.flushTickObserver();
    const TickCounts all = {{5, 3}, {9, 2}, {12, 1}};
    EXPECT_EQ(seen, all);
    // Nothing ran since the last report: flushing again is a no-op.
    q.flushTickObserver();
    EXPECT_EQ(seen, all);
}

TEST(EventQueue, TickObserverSpansRunUntilSegments)
{
    using TickCounts = std::vector<std::pair<Tick, std::uint64_t>>;
    EventQueue q;
    TickCounts seen;
    q.setTickObserver(
        [](void *ctx, Tick t, std::uint64_t n) {
            static_cast<TickCounts *>(ctx)->emplace_back(t, n);
        },
        &seen);
    q.schedule(5, [] {});
    q.schedule(5, [] {});
    q.schedule(10, [] {});
    // The horizon protocol runs the queue in bounded segments; the
    // stream must look the same as one uninterrupted run.
    q.runUntil(7);
    EXPECT_TRUE(seen.empty()); // tick 5 still buffered
    q.runUntil(20);
    q.flushTickObserver();
    const TickCounts all = {{5, 2}, {10, 1}};
    EXPECT_EQ(seen, all);
}

TEST(EventQueue, TombstoneCompactionPreservesOrder)
{
    // Cancel enough events that the heap compacts, then check the
    // survivors still run in exact (tick, FIFO) order.
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> doomed;
    for (int i = 0; i < 1000; ++i) {
        const Tick when = static_cast<Tick>(1 + (i * 37) % 500);
        if (i % 4 == 0) {
            q.schedule(when, [&order, i] { order.push_back(i); });
        } else {
            doomed.push_back(q.schedule(when, [] {
                ADD_FAILURE() << "cancelled event ran";
            }));
        }
    }
    for (EventId id : doomed)
        ASSERT_TRUE(q.cancel(id));
    EXPECT_GE(q.stats().compactions, 1u);
    q.runUntil();
    ASSERT_EQ(order.size(), 250u);
    // Reconstruct the expected order: by (when, insertion seq).
    std::vector<std::pair<Tick, int>> expected;
    for (int i = 0; i < 1000; i += 4)
        expected.emplace_back(static_cast<Tick>(1 + (i * 37) % 500), i);
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(order[i], expected[i].second);
}

TEST(EventQueue, RegStatsDumpsThroughStatGroup)
{
    EventQueue q;
    q.schedule(1, [] {});
    q.runUntil();
    StatGroup g;
    q.regStats(g, "evq");
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("evq.scheduled 1"), std::string::npos);
    EXPECT_NE(os.str().find("evq.executed 1"), std::string::npos);
    EXPECT_NE(os.str().find("evq.peak_pending 1"), std::string::npos);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.runUntil();
    EXPECT_DEATH(q.schedule(50, [] {}), "before now");
}

TEST(EventQueueProfiler, TagsAreInternedNotBorrowed)
{
    // Regression: the profiler used to key its buckets by
    // string_view into caller storage, so a tag freed before the
    // queue left a dangling key. Tags must be copied when interned —
    // under ASan this test crashes if any view still points at the
    // freed buffer.
    EventQueue q;
    q.setProfiling(true);
    {
        auto tag = std::make_unique<char[]>(16);
        std::snprintf(tag.get(), 16, "transient.tag");
        q.schedule(1, [] {}, tag.get());
        q.runOne();
    } // tag storage freed while the queue lives on
    const auto rows = q.profile();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].tag, "transient.tag");
    EXPECT_EQ(rows[0].count, 1u);
    std::ostringstream os;
    q.dumpProfile(os);
    EXPECT_NE(os.str().find("transient.tag"), std::string::npos);
}

TEST(EventQueueProfiler, EqualContentAtDistinctAddressesShares)
{
    // The same tag text arriving via two different pointers (e.g.
    // the same literal in two translation units) must aggregate in
    // one bucket.
    EventQueue q;
    q.setProfiling(true);
    char a[] = "net.hop";
    char b[] = "net.hop";
    ASSERT_NE(static_cast<const char *>(a),
              static_cast<const char *>(b));
    q.schedule(1, [] {}, a);
    q.schedule(2, [] {}, b);
    q.runUntil();
    const auto rows = q.profile();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].tag, "net.hop");
    EXPECT_EQ(rows[0].count, 2u);
}

TEST(EventQueueProfiler, UntaggedEventsAggregate)
{
    EventQueue q;
    q.setProfiling(true);
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    q.runUntil();
    const auto rows = q.profile();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].tag, "(untagged)");
    EXPECT_EQ(rows[0].count, 2u);
}

TEST(InlineCallback, EmptyAndNullBehave)
{
    InlineCallback cb;
    EXPECT_FALSE(cb);
    InlineCallback null_cb(nullptr);
    EXPECT_FALSE(null_cb);
    cb = [] {};
    EXPECT_TRUE(cb);
    cb = nullptr;
    EXPECT_FALSE(cb);
}

TEST(InlineCallback, MoveTransfersTargetAndEmptiesSource)
{
    int hits = 0;
    InlineCallback a = [&hits] { ++hits; };
    InlineCallback b = std::move(a);
    EXPECT_FALSE(a); // NOLINT: post-move state is specified here
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);
    a = std::move(b);
    EXPECT_FALSE(b); // NOLINT
    a();
    EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, DestroysCapturePromptly)
{
    auto token = std::make_shared<int>(7);
    ASSERT_EQ(token.use_count(), 1);
    {
        InlineCallback cb = [token] { (void)*token; };
        EXPECT_EQ(token.use_count(), 2);
        cb = nullptr; // must run the capture's destructor
        EXPECT_EQ(token.use_count(), 1);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, RunAdvancesTime)
{
    Simulator sim;
    int hits = 0;
    sim.events().schedule(5 * tickNs, [&] { ++hits; });
    sim.events().schedule(7 * tickNs, [&] { ++hits; });
    EXPECT_EQ(sim.run(), 2u);
    EXPECT_EQ(sim.now(), 7 * tickNs);
    EXPECT_EQ(hits, 2);
}

TEST(Simulator, SeededRngIsDeterministic)
{
    Simulator a(42), b(42), c(43);
    bool all_equal = true;
    bool any_diff_from_c = false;
    for (int i = 0; i < 1000; ++i) {
        const auto va = a.rng().next();
        if (va != b.rng().next())
            all_equal = false;
        if (va != c.rng().next())
            any_diff_from_c = true;
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_from_c);
}

} // namespace
