/**
 * @file
 * Event-core stress test: randomized interleavings of
 * schedule/cancel/runOne/runUntil are applied to the
 * real EventQueue and to a naive reference model (a sorted
 * std::multimap, which preserves insertion order for equal keys),
 * asserting identical execution order, now() trajectory, and size()
 * at every step. Runs under MACROSIM_SANITIZE=address cleanly — the
 * arena's cell recycling and the tombstone compaction paths get
 * hammered hard here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/event.hh"
#include "sim/random.hh"

namespace
{

using namespace macrosim;

/**
 * The semantics of EventQueue, written as artlessly as possible:
 * a time-sorted multimap of tags (multimap guarantees insertion
 * order for equivalent keys, i.e. same-tick FIFO) plus a live set.
 */
class ReferenceQueue
{
  public:
    std::uint64_t
    schedule(Tick when, int tag)
    {
        EXPECT_GE(when, now_);
        queue_.emplace(when, tag);
        live_.insert(tag);
        return static_cast<std::uint64_t>(tag);
    }

    bool
    cancel(int tag)
    {
        return live_.erase(tag) == 1;
    }

    /** Run the next live event. @return whether one ran. */
    bool
    runOne(std::vector<int> &order)
    {
        skipDead();
        if (queue_.empty())
            return false;
        const auto [when, tag] = *queue_.begin();
        queue_.erase(queue_.begin());
        live_.erase(tag);
        order.push_back(tag);
        now_ = when;
        return true;
    }

    std::uint64_t
    runUntil(Tick limit, std::vector<int> &order)
    {
        std::uint64_t ran = 0;
        for (;;) {
            // Skip dead entries first so a cancelled early entry
            // cannot admit a live one beyond the limit.
            skipDead();
            if (queue_.empty() || queue_.begin()->first > limit)
                break;
            runOne(order);
            ++ran;
        }
        return ran;
    }

    Tick now() const { return now_; }
    std::size_t size() const { return live_.size(); }

  private:
    /** Drop cancelled entries off the front. */
    void
    skipDead()
    {
        while (!queue_.empty() &&
               live_.count(queue_.begin()->second) == 0) {
            queue_.erase(queue_.begin());
        }
    }

    Tick now_ = 0;
    std::multimap<Tick, int> queue_;
    std::unordered_set<int> live_;
};

/** One full random interleaving with a given op mix. */
void
stressRun(std::uint64_t seed, int ops, std::uint32_t cancelWeight)
{
    Rng rng(seed);
    EventQueue real;
    ReferenceQueue ref;

    std::vector<int> real_order, ref_order;
    // tag -> real queue handle, for cancels of live events.
    std::unordered_map<int, EventId> handles;
    std::vector<int> live_tags;
    int next_tag = 0;

    const auto scheduleOne = [&] {
        // Mix of horizons; weight same-tick bursts heavily so FIFO
        // ordering inside a tick is exercised.
        const std::uint64_t horizon = rng.below(4);
        Tick when = real.now();
        if (horizon == 1)
            when += 1 + rng.below(16);
        else if (horizon >= 2)
            when += rng.below(2000);
        const int tag = next_tag++;
        handles[tag] = real.schedule(
            when, [tag, &real_order] { real_order.push_back(tag); });
        ref.schedule(when, tag);
        live_tags.push_back(tag);
    };

    for (int i = 0; i < ops; ++i) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 45) {
            scheduleOne();
        } else if (roll < 45 + cancelWeight && !live_tags.empty()) {
            // Cancel a random live event — and sometimes a stale
            // handle, which both sides must reject.
            const std::size_t k = rng.below(live_tags.size());
            const int tag = live_tags[k];
            const bool stale = rng.below(8) == 0;
            const int victim = stale ? tag + 100000 : tag;
            const EventId h = stale
                                  ? handles[tag] + (1ull << 33)
                                  : handles[tag];
            ASSERT_EQ(real.cancel(h), ref.cancel(victim));
            if (!stale) {
                live_tags[k] = live_tags.back();
                live_tags.pop_back();
            }
        } else if (roll < 90) {
            ASSERT_EQ(real.runOne(), ref.runOne(ref_order));
        } else {
            const Tick limit = real.now() + rng.below(500);
            ASSERT_EQ(real.runUntil(limit),
                      ref.runUntil(limit, ref_order));
        }
        ASSERT_EQ(real.now(), ref.now()) << "op " << i;
        ASSERT_EQ(real.size(), ref.size()) << "op " << i;
        ASSERT_EQ(real_order, ref_order) << "op " << i;
        // Executed tags are no longer live on either side.
        while (!real_order.empty()) {
            const int done = real_order.back();
            for (std::size_t k = 0; k < live_tags.size(); ++k) {
                if (live_tags[k] == done) {
                    live_tags[k] = live_tags.back();
                    live_tags.pop_back();
                    break;
                }
            }
            handles.erase(done);
            real_order.pop_back();
            ref_order.pop_back();
        }
    }

    // Drain both completely and compare the tail.
    real.runUntil();
    ref.runUntil(maxTick, ref_order);
    ASSERT_EQ(real_order, ref_order);
    ASSERT_EQ(real.now(), ref.now());
    ASSERT_EQ(real.size(), 0u);
    ASSERT_EQ(ref.size(), 0u);
}

TEST(EventQueueStress, MatchesReferenceModelLightCancel)
{
    for (std::uint64_t seed : {11ull, 12ull, 13ull})
        stressRun(seed, 6000, 10);
}

TEST(EventQueueStress, MatchesReferenceModelHeavyCancel)
{
    // Heavy cancellation drives tombstones past the compaction
    // threshold repeatedly.
    for (std::uint64_t seed : {21ull, 22ull, 23ull})
        stressRun(seed, 6000, 35);
}

TEST(EventQueueStress, FollowUpSchedulingMatchesReference)
{
    // Executed events trigger deterministic follow-ups (including
    // same-tick ones) applied to both models in lockstep, so the
    // queues churn through thousands of slot recyclings.
    EventQueue real;
    ReferenceQueue ref;
    std::vector<int> real_order, ref_order;
    int next_tag = 0;

    const auto scheduleBoth = [&](Tick when, int tag) {
        real.schedule(when,
                      [tag, &real_order] { real_order.push_back(tag); });
        ref.schedule(when, tag);
    };

    for (int i = 0; i < 64; ++i)
        scheduleBoth(static_cast<Tick>((i * 13) % 41), next_tag++);

    int executed_total = 0;
    for (;;) {
        const bool a = real.runOne();
        ASSERT_EQ(a, ref.runOne(ref_order));
        if (!a)
            break;
        ASSERT_EQ(real_order, ref_order);
        ASSERT_EQ(real.now(), ref.now());
        const int tag = real_order.back();
        if (++executed_total < 4000 && tag % 3 != 0) {
            scheduleBoth(real.now() + 1
                             + static_cast<Tick>((tag * 7) % 23),
                         next_tag++);
            if (tag % 5 == 0)
                scheduleBoth(real.now(), next_tag++);
        }
    }
    ASSERT_EQ(real_order, ref_order);
    ASSERT_EQ(real.size(), 0u);
}

} // namespace
