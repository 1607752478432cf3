/**
 * @file
 * Allocation guard for the event core's hot path: once warmed up,
 * schedule() + execute with a Message-sized capture (what every
 * network's final delivery schedules) and schedule() + cancel() must
 * not touch the heap at all. Captures live in the arena's inline
 * callback storage; the arena, heap and free list keep their
 * capacity across rounds.
 *
 * A standalone executable, not part of macrosim_tests, because it
 * replaces the global operator new with a counting hook. Exits
 * non-zero on any steady-state allocation. Run it in the
 * MACROSIM_SANITIZE=address configuration too: the hook sits on top
 * of ASan's malloc.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/message.hh"
#include "sim/event.hh"

using namespace macrosim;

namespace
{

std::atomic<std::uint64_t> g_heapAllocs{0};

void *
countedAlloc(std::size_t size)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, align < sizeof(void *) ? sizeof(void *)
                                                  : align,
                       size ? size : 1)
        != 0) {
        throw std::bad_alloc();
    }
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

constexpr int eventsPerRound = 4096;

/** Schedule a spread of delivery-sized events, then drain. */
void
deliverRound(EventQueue &q, std::uint64_t *sink)
{
    for (int i = 0; i < eventsPerRound; ++i) {
        Message msg;
        msg.id = static_cast<MessageId>(i);
        msg.bytes = 64;
        q.schedule(q.now() + static_cast<Tick>(i * 7 % 997 + 1),
                   [msg, sink] { *sink += msg.bytes; }, "test.deliver");
    }
    q.runUntil();
}

/** Schedule delivery-sized events and cancel three in four of them
 *  (the token-ring grant re-arm pattern), then drain. */
void
cancelRound(EventQueue &q, std::vector<EventId> &ids,
            std::uint64_t *sink)
{
    ids.clear();
    for (int i = 0; i < eventsPerRound; ++i) {
        Message msg;
        msg.bytes = 64;
        ids.push_back(q.schedule(
            q.now() + static_cast<Tick>(i * 13 % 509 + 1),
            [msg, sink] { *sink += msg.bytes; }, "test.cancel"));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i % 4 != 0)
            q.cancel(ids[i]);
    }
    q.runUntil();
}

/** Allocations made by @p rounds steady-state calls of @p round. */
template <typename Round>
std::uint64_t
steadyStateAllocs(Round &&round, int rounds)
{
    round(); // warm up to the steady-state footprint
    const std::uint64_t before =
        g_heapAllocs.load(std::memory_order_relaxed);
    for (int i = 0; i < rounds; ++i)
        round();
    return g_heapAllocs.load(std::memory_order_relaxed) - before;
}

} // namespace

int
main()
{
    constexpr int rounds = 16;
    std::uint64_t sink = 0;
    int failures = 0;

    EventQueue deliver;
    const std::uint64_t deliverAllocs = steadyStateAllocs(
        [&] { deliverRound(deliver, &sink); }, rounds);

    EventQueue cancel;
    std::vector<EventId> ids;
    ids.reserve(eventsPerRound);
    const std::uint64_t cancelAllocs = steadyStateAllocs(
        [&] { cancelRound(cancel, ids, &sink); }, rounds);

    const struct
    {
        const char *name;
        std::uint64_t allocs;
    } cells[] = {{"schedule+execute", deliverAllocs},
                 {"schedule+cancel", cancelAllocs}};
    for (const auto &[name, allocs] : cells) {
        std::printf("%s: %llu allocations over %d x %d events\n", name,
                    static_cast<unsigned long long>(allocs), rounds,
                    eventsPerRound);
        if (allocs != 0) {
            std::fprintf(stderr,
                         "event_alloc_free: %s allocated in steady "
                         "state (budget: 0 per event)\n",
                         name);
            ++failures;
        }
    }
    if (sink == 0)
        ++failures; // the callbacks must actually have run
    return failures == 0 ? 0 : 1;
}
