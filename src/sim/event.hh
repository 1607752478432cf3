/**
 * @file
 * Discrete-event core: EventQueue and scheduling handles.
 *
 * The queue delivers callbacks in (tick, insertion-order) order, so
 * same-tick events run FIFO and every run is deterministic. Events may
 * be cancelled through the EventId returned by schedule().
 *
 * Layout: an explicit 4-ary heap of small (when, seq, slot, kernel)
 * records over two arenas, one per event kind. Plain events
 * (schedule/scheduleKeyed) own a cell of a chunked arena holding the
 * InlineCallback; chunks are allocated on first use and never move,
 * so a callback runs in place in its cell — even while it schedules
 * into a growing arena — and is never relocated after schedule().
 * Batch events (scheduleBatch) own a 12-byte record in a dense array
 * with no callback storage at all. The heap record's kernel id says
 * which arena its slot indexes, and an EventId encodes (generation,
 * kind, slot), so cancel() is a bounds check plus a few writes — no
 * hash lookup anywhere on the schedule/cancel/run path. Cancellation
 * tombstones the slot in place and releases the callback immediately
 * (captured state, e.g. Message payloads, is freed promptly);
 * tombstoned heap records are skipped at pop time and swept out
 * wholesale when they exceed half the heap.
 *
 * Batched ("coalesced tick") execution: same-tick bursts of
 * homogeneous events are the dominant structure of the hot loops
 * (EventQueueStats' burst histogram quantifies it per workload), and
 * dispatching each through its own InlineCallback wastes the
 * homogeneity. A registrant may registerBatchKernel() a flat
 * function and then scheduleBatch() events that carry only a 32-bit
 * payload (an index into the registrant's structure-of-arrays
 * state). When a maximal run of same-tick records of one kernel
 * reaches the top of the heap, the queue invokes the kernel ONCE
 * with the payloads in execution order instead of N callbacks —
 * per-event dispatch and callback storage drop out while the
 * observable execution order, stats and tick-observer stream stay
 * exactly those of the equivalent per-event path (see DESIGN.md §14
 * for the ordering argument).
 */

#ifndef MACROSIM_SIM_EVENT_HH
#define MACROSIM_SIM_EVENT_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/inline_callback.hh"
#include "sim/ticks.hh"

namespace macrosim
{

class StatRegistry;

/**
 * Opaque identifier for a scheduled event; used for cancellation.
 * Encodes the slot's generation, the event kind and the slot index,
 * so stale handles — already run, already cancelled, or never issued
 * — are rejected in O(1) without any lookup structure. The values
 * carry no meaning beyond that; nothing may depend on them.
 */
using EventId = std::uint64_t;

/** An EventId value that is never returned by schedule(). */
constexpr EventId invalidEventId = 0;

/**
 * A batch kernel: invoked once per maximal same-tick run of events
 * scheduled with scheduleBatch() for the same kernel id. @p payloads
 * holds the 32-bit payloads in exact execution (schedule) order.
 * Kernels may schedule()/scheduleBatch()/cancel() freely — the
 * queue's bookkeeping is consistent before the call — but must not
 * assume anything about @p count beyond count >= 1.
 */
using BatchKernel = void (*)(void *ctx, Tick when,
                             const std::uint32_t *payloads,
                             std::size_t count);

/**
 * Process-wide default for whether subsystems route their per-tick
 * bulk work through batch kernels (scheduleBatch) or the per-event
 * scalar reference path (schedule + InlineCallback). Batched is the
 * default; tests and benches flip it to compare the two paths on
 * networks they construct indirectly (figure/campaign helpers).
 * Read once at subsystem construction, so flipping it mid-simulation
 * affects only subsequently built objects.
 */
bool batchDispatchDefault();
void setBatchDispatchDefault(bool on);

/**
 * Observability counters for one EventQueue. Plain fields keep the
 * hot path branch-free; registration with a StatGroup happens via
 * EventQueue::regStats().
 */
struct EventQueueStats
{
    /** Power-of-two burst-histogram buckets: bucket k counts
     *  completed ticks whose event count lies in [2^k, 2^(k+1));
     *  the last bucket is unbounded above. */
    static constexpr std::size_t burstBuckets = 16;

    /** Events accepted by schedule(). */
    std::uint64_t scheduled = 0;
    /** Successful cancel() calls. */
    std::uint64_t cancelled = 0;
    /** Events whose callback ran. */
    std::uint64_t executed = 0;
    /** High-water mark of pending (uncancelled) events. */
    std::uint64_t peakPending = 0;
    /** Tombstone sweeps of the heap (see EventQueue::compact()). */
    std::uint64_t compactions = 0;
    /** Longest run of consecutively executed same-tick events. */
    std::uint64_t maxSameTickBurst = 0;
    /** Batch-kernel invocations (each retires a whole run). */
    std::uint64_t batchRuns = 0;
    /** Events retired through batch kernels (subset of executed). */
    std::uint64_t batchEvents = 0;
    /** Same-tick burst-size histogram over completed ticks. A tick
     *  completes when a later tick's first event executes or
     *  flushTickObserver() runs, same as the tick observer. */
    std::uint64_t burstHist[burstBuckets] = {};
};

/**
 * One row of the event-loop self-profile: every event scheduled with
 * the same tag aggregates its invocation count and the wall-clock
 * time its callbacks consumed. Untagged events aggregate under
 * "(untagged)".
 */
struct EventProfileEntry
{
    std::string_view tag;
    std::uint64_t count = 0;
    /** Wall-clock (not simulated) time spent in the callbacks, ns. */
    double wallNs = 0.0;
};

/**
 * A time-ordered queue of callbacks.
 *
 * Not a singleton: each Simulator owns one, so multiple simulations can
 * coexist (the benchmark harness runs hundreds back to back).
 */
class EventQueue
{
  public:
    /** Scheduled callbacks live inline in the plain-event arena —
     *  captures must fit InlineCallback's buffer (compile-time
     *  checked), so schedule()/execute never touch the heap in
     *  steady state. */
    using Callback = InlineCallback;

    /** Plain-event arena cells per chunk (a power of two, so the
     *  cell lookup is a shift and a mask). The arena grows one chunk
     *  at a time and never moves a cell. */
    static constexpr std::uint32_t plainChunkCells = 1024;
    static_assert((plainChunkCells & (plainChunkCells - 1)) == 0);

    /** Allocates nothing: arena chunks appear on first schedule(). */
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @p tag names the event's type for the event-loop profiler; it
     * must point at storage outliving the queue (string literals).
     * Tagging costs nothing when profiling is off.
     *
     * @pre when >= now(): the past is immutable.
     * @pre cb is callable.
     * @return A handle usable with cancel().
     */
    EventId schedule(Tick when, Callback cb,
                     const char *tag = nullptr);

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId
    scheduleAfter(Tick delay, Callback cb, const char *tag = nullptr)
    {
        return schedule(now_ + delay, std::move(cb), tag);
    }

    /**
     * Schedule @p cb with an explicit same-tick ordering key instead
     * of insertion order. Keyed events run after every plain event of
     * the same tick, ordered among themselves by ascending @p key.
     *
     * This is the parallel-in-model determinism hook: cross-LP
     * deliveries arrive in whatever real-time order the worker
     * threads produce, so insertion order is not reproducible — but a
     * key derived from the message's causal identity (source site and
     * per-source sequence) is identical for every LP/thread count.
     * Plain schedule() ordering is untouched, so single-queue
     * simulations stay byte-identical to their historical streams.
     *
     * @pre key < 2^63 (the top bit marks keyed records internally).
     * @pre At most one keyed event per (when, key) pair — duplicate
     *      pairs would tie and fall back to unspecified order.
     */
    EventId scheduleKeyed(Tick when, std::uint64_t key, Callback cb,
                          const char *tag = nullptr);

    /**
     * Register a batch kernel under @p tag (profiler attribution;
     * must outlive the queue, string literals). Returns the kernel id
     * to pass to scheduleBatch(). Registration order is per-queue and
     * deterministic; ids start at 1.
     */
    std::uint16_t registerBatchKernel(const char *tag, BatchKernel fn,
                                      void *ctx);

    /**
     * Schedule one batch event: at tick @p when the registered kernel
     * receives @p payload, coalesced with every adjacent same-tick
     * event of the same kernel into a single invocation. Ordering is
     * identical to schedule(): batch events take the next insertion
     * sequence number, so they interleave with plain events exactly
     * where an equivalent schedule() call would, and coalesced runs
     * never reorder across a plain event or a tick boundary.
     *
     * The returned id works with cancel(). Cancellation drops the
     * payload on the floor — registrants whose payloads index pooled
     * state must either not cancel or use self-describing payloads.
     *
     * @pre when >= now(); @p kernel was returned by
     *      registerBatchKernel() on this queue.
     */
    EventId scheduleBatch(Tick when, std::uint16_t kernel,
                          std::uint32_t payload);

    /**
     * Timestamp of the earliest pending event, or maxTick when the
     * queue is empty. Sweeps cancelled tombstones off the top, hence
     * non-const. The PDES horizon protocol publishes this as the
     * earliest tick this LP could still execute.
     */
    Tick peekNextTick();

    /**
     * Cancel a pending event.
     *
     * The callback (and everything it captured) is destroyed before
     * this returns; the heap record lingers as a tombstone until it
     * reaches the top or a compaction sweeps it.
     *
     * @return true if the event was pending and is now cancelled;
     *         false if it already ran or is running (a callback
     *         cancelling its own id), was already cancelled, or the
     *         id is invalid.
     */
    bool cancel(EventId id);

    /** Whether any uncancelled event is pending. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending (uncancelled) events. */
    std::size_t size() const { return pending_; }

    /**
     * Run the next pending event (advancing now()). If the next event
     * is a batch record, its whole coalesced run executes as one unit
     * (a run is indivisible — it is one kernel invocation).
     *
     * @return true if an event ran; false if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue drains or the next *pending* event
     * lies beyond @p limit. Events scheduled exactly at @p limit
     * still run; now() never advances past @p limit here, even when
     * cancelled tombstones with earlier timestamps top the heap.
     *
     * @return The number of events executed.
     */
    std::uint64_t runUntil(Tick limit = maxTick);

    /** Total events executed since construction. */
    std::uint64_t executed() const { return stats_.executed; }

    /** Observability counters (monotonic since construction). */
    const EventQueueStats &stats() const { return stats_; }

    /**
     * Register the stats with @p registry as "<prefix>.scheduled"
     * etc. The queue must outlive any dump through @p registry.
     */
    void regStats(StatRegistry &registry,
                  const std::string &prefix = "simcore") const;

    /**
     * Enable/disable the event-loop self-profiler. When enabled,
     * every executed event's wall-clock time and invocation count is
     * attributed to its schedule() tag. Costs two clock reads per
     * event while on; entirely branch-predictable while off.
     * Profiling never perturbs simulated time or event order.
     */
    void setProfiling(bool on) { profiling_ = on; }
    bool profiling() const { return profiling_; }

    /**
     * The accumulated self-profile, sorted by descending wall time
     * (ties by tag). Counts are exact; times are wall-clock and thus
     * machine-dependent.
     */
    std::vector<EventProfileEntry> profile() const;

    /** Dump the self-profile as an aligned table. */
    void dumpProfile(std::ostream &os) const;

    /**
     * Callback fired once per *completed* executed tick with the
     * number of events that ran at it. Plain function pointer plus
     * context, so installing one costs a single predictable branch on
     * the execute path when unset.
     */
    using TickObserver = void (*)(void *ctx, Tick tick,
                                  std::uint64_t events);

    /**
     * Install (or clear, with nullptr) the tick observer. The
     * observer sees the deterministic execution stream — (tick,
     * events-at-tick) pairs in nondecreasing tick order — and nothing
     * about real time, which is what makes it usable for
     * thread-count-invariant tracing of parallel-in-model runs. A
     * tick is reported when the first event of a *later* tick
     * executes; the final tick stays buffered until
     * flushTickObserver().
     */
    void
    setTickObserver(TickObserver fn, void *ctx)
    {
        tickObs_ = fn;
        tickCtx_ = ctx;
    }

    /**
     * Report the still-buffered last executed tick to the observer
     * (if any events ran since the previous report) and reset the
     * burst tracking. Call when no more events will run — e.g. at the
     * end of a PDES run — so the stream is complete.
     */
    void flushTickObserver();

  private:
    /** Children per heap node; 4 keeps the tree shallow and the
     *  sift-down child scan within one cache line of records. */
    static constexpr std::size_t arity = 4;

    /** Sweep tombstones once they are this many and outnumber live
     *  records (see maybeCompact()). */
    static constexpr std::uint64_t compactMinTombstones = 64;

    /** EventId bit marking a batch-arena slot (set in the low word,
     *  above the biased slot index). */
    static constexpr std::uint32_t batchIdBit = 1u << 31;

    /** Arena cell owning one plain callback.
     *
     *  Lifecycle: free (no cb) -> live (cb set) -> either running
     *  (gen bumped, cb invoked in place, then destroyed and the cell
     *  freed) or tombstoned (gen bumped, cb destroyed, flag set)
     *  until its heap record is popped or swept, then free. Leaving
     *  the live state bumps gen, so stale EventIds miss.
     */
    struct PlainCell
    {
        /** Profiler tag; nullptr = untagged. Kept even when
         *  profiling is off so the profiler can be flipped on
         *  mid-simulation. */
        const char *tag = nullptr;
        std::uint32_t gen = 0;
        bool tombstone = false;
        Callback cb;
    };

    /** Dense record of one batch event: no callback storage (the
     *  kernel id rides in the heap record, the tag in the kernel
     *  table). Same lifecycle as PlainCell, with `live` standing in
     *  for "cb set". */
    struct BatchSlot
    {
        std::uint32_t gen = 0;
        std::uint32_t payload = 0;
        bool live = false;
        bool tombstone = false;
    };
    static_assert(sizeof(BatchSlot) == 12);

    /** Per-tag profile accumulator (see EventProfileEntry). */
    struct ProfileBucket
    {
        std::uint64_t count = 0;
        double wallNs = 0.0;
    };

    /** One interned profiler tag: an owned copy of the tag text plus
     *  its accumulator. Lives in a deque so EventProfileEntry views
     *  into `name` stay stable as tags keep arriving. */
    struct InternedTag
    {
        std::string name;
        ProfileBucket bucket;
    };

    /** Heap record: 24 bytes, trivially copyable, no callback. The
     *  kernel id rides in what used to be tail padding, so batch
     *  coalescing can test run membership without touching either
     *  arena. */
    struct HeapRecord
    {
        Tick when;
        std::uint64_t seq;
        /** Index into the plain arena (kernel == 0) or the batch
         *  arena (kernel != 0). */
        std::uint32_t slot;
        /** 0 = plain callback record; else batch kernel id. */
        std::uint16_t kernel = 0;
    };

    /** Keyed records set this bit in `seq`, with the caller's key in
     *  the low bits: they sort after every plain record of their tick
     *  (insertion counters stay far below 2^63) and by key among
     *  themselves, so (when, seq) stays a strict total order. */
    static constexpr std::uint64_t keyedSeqBit = 1ULL << 63;

    static bool
    earlier(const HeapRecord &a, const HeapRecord &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    PlainCell &
    plainCell(std::uint32_t slot)
    {
        return plainChunks_[slot / plainChunkCells]
                           [slot % plainChunkCells];
    }

    /** Whether @p rec was cancelled (its slot is a tombstone). */
    bool
    isTombstone(const HeapRecord &rec)
    {
        return rec.kernel != 0 ? batchSlots_[rec.slot].tombstone
                               : plainCell(rec.slot).tombstone;
    }

    std::uint32_t allocPlain(Callback &&cb, const char *tag);
    std::uint32_t allocBatch(std::uint32_t payload);

    /** Return a swept tombstone's slot to its arena's free list. */
    void freeTombstone(const HeapRecord &rec);

    /** Push @p rec onto the heap and account it as pending. */
    void pushRecord(const HeapRecord &rec);

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    void popRoot();

    /** Drop tombstoned records off the top of the heap. */
    void skipCancelled();

    /** Pop the root record and run its callback in place in its
     *  cell. @pre root is pending and plain. */
    void executeRoot();

    /** Pop and run the maximal same-(tick, kernel) run at the top of
     *  the heap through its batch kernel. @pre root is pending and a
     *  batch record. @return events retired. */
    std::uint64_t executeBatchRun();

    /** Burst bookkeeping shared by the scalar and batch paths:
     *  account @p count events executing at @p when, completing the
     *  previous tick (observer + histogram) on a boundary cross. */
    void noteExecuted(Tick when, std::uint64_t count);

    /** Report the in-progress tick to the observer and histogram. */
    void completeTick();

    /** Rebuild the heap without tombstones when they dominate. */
    void maybeCompact();
    void compact();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t tombstones_ = 0;

    /** Same-tick burst tracking (stats + tick observer). */
    Tick lastExecTick_ = 0;
    std::uint64_t burst_ = 0;

    TickObserver tickObs_ = nullptr;
    void *tickCtx_ = nullptr;

    std::vector<HeapRecord> heap_;
    /** Plain arena: fixed-size chunks, allocated on first use and
     *  never moved or freed before the queue. */
    std::vector<std::unique_ptr<PlainCell[]>> plainChunks_;
    /** Plain cells handed out so far (free or not). */
    std::uint32_t plainCells_ = 0;
    std::vector<std::uint32_t> freePlain_;
    /** Batch arena: trivially copyable, so growth is a memcpy. */
    std::vector<BatchSlot> batchSlots_;
    std::vector<std::uint32_t> freeBatch_;
    EventQueueStats stats_;

    /** One registered batch kernel (id = index + 1). */
    struct BatchKernelEntry
    {
        BatchKernel fn;
        void *ctx;
        const char *tag;
    };

    std::vector<BatchKernelEntry> kernels_;
    /** Payload staging for the run being drained; reused across runs
     *  so steady state stays allocation-free. */
    std::vector<std::uint32_t> batchScratch_;

    /** Bucket for @p tag, interning it on first sight. */
    ProfileBucket &profileBucketFor(const char *tag);

    /** Event-loop self-profiler. Tags are interned: the fast path
     *  maps the tag *pointer* to a bucket id (one FlatMap probe), and
     *  first sight of a new pointer falls back to a content compare
     *  so the same literal in two translation units still shares a
     *  bucket. Interning copies the text into stable storage, so a
     *  tag may die before the queue — the old string_view-keyed map
     *  dangled in that case. */
    bool profiling_ = false;
    FlatMap<const char *, std::uint32_t> profileIds_;
    std::deque<InternedTag> profileTags_;
};

} // namespace macrosim

#endif // MACROSIM_SIM_EVENT_HH
