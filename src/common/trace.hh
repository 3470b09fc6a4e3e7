/**
 * @file
 * Cycle-accurate event tracing.
 *
 * Every simulated System may own one Tracer; components hold a plain
 * pointer (null when tracing is off, so the disabled path costs one
 * branch and touches no shared state). Events are fixed-size POD
 * records appended to a bounded ring buffer — when the ring is full
 * the oldest record is overwritten and a drop counter ticks, so a
 * trace never grows without bound and the *end* of a run (where the
 * interesting lock handovers usually are) is always retained.
 *
 * Records carry only simulated state (cycle, node, thread, packet id,
 * two small payload words); wall-clock never enters a record, so two
 * runs of the same configuration export byte-identical traces
 * regardless of host scheduling. Live packet ids come from a
 * process-global allocator, so exporters renumber them densely in
 * first-appearance order to keep that guarantee.
 *
 * Exporters: Chrome trace-event JSON (loads in Perfetto / about:
 * tracing; lock-protocol events appear per thread, NoC events per
 * node) and a compact CSV for ad-hoc scripting.
 */

#ifndef OCOR_COMMON_TRACE_HH
#define OCOR_COMMON_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ocor
{

/** Trace categories; a TraceConfig enables any subset. */
enum class TraceCat : std::uint8_t
{
    Lock, ///< lock-protocol events (acquire, RTR, sleep, wakeup, CS)
    Noc,  ///< network events (inject, VC alloc, SA grant, eject)
    Sim,  ///< run phases (begin/end, watchdog, telemetry samples)
    NumCats
};

/** Bit for a category in TraceConfig::categories. */
constexpr unsigned
traceCatBit(TraceCat c)
{
    return 1u << static_cast<unsigned>(c);
}

/** Name of a trace category ("lock", "noc", "sim"). */
const char *traceCatName(TraceCat c);

/**
 * Parse a comma-separated category list ("lock,noc", "all") into a
 * category bitmask. Unknown names abort via ocor_fatal (they are a
 * user error on the command line).
 */
unsigned parseTraceCats(const std::string &spec);

/** Every traceable event type. */
enum class TraceEv : std::uint8_t
{
    // --- lock protocol (cat Lock) -----------------------------------
    LockAcquireStart, ///< acquire() entered; a0 = initial RTR
    LockTrySent,      ///< atomic_try_lock issued; a0 = RTR, a1 = PROG
    LockFailRecv,     ///< LockFail received (retry continues)
    LockSleep,        ///< spin budget exhausted, sleep prep begins
    WakeupSent,       ///< home sent WakeNotify; a0 = queue length left
    WakeupRecv,       ///< WakeNotify consumed by the waiter
    CsEnter,          ///< critical section entered; a0 = 1 if slept
    CsExit,           ///< critical section exited (release sent)
    LockHandover,     ///< home granted after a release; a1 = gap cycles

    // --- NoC (cat Noc); a0 = MsgType of the packet ------------------
    PktInject,        ///< packet queued at the source NI
    VcAlloc,          ///< output VC allocated; a1 = out port
    SaGrant,          ///< head flit won switch allocation; a1 = rank
    PktEject,         ///< packet reassembled and delivered at the sink
    CrcReject,        ///< corrupted packet discarded at ejection
    Retransmit,       ///< unacked packet re-sent; a1 = attempt

    // --- simulation phases (cat Sim) --------------------------------
    RunBegin,         ///< Simulator::run entered
    RunEnd,           ///< run left the cycle loop; a0 = 1 on hang
    WatchdogFired,    ///< forward-progress watchdog aborted the run
    TelemetrySample   ///< interval telemetry snapshot taken
};

/** Name of an event type (stable; part of the export format). */
const char *traceEvName(TraceEv ev);

/** Category an event type belongs to. */
TraceCat traceEvCat(TraceEv ev);

/** One fixed-size trace record. */
struct TraceRecord
{
    Cycle cycle = 0;
    std::uint64_t pkt = 0;    ///< packet id (0 = none)
    Addr addr = 0;            ///< lock word / line address (0 = none)
    NodeId node = invalidNode;
    ThreadId thread = invalidThread;
    std::uint32_t a0 = 0;     ///< event-specific payload
    std::uint32_t a1 = 0;     ///< event-specific payload
    TraceEv ev = TraceEv::RunBegin;
};

/** Tracing knobs; part of SystemConfig. */
struct TraceConfig
{
    /** Enabled categories (traceCatBit mask); 0 = tracing off. */
    unsigned categories = 0;

    /** Only record events at this node (invalidNode = every node).
     * Lock-protocol events filter on the *thread's* node. */
    NodeId nodeFilter = invalidNode;

    /** Ring-buffer capacity in records (~44 B each). */
    std::size_t capacity = 1u << 19;

    bool enabled() const { return categories != 0; }
};

/** Bounded ring buffer of trace records with export backends. */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig &cfg);

    /** Cheap per-event filter; call before building a record. */
    bool
    wants(TraceCat cat, NodeId node) const
    {
        if (!(cfg_.categories & traceCatBit(cat)))
            return false;
        return cfg_.nodeFilter == invalidNode ||
            cfg_.nodeFilter == node;
    }

    /** Append a record (caller already passed wants()). */
    void
    emit(const TraceRecord &rec)
    {
        if (ring_.size() < cfg_.capacity) {
            ring_.push_back(rec);
        } else {
            ring_[head_] = rec;
            head_ = (head_ + 1) % cfg_.capacity;
            ++dropped_;
        }
        ++emitted_;
    }

    /** Filter + append in one call; the common call site shape. */
    void
    record(TraceCat cat, TraceEv ev, Cycle cycle, NodeId node,
           ThreadId thread = invalidThread, Addr addr = 0,
           std::uint64_t pkt = 0, std::uint32_t a0 = 0,
           std::uint32_t a1 = 0)
    {
        if (!wants(cat, node))
            return;
        TraceRecord r;
        r.cycle = cycle;
        r.pkt = pkt;
        r.addr = addr;
        r.node = node;
        r.thread = thread;
        r.a0 = a0;
        r.a1 = a1;
        r.ev = ev;
        emit(r);
    }

    const TraceConfig &config() const { return cfg_; }

    /** Total events offered to the ring (kept + overwritten). */
    std::uint64_t emitted() const { return emitted_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** Records currently retained, oldest first. */
    std::vector<TraceRecord> snapshot() const;

    /**
     * Async-signal-safe ring access for the crash-dump handler:
     * number of retained records, and record @p i oldest-first.
     * Neither allocates, locks, or calls out; a handler reading a
     * ring that is concurrently appended to may see one record torn,
     * which a post-mortem consumer tolerates.
     */
    std::size_t ringCount() const { return ring_.size(); }

    const TraceRecord &
    ringRecord(std::size_t i) const
    {
        return ring_[(head_ + i) % ring_.size()];
    }

    /**
     * Chrome trace-event JSON (the `[{...},...]` array form), one
     * instant event per record except CS enter/exit, which become
     * B/E duration slices so Perfetto renders critical sections as
     * bars per thread.
     */
    void exportChromeJson(std::ostream &os) const;

    /** Compact CSV: cycle,cat,event,node,thread,addr,pkt,a0,a1. */
    void exportCsv(std::ostream &os) const;

  private:
    TraceConfig cfg_;
    std::vector<TraceRecord> ring_;
    std::size_t head_ = 0; ///< oldest record once the ring wrapped
    std::uint64_t emitted_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace ocor

#endif // OCOR_COMMON_TRACE_HH
