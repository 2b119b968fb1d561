#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/**
 * @file
 * Bench-side tracing: in-memory spans recorded around the calls the
 * benchmark makes into each layer, with allocations attributed to the
 * innermost open span of the allocating thread.
 *
 * A span carries its name, start, end, the span that was open when it
 * started (its parent, on the same thread) and the compile it belongs
 * to. Allocations are counted by the global operator new replacement
 * (alloc_hook.cc) only while counting is switched on, so an untraced
 * run pays one relaxed load per allocation. Spans stay in memory until
 * the run ends and are then written out as a Chrome trace.
 */

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One finished (or still open, end_ns == -1) span. */
struct Span
{
    /** Index into SpanRecorder::names(). */
    uint32_t name = 0;
    /** Enclosing span on the same thread; -1 at top level. */
    int64_t parent = -1;
    /** Compile the span belongs to (0 = none). */
    uint64_t compile = 0;
    /** Small per-thread id, 1-based: EventStream::currentWorker() + 1,
     *  so spans and service events of one thread share an id. */
    uint32_t thread = 0;
    /** Steady-clock ns since the recorder was built. */
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    /** Allocations made while open, children included. */
    uint64_t allocs = 0;
    uint64_t bytes = 0;
};

/** Process-wide allocation totals counted while counting is on. */
struct AllocTotals
{
    uint64_t count = 0;
    uint64_t bytes = 0;
};

/** Called by the operator new replacement for every allocation. */
void noteAllocation(std::size_t bytes) noexcept;

/** Switch allocation counting on or off (off at start). */
void setAllocationCounting(bool on);

AllocTotals allocationTotals();

/**
 * Span store with one buffer per recording thread, so opening and
 * closing a span takes no lock. Open spans nest per thread; open() and
 * close() of one span run on the same thread, and a thread records
 * into one recorder at a time.
 */
class SpanRecorder
{
  public:
    SpanRecorder();
    ~SpanRecorder();

    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;

    /** Intern a span name (stable id for the recorder's lifetime). */
    uint32_t nameId(const std::string& name);

    /**
     * Open a span on the calling thread as a child of its innermost
     * open span. compile == 0 inherits the parent's compile id.
     * @return the span's index in the thread's buffer.
     */
    size_t open(uint32_t name, uint64_t compile = 0);

    /** Close the calling thread's innermost span, which must be
     *  `span`; `rename` (when >= 0) replaces its name. */
    void close(size_t span, int64_t rename = -1);

    /** Append an externally timed span (e.g. from an event stream). */
    void add(const Span& span);

    int64_t nowNs() const;

    /**
     * Every span: each thread's buffer in the order threads first
     * recorded, then the added ones; parents index into the result.
     * Call once no thread records any more.
     */
    std::vector<Span> spans() const;

    std::vector<std::string> names() const;

  private:
    struct Buffer;
    Buffer& threadBuffer();

    const uint64_t id_;
    /** Guards the buffer registry, the added spans and the names. */
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
    std::vector<Span> added_;
    std::vector<std::string> names_;
    std::chrono::steady_clock::time_point epoch_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder& recorder, uint32_t name, uint64_t compile = 0)
        : recorder_(recorder), index_(recorder.open(name, compile))
    {
    }
    ~ScopedSpan() { recorder_.close(index_, rename_); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** Name the span gets when it closes. */
    void renameTo(uint32_t name) { rename_ = name; }

  private:
    SpanRecorder& recorder_;
    size_t index_;
    int64_t rename_ = -1;
};

/**
 * Self time of a span over [start, end): its duration minus the part
 * of that interval covered by the union of its children's intervals
 * (children may overlap each other, or stick out of the parent).
 */
int64_t selfTimeNs(int64_t start, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children);

/** selfTimeNs of every span, from the parent links. */
std::vector<int64_t> selfTimes(const std::vector<Span>& spans);

/**
 * selfTimeNs of each window whose children are not linked to it by
 * parent (a window timed by another source, such as a service event
 * stream): its children are the `spans` on the window's own thread.
 * Spans on other threads ran beside the window and take nothing off
 * its self time.
 */
std::vector<int64_t> windowSelfTimes(const std::vector<Span>& windows,
                                     const std::vector<Span>& spans);

/**
 * Write spans as a Chrome trace (chrome://tracing, Perfetto): one
 * complete event per span, tracks by thread, compile id and
 * allocations in the event args. Spans named in `omit` are left out.
 * @return false when the file cannot be written.
 */
bool writeChromeTrace(const std::string& path,
                      const std::vector<Span>& spans,
                      const std::vector<std::string>& names,
                      const std::vector<std::string>& omit = {});

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
