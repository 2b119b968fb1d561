#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

#include "metrics/event_stream.h"

namespace perfbench {

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_next_recorder{1};

constexpr int kMaxDepth = 32;

/**
 * Per-thread tracing state. Trivially constructible and destructible,
 * so the allocation hook may touch it at any point of a thread's life.
 */
struct ThreadState
{
    int64_t stack[kMaxDepth];
    int depth;
    /** Allocations since the innermost open span last flushed. */
    uint64_t allocs;
    uint64_t bytes;
    /** Set while the recorder does its own bookkeeping. */
    bool suspended;
    uint32_t id;
    /** Recorder the thread records into, and its buffer there. */
    uint64_t recorder;
    void* buffer;
};

thread_local ThreadState t_state;

uint32_t
threadId()
{
    if (t_state.id == 0)
        t_state.id = qiset::EventStream::currentWorker() + 1;
    return t_state.id;
}

/** Keeps the recorder's own allocations out of the counts. */
struct Suspend
{
    bool previous = t_state.suspended;
    Suspend() { t_state.suspended = true; }
    ~Suspend() { t_state.suspended = previous; }
};

} // namespace

void
noteAllocation(std::size_t bytes) noexcept
{
    if (!g_counting.load(std::memory_order_relaxed) || t_state.suspended)
        return;
    ++t_state.allocs;
    t_state.bytes += bytes;
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void
setAllocationCounting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

AllocTotals
allocationTotals()
{
    return {g_alloc_count.load(std::memory_order_relaxed),
            g_alloc_bytes.load(std::memory_order_relaxed)};
}

struct SpanRecorder::Buffer
{
    uint32_t thread = 0;
    std::vector<Span> spans;
};

SpanRecorder::SpanRecorder()
    : id_(g_next_recorder.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now())
{
}

SpanRecorder::~SpanRecorder() = default;

SpanRecorder::Buffer&
SpanRecorder::threadBuffer()
{
    ThreadState& t = t_state;
    if (t.recorder != id_) {
        if (t.depth != 0)
            throw std::logic_error("thread has another recorder's spans open");
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<Buffer>());
        buffers_.back()->thread = threadId();
        buffers_.back()->spans.reserve(4096);
        t.recorder = id_;
        t.buffer = buffers_.back().get();
    }
    return *static_cast<Buffer*>(t.buffer);
}

uint32_t
SpanRecorder::nameId(const std::string& name)
{
    Suspend quiet;
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<uint32_t>(i);
    names_.push_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
}

int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

size_t
SpanRecorder::open(uint32_t name, uint64_t compile)
{
    Suspend quiet;
    ThreadState& t = t_state;
    Buffer& buffer = threadBuffer();
    if (t.depth == kMaxDepth)
        throw std::logic_error("span nesting too deep");
    Span span;
    span.name = name;
    span.thread = buffer.thread;
    span.compile = compile;
    if (t.depth > 0) {
        Span& parent = buffer.spans[static_cast<size_t>(t.stack[t.depth - 1])];
        parent.allocs += t.allocs;
        parent.bytes += t.bytes;
        span.parent = t.stack[t.depth - 1];
        if (compile == 0)
            span.compile = parent.compile;
    }
    t.allocs = 0;
    t.bytes = 0;
    size_t index = buffer.spans.size();
    span.start_ns = nowNs();
    buffer.spans.push_back(span);
    t.stack[t.depth++] = static_cast<int64_t>(index);
    return index;
}

void
SpanRecorder::close(size_t index, int64_t rename)
{
    int64_t end = nowNs();
    Suspend quiet;
    ThreadState& t = t_state;
    if (t.recorder != id_ || t.depth == 0 ||
        t.stack[t.depth - 1] != static_cast<int64_t>(index))
        throw std::logic_error("span closed out of order");
    --t.depth;
    std::vector<Span>& spans = static_cast<Buffer*>(t.buffer)->spans;
    Span& span = spans[index];
    span.end_ns = end;
    if (rename >= 0)
        span.name = static_cast<uint32_t>(rename);
    span.allocs += t.allocs;
    span.bytes += t.bytes;
    t.allocs = 0;
    t.bytes = 0;
    if (span.parent >= 0) {
        Span& parent = spans[static_cast<size_t>(span.parent)];
        parent.allocs += span.allocs;
        parent.bytes += span.bytes;
    }
}

void
SpanRecorder::add(const Span& span)
{
    Suspend quiet;
    std::lock_guard<std::mutex> lock(mutex_);
    added_.push_back(span);
}

std::vector<Span>
SpanRecorder::spans() const
{
    Suspend quiet;
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) {
        int64_t offset = static_cast<int64_t>(all.size());
        for (Span span : buffer->spans) {
            if (span.parent >= 0)
                span.parent += offset;
            all.push_back(span);
        }
    }
    all.insert(all.end(), added_.begin(), added_.end());
    return all;
}

std::vector<std::string>
SpanRecorder::names() const
{
    Suspend quiet;
    std::lock_guard<std::mutex> lock(mutex_);
    return names_;
}

int64_t
selfTimeNs(int64_t start, int64_t end,
           std::vector<std::pair<int64_t, int64_t>> children)
{
    if (end <= start)
        return 0;
    std::sort(children.begin(), children.end());
    int64_t covered = 0;
    int64_t reach = start; // everything before `reach` is accounted
    for (auto [from, to] : children) {
        from = std::max(from, reach);
        to = std::min(to, end);
        if (to > from) {
            covered += to - from;
            reach = to;
        }
    }
    return (end - start) - covered;
}

std::vector<int64_t>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span& span : spans)
        if (span.parent >= 0 && span.end_ns >= 0)
            children[static_cast<size_t>(span.parent)].emplace_back(
                span.start_ns, span.end_ns);
    std::vector<int64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].end_ns >= 0)
            self[i] = selfTimeNs(spans[i].start_ns, spans[i].end_ns,
                                 std::move(children[i]));
    return self;
}

std::vector<int64_t>
windowSelfTimes(const std::vector<Span>& windows,
                const std::vector<Span>& spans)
{
    // Each thread's finished spans, by start.
    std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> by_thread;
    for (const Span& span : spans)
        if (span.end_ns >= 0)
            by_thread[span.thread].emplace_back(span.start_ns, span.end_ns);
    int64_t longest = 0;
    for (auto& [thread, intervals] : by_thread) {
        std::sort(intervals.begin(), intervals.end());
        for (auto [from, to] : intervals)
            longest = std::max(longest, to - from);
    }
    std::vector<int64_t> self;
    for (const Span& window : windows) {
        std::vector<std::pair<int64_t, int64_t>> children;
        auto it = by_thread.find(window.thread);
        if (it != by_thread.end()) {
            // A span reaching into the window starts at most `longest`
            // before it.
            const auto& intervals = it->second;
            auto from = std::lower_bound(
                intervals.begin(), intervals.end(),
                std::make_pair(window.start_ns - longest,
                               std::numeric_limits<int64_t>::min()));
            for (; from != intervals.end() && from->first < window.end_ns;
                 ++from)
                if (from->second > window.start_ns)
                    children.push_back(*from);
        }
        self.push_back(
            window.end_ns < 0
                ? 0
                : selfTimeNs(window.start_ns, window.end_ns,
                             std::move(children)));
    }
    return self;
}

bool
writeChromeTrace(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& names,
                 const std::vector<std::string>& omit)
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
    bool first = true;
    for (const Span& span : spans) {
        const std::string& name = names.at(span.name);
        if (span.end_ns < 0 ||
            std::find(omit.begin(), omit.end(), name) != omit.end())
            continue;
        std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"compile\":%llu,\"allocs\":%llu,\"bytes\":%llu}}",
                     first ? "" : ",", name.c_str(),
                     span.thread, span.start_ns * 1e-3,
                     (span.end_ns - span.start_ns) * 1e-3,
                     static_cast<unsigned long long>(span.compile),
                     static_cast<unsigned long long>(span.allocs),
                     static_cast<unsigned long long>(span.bytes));
        first = false;
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
}

} // namespace perfbench
