// Unit tests of the benchmark binary: percentile selection, span
// self-time arithmetic, open-loop due-time accounting, the output
// schema, and the tracing and verification wrappers it relies on.

#include <cctype>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/qft.h"
#include "apps/qv.h"
#include "compiler/pipeline.h"
#include "host_speed.h"
#include "metrics/event_stream.h"
#include "report.h"
#include "stats.h"
#include "trace.h"
#include "traced_pipeline.h"
#include "verify.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace qiset;

// ------------------------------------------------ percentile selection

TEST(Percentile, NearestRankOnKnownSamples)
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(i);
    EXPECT_EQ(percentile(samples, 0.5), 50.0);
    EXPECT_EQ(percentile(samples, 0.9), 90.0);
    EXPECT_EQ(percentile(samples, 0.99), 99.0);
    EXPECT_EQ(percentile(samples, 1.0), 100.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, ReportedTailsKeepTenSamplesBeyond)
{
    // isa-sweep: 112 compiles per sweep support p90, not p99.
    EXPECT_EQ(samplesBeyond(112, 0.90), 11u);
    EXPECT_TRUE(tailSupported(112, 0.90));
    EXPECT_FALSE(tailSupported(112, 0.99));
    // p99 needs a thousand samples.
    EXPECT_FALSE(tailSupported(999, 0.99));
    EXPECT_TRUE(tailSupported(1000, 0.99));
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    for (size_t n : {1u, 10u, 99u, 100u, 1001u})
        EXPECT_EQ(nearestRank(n, 1.0), n);
}

// ------------------------------------------------ span self time

TEST(SelfTime, ChildrenCoverageIsSubtractedOnce)
{
    EXPECT_EQ(selfTimeNs(0, 100, {}), 100);
    EXPECT_EQ(selfTimeNs(0, 100, {{10, 20}, {30, 50}}), 70);
    // Overlapping children (parallel work) count their union.
    EXPECT_EQ(selfTimeNs(0, 100, {{10, 40}, {20, 50}, {45, 60}}), 50);
    // A child sticking out of the parent is clipped to it.
    EXPECT_EQ(selfTimeNs(10, 100, {{0, 30}, {90, 120}}), 60);
    // Fully covered, and nested children inside children.
    EXPECT_EQ(selfTimeNs(0, 100, {{0, 100}, {20, 30}}), 0);
    EXPECT_EQ(selfTimeNs(5, 5, {}), 0);
}

TEST(SelfTime, RecorderNestsSpansAndAttributesAllocations)
{
    SpanRecorder recorder;
    uint32_t outer_name = recorder.nameId("outer");
    uint32_t inner_name = recorder.nameId("inner");
    EXPECT_EQ(recorder.nameId("outer"), outer_name);

    setAllocationCounting(true);
    size_t outer = recorder.open(outer_name, 7);
    auto before = std::make_unique<std::vector<int>>(16);
    size_t inner = recorder.open(inner_name);
    auto during = std::make_unique<std::vector<int>>(64);
    recorder.close(inner);
    recorder.close(outer);
    setAllocationCounting(false);

    std::vector<Span> spans = recorder.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[inner].parent, static_cast<int64_t>(outer));
    EXPECT_EQ(spans[inner].compile, 7u); // inherited from the parent
    // Two allocations each (the vector object and its buffer); the
    // outer span includes its child's.
    EXPECT_EQ(spans[inner].allocs, 2u);
    EXPECT_EQ(spans[outer].allocs, 4u);
    EXPECT_GE(spans[inner].bytes, 64 * sizeof(int));

    std::vector<int64_t> self = selfTimes(spans);
    EXPECT_EQ(self[inner], spans[inner].end_ns - spans[inner].start_ns);
    EXPECT_EQ(self[outer],
              (spans[outer].end_ns - spans[outer].start_ns) -
                  (spans[inner].end_ns - spans[inner].start_ns));
    EXPECT_THROW(recorder.close(outer), std::logic_error);
}

Span
spanOn(uint32_t thread, int64_t start, int64_t end)
{
    Span span;
    span.thread = thread;
    span.start_ns = start;
    span.end_ns = end;
    return span;
}

TEST(SelfTime, WindowsSubtractOnlyTheirOwnThreadsSpans)
{
    // A translation pass on worker 1 over [0, 100): its own engine
    // calls overlap each other; idle workers 2 and 3 ran engine calls
    // for it in parallel, over the whole window and beyond.
    std::vector<Span> windows = {spanOn(1, 0, 100), spanOn(2, 200, 300)};
    std::vector<Span> spans = {
        spanOn(1, 10, 30), spanOn(1, 20, 40), spanOn(2, 0, 100),
        spanOn(3, 5, 95),  spanOn(3, 50, 90), spanOn(1, 90, 150),
        spanOn(2, 250, 260)};
    std::vector<int64_t> self = windowSelfTimes(windows, spans);
    ASSERT_EQ(self.size(), 2u);
    // 100 minus the union [10, 40) and the clipped [90, 100); the
    // parallel spans on threads 2 and 3 would drive it below zero.
    EXPECT_EQ(self[0], 60);
    EXPECT_EQ(self[1], 90);
    // No spans on the thread: the whole window is self time.
    EXPECT_EQ(windowSelfTimes({spanOn(4, 0, 50)}, spans).front(), 50);
}

TEST(SelfTime, RecorderThreadIdsMatchEventStreamWorkers)
{
    SpanRecorder recorder;
    size_t span = recorder.open(recorder.nameId("span"));
    recorder.close(span);
    EXPECT_EQ(recorder.spans().front().thread,
              EventStream::currentWorker() + 1);
}

// ------------------------------------------------ open-loop schedule

TEST(OpenLoop, PoissonScheduleIsSeededAndInRange)
{
    std::vector<int64_t> a = poissonDueTimes(600.0, 2.0, 5);
    EXPECT_EQ(a, poissonDueTimes(600.0, 2.0, 5));
    EXPECT_NE(a, poissonDueTimes(600.0, 2.0, 6));
    ASSERT_FALSE(a.empty());
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_LE(a[i - 1], a[i]);
    EXPECT_GE(a.front(), 0);
    EXPECT_LT(a.back(), 2'000'000'000);
    // 1200 expected arrivals; five standard deviations either way.
    EXPECT_NEAR(static_cast<double>(a.size()), 1200.0,
                5.0 * std::sqrt(1200.0));
}

TEST(OpenLoop, LatencyRunsFromTheDueTime)
{
    OpenLoopTiming late{1'000'000, 3'000'000, 4'500'000};
    EXPECT_DOUBLE_EQ(late.latencyMs(), 3.5); // not 1.5 from sending
    EXPECT_DOUBLE_EQ(late.latenessMs(), 2.0);
    OpenLoopTiming on_time{1'000'000, 1'000'000, 2'000'000};
    EXPECT_DOUBLE_EQ(on_time.latenessMs(), 0.0);
    EXPECT_DOUBLE_EQ(on_time.latencyMs(), 1.0);
}

// ------------------------------------------------ host-speed reference

TEST(HostSpeed, SamplesScaleByTheProbesNearestThem)
{
    using std::chrono::seconds;
    HostSpeed::TimePoint t0{};
    HostSpeed speed;
    // Ten seconds at the reference speed, then eleven at half of it.
    for (int s = 0; s < 21; ++s)
        speed.add(t0 + seconds(s), s < 10 ? kReferenceMs : 2 * kReferenceMs);
    EXPECT_DOUBLE_EQ(speed.scaleAt(t0 + seconds(2)), 1.0);
    EXPECT_DOUBLE_EQ(speed.scaleAt(t0 + seconds(17)), 0.5);
    // 40 ms measured across seconds 15-16 took 20 ms at reference speed.
    EXPECT_DOUBLE_EQ(
        speed.atReference(40.0, t0 + seconds(15), t0 + seconds(16)), 20.0);
    // The run as a whole: the median of all 21 probes.
    EXPECT_DOUBLE_EQ(speed.scale(), 0.5);
    EXPECT_EQ(speed.probes(), 21u);
}

TEST(HostSpeed, FewProbesAllCountAndNoneIsAnError)
{
    HostSpeed speed;
    EXPECT_THROW(speed.scale(), std::invalid_argument);
    HostSpeed::TimePoint t0{};
    for (double ms : {1.0, 4.0, 4.0})
        speed.add(t0, ms * kReferenceMs);
    EXPECT_DOUBLE_EQ(speed.scaleAt(t0 + std::chrono::hours(1)), 0.25);
    speed.probe(2);
    EXPECT_EQ(speed.probes(), 5u);
    EXPECT_GT(referenceKernelMs(), 0.0);
}

// ------------------------------------------------ output schema

/** Minimal JSON reader: objects, strings, numbers and booleans. */
struct Json
{
    enum Kind { Object, String, Number, Bool } kind = Object;
    std::map<std::string, Json> members;
    std::vector<std::string> order;
    std::string text;
    double number = 0.0;
    bool boolean = false;
};

class JsonReader
{
  public:
    explicit JsonReader(const std::string& s) : s_(s) {}

    Json document()
    {
        Json value = parse();
        skip();
        if (pos_ != s_.size())
            throw std::runtime_error("trailing characters");
        return value;
    }

  private:
    void skip()
    {
        while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(
                                       s_[pos_])))
            ++pos_;
    }

    void expect(char c)
    {
        skip();
        if (pos_ >= s_.size() || s_[pos_] != c)
            throw std::runtime_error(std::string("expected ") + c);
        ++pos_;
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            out += s_[pos_++];
        }
        expect('"');
        return out;
    }

    Json parse()
    {
        skip();
        Json value;
        if (s_.compare(pos_, 4, "true") == 0 ||
            s_.compare(pos_, 5, "false") == 0) {
            value.kind = Json::Bool;
            value.boolean = s_[pos_] == 't';
            pos_ += value.boolean ? 4 : 5;
        } else if (s_[pos_] == '"') {
            value.kind = Json::String;
            value.text = string();
        } else if (s_[pos_] == '{') {
            expect('{');
            skip();
            while (s_[pos_] != '}') {
                std::string key = string();
                expect(':');
                if (value.members.count(key))
                    throw std::runtime_error("duplicate key " + key);
                value.order.push_back(key);
                value.members[key] = parse();
                skip();
                if (s_[pos_] == ',')
                    expect(',');
                skip();
            }
            expect('}');
        } else {
            value.kind = Json::Number;
            size_t used = 0;
            value.number = std::stod(s_.substr(pos_), &used);
            pos_ += used;
        }
        return value;
    }

    const std::string& s_;
    size_t pos_ = 0;
};

Report
fullReport(bool trace)
{
    Report report;
    const std::vector<MetricSpec>& catalogue =
        trace ? perLayerMetrics() : endToEndMetrics();
    double value = 0.1;
    for (const MetricSpec& spec : catalogue)
        report.metric(spec.name, value += 1.0 / 3.0);
    report.attempt(true);
    report.attempt(true);
    return report;
}

TEST(OutputSchema, ResultLineCarriesExactlyTheCatalogue)
{
    for (bool trace : {false, true}) {
        Json result = JsonReader(fullReport(trace).resultLine(trace))
                          .document();
        EXPECT_EQ(result.order, (std::vector<std::string>{
                                    "correct", "attempted", "failed",
                                    "metrics"}));
        EXPECT_TRUE(result.members["correct"].boolean);
        EXPECT_EQ(result.members["attempted"].number, 2.0);
        EXPECT_EQ(result.members["failed"].number, 0.0);
        const Json& metrics = result.members["metrics"];
        const std::vector<MetricSpec>& catalogue =
            trace ? perLayerMetrics() : endToEndMetrics();
        ASSERT_EQ(metrics.order.size(), catalogue.size());
        for (const MetricSpec& spec : catalogue) {
            const Json& metric = metrics.members.at(spec.name);
            EXPECT_EQ(metric.order,
                      (std::vector<std::string>{"value", "unit"}));
            EXPECT_EQ(metric.members.at("value").kind, Json::Number);
            EXPECT_EQ(metric.members.at("unit").text, spec.unit);
        }
        // All digits kept: the first value reads back bit for bit.
        EXPECT_EQ(metrics.members.at(catalogue.front().name)
                      .members.at("value")
                      .number,
                  0.1 + 1.0 / 3.0);
    }
}

TEST(OutputSchema, CatalogueNamesFollowTheRules)
{
    std::map<std::string, int> seen;
    for (const auto* catalogue : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricSpec& spec : *catalogue) {
            EXPECT_EQ(seen[spec.name]++, 0) << spec.name;
            ASSERT_FALSE(spec.name.empty());
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(
                spec.name[0])));
            EXPECT_LE(spec.name.size(), 64u);
            for (char c : spec.name)
                EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                            c == '_' || c == '.' || c == '-')
                    << spec.name;
            EXPECT_LE(spec.unit.size(), 16u);
        }
    EXPECT_EQ(endToEndMetrics().front().name, "setup_s");
    EXPECT_EQ(endToEndMetrics().front().unit, "s");
}

TEST(OutputSchema, MissingOrExtraMetricsAreRefused)
{
    Report missing;
    missing.metric("setup_s", 1.0);
    EXPECT_THROW(missing.resultLine(false), std::logic_error);

    Report failed = fullReport(false);
    failed.attempt(false, "boom");
    Json result = JsonReader(failed.resultLine(false)).document();
    EXPECT_FALSE(result.members["correct"].boolean);
    EXPECT_EQ(result.members["failed"].number, 1.0);
    EXPECT_NE(failed.detailLine().find("boom"), std::string::npos);

    Report extra = fullReport(false);
    extra.metric("not_in_the_catalogue", 1.0);
    EXPECT_THROW(extra.resultLine(false), std::logic_error);

    Report bad;
    for (const MetricSpec& spec : endToEndMetrics())
        bad.metric(spec.name, std::nan(""));
    EXPECT_THROW(bad.resultLine(false), std::logic_error);
}

// ------------------------------------------------ determinism guard

TEST(Determinism, SeedsReproduceAndChangeInputs)
{
    for (const std::string& workload : workloadNames()) {
        EXPECT_EQ(workloadInputsHash(workload, 3),
                  workloadInputsHash(workload, 3))
            << workload;
        EXPECT_NE(workloadInputsHash(workload, 3),
                  workloadInputsHash(workload, 4))
            << workload;
    }
    EXPECT_THROW(workloadInputsHash("nope", 1), std::invalid_argument);
}

// ------------------------------------------------ tracing wrappers

class Traced : public ::testing::Test
{
  protected:
    static SpanRecorder& recorder()
    {
        static SpanRecorder* shared = [] {
            auto* r = new SpanRecorder;
            registerTracedStrategies(*r);
            return r;
        }();
        return *shared;
    }
};

TEST_F(Traced, TracedCompileMatchesTheUntracedOne)
{
    Rng device_rng(10);
    Device device = makeSycamore(device_rng);
    GateSet set = isa::googleSet(1);
    Circuit app = makeQftCircuit(5);
    for (const char* engine : {"nuop", "auto"}) {
        CompileOptions options;
        options.decomposition = engine;
        ProfileCache plain_cache, traced_cache;
        CompileResult plain =
            compileCircuit(app, device, set, plain_cache, options);
        size_t first = recorder().spans().size();
        PassManager pipeline = tracedPipeline(options, recorder());
        CompileResult traced =
            compileTraced(pipeline, app, device, set, traced_cache,
                          options, recorder(), 42);
        EXPECT_EQ(resultHash(plain), resultHash(traced)) << engine;
        EXPECT_EQ(plain_cache.stats().entries, traced_cache.stats().entries);

        // One span per pass, in pipeline order, under the compile span.
        std::vector<Span> spans = recorder().spans();
        std::vector<std::string> names = recorder().names();
        std::vector<std::string> passes;
        size_t profiles = 0;
        for (size_t i = first; i < spans.size(); ++i) {
            const std::string& name = names[spans[i].name];
            EXPECT_EQ(spans[i].compile, 42u) << name;
            if (name.rfind("nuop.profile.", 0) == 0)
                ++profiles;
            if (spans[i].parent >= 0 &&
                names[spans[static_cast<size_t>(spans[i].parent)].name] ==
                    "compile")
                passes.push_back(name);
        }
        EXPECT_EQ(passes, defaultPipeline(options).passNames());
        EXPECT_EQ(profiles, traced_cache.stats().misses) << engine;
    }
}

// ------------------------------------------------ output verification

TEST(Verify, GenuineOutputPassesAndBrokenOnesFail)
{
    Rng device_rng(10);
    Device device = makeSycamore(device_rng);
    GateSet set = isa::singleTypeSet(3);
    Rng rng(1);
    Circuit app = makeQuantumVolumeCircuit(5, rng);
    ProfileCache cache;
    CompileResult good = compileCircuit(app, device, set, cache,
                                        CompileOptions());
    EXPECT_EQ(verifyOutput(good, app, device, set), "");
    EXPECT_GE(noiselessOverlap(good, app), good.estimated_fidelity);

    CompileResult bad_layout = good;
    bad_layout.final_positions[0] = bad_layout.final_positions[1];
    EXPECT_NE(checkStructure(bad_layout, app, device, set), "");

    CompileResult bad_count = good;
    ++bad_count.two_qubit_count;
    EXPECT_NE(checkStructure(bad_count, app, device, set), "");

    // Compiled for CZ, checked against iSWAP: non-native labels.
    EXPECT_NE(checkStructure(good, app, device, isa::singleTypeSet(4)), "");

    // The wrong source circuit no longer overlaps.
    Circuit other = makeQuantumVolumeCircuit(5, rng);
    EXPECT_NE(verifyOutput(good, other, device, set), "");
}

TEST(Verify, HashesSeeEveryOutputField)
{
    Rng device_rng(10);
    Device device = makeSycamore(device_rng);
    ProfileCache cache;
    CompileResult result = compileCircuit(makeQftCircuit(4), device,
                                          isa::singleTypeSet(3), cache,
                                          CompileOptions());
    uint64_t hash = resultHash(result);
    CompileResult moved = result;
    moved.estimated_fidelity = std::nextafter(moved.estimated_fidelity, 0.0);
    EXPECT_NE(resultHash(moved), hash);
    moved = result;
    std::swap(moved.physical[0], moved.physical[1]);
    EXPECT_NE(resultHash(moved), hash);
    EXPECT_EQ(hexHash(0x1f).size(), 18u);
}

} // namespace
} // namespace perfbench
