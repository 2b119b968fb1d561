// service-stream: Poisson arrivals of small circuits into one
// CompileService over a sharded fleet, then batch drains.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "apps/qft.h"
#include "compiler/service.h"
#include "traced_pipeline.h"
#include "verify.h"
#include "workload_common.h"

namespace perfbench {

using namespace qiset;

namespace {

/** Calibration seed of the 2x2 chiplet shard. */
constexpr uint64_t kChipletSeed = 77;
/**
 * Set-ups (inputs, fleet, service start and stop: about ten
 * milliseconds each) taken before the stream and again after the
 * drains, so the median covers the run.
 */
constexpr int kSetupRepeats = 25;
/**
 * Host-speed probes (2 ms each) on the generator thread: at most one
 * per kProbeEvery, and only in a gap of at least kProbeGap before the
 * next arrival, so a probe never delays a request.
 */
constexpr std::chrono::milliseconds kProbeEvery{50};
constexpr std::chrono::milliseconds kProbeGap{10};
/**
 * Pool size, share of the run spent in the open loop, drain size and
 * drains run in turn (the wall time reported is their median).
 */
constexpr int kPoolSize = 120;
constexpr double kStreamShare = 0.5;
constexpr size_t kDrainJobs = 3000;
constexpr size_t kDrains = 5;

struct ServiceInputs
{
    Device sycamore;
    Device chiplet;
    GateSet set;
    /** Small circuits requests draw from, with repetition. */
    std::vector<Circuit> pool;
};

ServiceInputs
serviceInputs(uint64_t seed)
{
    // Sizes cycle through each family's range and shapes are per-slot
    // constants, so every seed draws the same mix of work.
    Rng rng(seed);
    std::vector<Circuit> pool;
    for (int i = 0; i < kPoolSize; ++i) {
        int k = i / 3;
        switch (i % 3) {
        case 0: {
            int n = 6 + k % 6;
            pool.push_back(makeQftCircuitOnInput(
                n, static_cast<size_t>(rng.uniformInt(0, (1 << n) - 1))));
            break;
        }
        case 1:
            pool.push_back(shapedQaoa(8 + k % 4, 100 + i, rng));
            break;
        default:
            pool.push_back(shapedQv(6 + k % 3, 100 + i, rng));
            break;
        }
    }
    Rng chiplet_rng(kChipletSeed);
    ChipletSpec spec; // 2x2 cores of 2x3 qubits
    return {sycamore(), makeChipletDevice(spec, chiplet_rng),
            isa::singleTypeSet(3), std::move(pool)};
}

/** Arrival schedule and the pool index of every request. */
struct Traffic
{
    std::vector<int64_t> due_ns;
    std::vector<int> stream_pick;
    std::vector<int> drain_pick;
};

Traffic
serviceTraffic(uint64_t seed, double rate, double stream_s)
{
    Traffic traffic;
    traffic.due_ns = poissonDueTimes(rate, stream_s, seed);
    // Requests walk the pool in seeded shuffled rounds: each circuit is
    // requested equally often, so the seed moves the order of the work,
    // not its mix.
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<int> round;
    auto next = [&] {
        if (round.empty())
            round = rng.permutation(kPoolSize);
        int pick = round.back();
        round.pop_back();
        return pick;
    };
    for (size_t i = 0; i < traffic.due_ns.size(); ++i)
        traffic.stream_pick.push_back(next());
    round.clear();
    for (size_t i = 0; i < kDrainJobs; ++i)
        traffic.drain_pick.push_back(next());
    return traffic;
}

CompileOptions
serviceOptions(const std::string& decomposition)
{
    CompileOptions options;
    options.decomposition = decomposition;
    options.routing = "sabre";
    return options;
}

DeviceFleet
serviceFleet(const ServiceInputs& in, const CompileOptions& options)
{
    DeviceFleet fleet(options);
    fleet.addRegions(in.sycamore, 4, options);
    // Multi-core couplings force the teleport router on this shard.
    fleet.addDevice(in.chiplet, options, "chiplet-2x2");
    return fleet;
}

size_t
serviceWorkers()
{
    unsigned cores = std::thread::hardware_concurrency();
    return cores > 1 ? cores - 1 : 1;
}

/** One request's record, written by its completion callback. */
struct JobRecord
{
    int pick = 0;
    OpenLoopTiming timing;
    double submit_us = 0.0;
    bool done = false;
    std::string status;
    int shard = -1;
    uint64_t hash = 0;
    int two_qubit = 0;
    double fidelity = 0.0;
    double queue_ms = 0.0;
    double compile_ms = 0.0;
    int swaps = 0;
    int teleports = 0;
    double blocks = 0.0;
};

/** Counts completion callbacks. */
class Completions
{
  public:
    void add()
    {
        std::lock_guard<std::mutex> lock(m_);
        ++count_;
        cv_.notify_all();
    }
    /**
     * Return once `n` callbacks have run; with `speed`, probe the
     * host's speed every kProbeEvery meanwhile.
     */
    void wait(size_t n, HostSpeed* speed)
    {
        std::unique_lock<std::mutex> lock(m_);
        while (!cv_.wait_for(lock, kProbeEvery, [&] { return count_ >= n; }))
            if (speed) {
                lock.unlock();
                speed->probe(1);
                lock.lock();
            }
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    size_t count_ = 0;
};

struct ServiceLeg
{
    std::vector<JobRecord> stream;
    /** kDrains batches of the same drain_pick requests, in turn. */
    std::vector<JobRecord> drain;
    /** Start of the stream (due times count from it). */
    Clock::time_point epoch;
    /** Start and wall time of each drain. */
    std::vector<Clock::time_point> drain_epochs;
    std::vector<double> drain_s;
    ProfileCacheStats cache;
    uint64_t events_dropped = 0;
    std::vector<ServiceEvent> events;
    /** Recorder clock minus event-stream clock. */
    int64_t events_offset_ns = 0;
    std::vector<std::string> pass_names;
};

CompileRequest
requestFor(const ServiceInputs& in, JobRecord& record,
           Clock::time_point epoch, Completions& completions)
{
    CompileRequest request;
    request.circuits.push_back(in.pool[static_cast<size_t>(record.pick)]);
    request.on_complete = [&record, epoch, &completions](CompileJob job) {
        record.timing.done_ns = nsSince(epoch);
        JobStatus status = job.poll();
        record.status = toString(status);
        if (status == JobStatus::Done) {
            const CompileResult& result = job.results().front();
            CompileJobStats stats = job.stats();
            record.done = true;
            record.shard = stats.shards.front();
            record.hash = resultHash(result);
            record.two_qubit = result.two_qubit_count;
            record.fidelity = result.estimated_fidelity;
            record.queue_ms = stats.queue_wait_ns_max * 1e-6;
            record.compile_ms = stats.compile_wall_ms;
            record.swaps = result.swaps_inserted;
            record.teleports = result.teleports_inserted;
            record.blocks = consolidatedBlocks(result);
        }
        completions.add();
    };
    return request;
}

/**
 * One open-loop stream followed by kDrains batch drains, on a service
 * built by the caller. Records outlive the service's callbacks: the
 * function waits for every completion before returning.
 */
ServiceLeg
serviceLeg(CompileService& service, ProfileCache& cache,
           const ServiceInputs& in, const Traffic& traffic,
           EventStream* events, HostSpeed* speed)
{
    ServiceLeg leg;
    ProfileCacheStats before = cache.stats();
    leg.stream.resize(traffic.due_ns.size());
    leg.drain.resize(traffic.drain_pick.size() * kDrains);
    Completions completions;

    Clock::time_point epoch = Clock::now();
    for (size_t i = 0; i < leg.stream.size(); ++i) {
        JobRecord& record = leg.stream[i];
        record.pick = traffic.stream_pick[i];
        record.timing.due_ns = traffic.due_ns[i];
        Clock::time_point due =
            epoch + std::chrono::nanoseconds(record.timing.due_ns);
        Clock::time_point now = Clock::now();
        if (speed && due - now >= kProbeGap &&
            (speed->probes() == 0 ||
             now - speed->lastProbe() >= kProbeEvery))
            speed->probe(1);
        std::this_thread::sleep_until(due);
        CompileRequest request = requestFor(in, record, epoch, completions);
        record.timing.sent_ns = nsSince(epoch);
        service.submit(std::move(request));
        record.submit_us = (nsSince(epoch) - record.timing.sent_ns) * 1e-3;
    }
    completions.wait(leg.stream.size(), speed);
    leg.epoch = epoch;

    const size_t batch = traffic.drain_pick.size();
    for (size_t d = 0; d < kDrains; ++d) {
        Clock::time_point drain_epoch = Clock::now();
        for (size_t i = 0; i < batch; ++i) {
            JobRecord& record = leg.drain[d * batch + i];
            record.pick = traffic.drain_pick[i];
            service.submit(
                requestFor(in, record, drain_epoch, completions));
        }
        completions.wait(leg.stream.size() + (d + 1) * batch, speed);
        int64_t last_ns = 0;
        for (size_t i = 0; i < batch; ++i)
            last_ns = std::max(last_ns,
                               leg.drain[d * batch + i].timing.done_ns);
        leg.drain_epochs.push_back(drain_epoch);
        leg.drain_s.push_back(last_ns * 1e-9);
    }

    ProfileCacheStats after = cache.stats();
    leg.cache.hits = after.hits - before.hits;
    leg.cache.misses = after.misses - before.misses;
    leg.cache.entries = after.entries;
    if (events) {
        leg.events_dropped = events->dropped();
        leg.pass_names = events->passNames();
    }
    return leg;
}

/**
 * A fresh service over a fresh cache, then one leg on it. With
 * `spans`, the service publishes to an event stream, whose timestamps
 * are moved onto the recorder's clock.
 */
ServiceLeg
runServiceLeg(const ServiceInputs& in, const Traffic& traffic,
              const std::string& decomposition, const SpanRecorder* spans,
              HostSpeed* speed = nullptr)
{
    ProfileCache cache;
    std::unique_ptr<EventStream> events;
    std::unique_ptr<EventRecorder> drainer;
    CompileServiceOptions options;
    options.workers = serviceWorkers();
    options.cache = &cache;
    int64_t offset_ns = 0;
    if (spans) {
        events = std::make_unique<EventStream>();
        offset_ns = spans->nowNs() - static_cast<int64_t>(events->nowNs());
        drainer = std::make_unique<EventRecorder>(*events);
        options.events = events.get();
    }
    ServiceLeg leg;
    {
        CompileService service(
            serviceFleet(in, serviceOptions(decomposition)), in.set,
            options);
        leg = serviceLeg(service, cache, in, traffic, events.get(), speed);
    }
    if (drainer) {
        drainer->stop();
        leg.events = drainer->takeEvents();
        leg.events_offset_ns = offset_ns;
    }
    return leg;
}

/**
 * Check every output against the reference compile of its (circuit,
 * shard) pair — compileCircuit on the shard's device and options —
 * and each reference against the source circuit.
 */
void
verifyService(const ServiceInputs& in,
              const std::vector<const ServiceLeg*>& legs, Report& report)
{
    DeviceFleet fleet = serviceFleet(in, serviceOptions("auto"));
    ProfileCache cache;
    std::map<std::pair<int, int>, uint64_t> reference;
    uint64_t hash = kFnvBasis;
    for (const ServiceLeg* leg : legs)
        for (const std::vector<JobRecord>* records :
             {&leg->stream, &leg->drain})
            for (const JobRecord& record : *records) {
                if (!record.done) {
                    report.attempt(false, "job ended " + record.status);
                    continue;
                }
                auto key = std::make_pair(record.pick, record.shard);
                auto it = reference.find(key);
                if (it == reference.end()) {
                    const Shard& shard =
                        fleet.shard(static_cast<size_t>(record.shard));
                    const Circuit& app =
                        in.pool[static_cast<size_t>(record.pick)];
                    CompileResult ref = compileCircuit(
                        app, shard.device, in.set, cache, shard.options);
                    std::string why =
                        verifyOutput(ref, app, shard.device, in.set);
                    report.attempt(why.empty(), "pool circuit " +
                                                    std::to_string(key.first) +
                                                    " on " + shard.name +
                                                    ": " + why);
                    it = reference.emplace(key, resultHash(ref)).first;
                }
                report.attempt(record.hash == it->second,
                               "service output of pool circuit " +
                                   std::to_string(record.pick) +
                                   " differs from its reference compile");
            }
    for (const auto& [key, ref_hash] : reference)
        hash = fnv1a(fnv1a(fnv1a(hash, static_cast<uint64_t>(key.first)),
                           static_cast<uint64_t>(key.second)),
                     ref_hash);
    report.detail("outputs_hash", jsonString(hexHash(hash)));
    report.detail("reference_pairs", std::to_string(reference.size()));
}

/**
 * Pass and job spans of the service's event log, added to the trace,
 * and the passes' self times. A worker's span ids match its event
 * ids, so the decomposition-engine spans a worker recorded inside its
 * own translation pass are that pass's children; engine calls that
 * other idle workers ran for it in parallel take nothing off it.
 */
void
addEventSpans(const ServiceLeg& leg, SpanRecorder& recorder,
              LayerFigures& figures)
{
    std::vector<Span> engine_spans;
    {
        std::vector<Span> spans = recorder.spans();
        std::vector<std::string> names = recorder.names();
        for (const Span& span : spans)
            if (names.at(span.name).rfind("nuop.", 0) == 0)
                engine_spans.push_back(span);
    }
    std::vector<Span> translations;
    std::map<std::tuple<uint64_t, int32_t, int32_t>, uint64_t> open;
    for (const ServiceEvent& event : leg.events) {
        auto key = std::make_tuple(event.job, event.circuit, event.pass);
        bool begin = event.type == ServiceEventType::PassBegin ||
                     event.type == ServiceEventType::Dispatch;
        bool end = event.type == ServiceEventType::PassComplete ||
                   event.type == ServiceEventType::Complete;
        if (begin) {
            open[key] = event.ns;
        } else if (end && open.count(key)) {
            Span span;
            span.name = recorder.nameId(
                event.pass >= 0 ? leg.pass_names.at(event.pass)
                                : std::string("service.job"));
            span.compile = event.job;
            span.thread = event.worker + 1;
            span.start_ns =
                static_cast<int64_t>(open[key]) + leg.events_offset_ns;
            span.end_ns =
                static_cast<int64_t>(event.ns) + leg.events_offset_ns;
            recorder.add(span);
            if (event.pass >= 0 &&
                leg.pass_names.at(event.pass) == "translation")
                translations.push_back(span);
            else if (event.pass >= 0)
                figures.self_ms[leg.pass_names.at(event.pass)] += event.a;
            open.erase(key);
        }
    }
    for (int64_t self : windowSelfTimes(translations, engine_spans))
        figures.self_ms["translation"] += self * 1e-6;
}

} // namespace

uint64_t
serviceInputsHash(uint64_t seed)
{
    uint64_t hash = hashCircuits(serviceInputs(seed).pool);
    // One second of traffic at a nominal rate covers the schedule.
    Traffic traffic = serviceTraffic(seed, 100.0, 1.0);
    for (int64_t due : traffic.due_ns)
        hash = fnv1a(hash, static_cast<uint64_t>(due));
    for (int pick : traffic.stream_pick)
        hash = fnv1a(hash, static_cast<uint64_t>(pick));
    return hash;
}

void
runServiceStream(const RunConfig& config, Report& report)
{
    if (!(config.service_rate > 0.0))
        throw std::invalid_argument(
            "service-stream needs --service-rate > 0");
    double stream_s = config.seconds * kStreamShare;
    if (config.trace)
        stream_s /= 2.0; // two legs share the run
    ServiceInputs in = serviceInputs(config.seed);
    Traffic traffic = serviceTraffic(config.seed, config.service_rate,
                                     stream_s);
    SetupTimes setup;
    auto setUp = [&] {
        ServiceInputs again = serviceInputs(config.seed);
        Traffic traffic_again = serviceTraffic(
            config.seed, config.service_rate, stream_s);
        CompileServiceOptions options;
        options.workers = serviceWorkers();
        CompileService service(serviceFleet(again, serviceOptions("auto")),
                               again.set, options);
    };
    HostSpeed speed;
    if (!config.trace)
        setup.take(kSetupRepeats, speed, 1, setUp);
    checkInputs(config.workload, config.seed, report);
    report.detail("workers", std::to_string(serviceWorkers()));
    report.detail("rate_per_s", jsonNumber(config.service_rate));

    if (config.trace) {
        ServiceLeg untraced = runServiceLeg(in, traffic, "auto", nullptr);
        SpanRecorder recorder;
        registerTracedStrategies(recorder);
        AllocTotals alloc_before = allocationTotals();
        setAllocationCounting(true);
        ServiceLeg traced = runServiceLeg(
            in, traffic, std::string(kTracedPrefix) + "auto", &recorder);
        setAllocationCounting(false);
        AllocTotals alloc_after = allocationTotals();
        verifyService(in, {&untraced, &traced}, report);

        LayerFigures figures;
        figures.addSpans(recorder.spans(), recorder.names());
        addEventSpans(traced, recorder, figures);
        for (const std::vector<JobRecord>* records :
             {&traced.stream, &traced.drain})
            for (const JobRecord& record : *records)
                figures.addCompile(record.swaps, record.teleports,
                                   record.blocks);
        // Queueing figures of the open loop only: the drain queues its
        // whole batch at once by design.
        for (const JobRecord& record : traced.stream) {
            figures.submit_us.push_back(record.submit_us);
            figures.queue_ms.push_back(record.queue_ms);
            figures.service_compile_ms.push_back(record.compile_ms);
        }
        figures.cache = traced.cache;
        figures.redundant_misses =
            static_cast<double>(traced.cache.misses) -
            static_cast<double>(traced.cache.entries);
        figures.allocs["compile"] =
            static_cast<double>(alloc_after.count - alloc_before.count);
        figures.bytes["compile"] =
            static_cast<double>(alloc_after.bytes - alloc_before.bytes);
        figures.events_dropped = static_cast<double>(traced.events_dropped);
        figures.overhead_frac =
            median(traced.drain_s) / median(untraced.drain_s) - 1.0;
        emitLayers(figures, report);
        writeTrace(config, recorder, report);
        return;
    }

    ServiceLeg leg = runServiceLeg(in, traffic, "auto", nullptr, &speed);
    setup.take(kSetupRepeats, speed, 1, setUp);
    verifyService(in, {&leg}, report);

    std::vector<double> latency, lateness, compile_ms;
    double two_qubit = 0.0, log_fidelity = 0.0;
    // Each job is scaled by the probes nearest its completion.
    for (const JobRecord& record : leg.stream) {
        double k = speed.scaleAt(leg.epoch + std::chrono::nanoseconds(
                                                 record.timing.done_ns));
        latency.push_back(record.timing.latencyMs() * k);
        lateness.push_back(record.timing.latenessMs());
        compile_ms.push_back(record.compile_ms * k);
        two_qubit += record.two_qubit;
        log_fidelity += std::log(record.fidelity);
    }
    std::vector<double> drains;
    for (size_t d = 0; d < kDrains; ++d)
        drains.push_back(speed.atReference(
            leg.drain_s[d], leg.drain_epochs[d],
            leg.drain_epochs[d] + std::chrono::nanoseconds(static_cast<int64_t>(
                                      leg.drain_s[d] * 1e9))));
    double drain_s = median(drains);
    report.metric("setup_s", setup.median(speed));
    report.metric("wall_s", drain_s);
    report.metric("compile_ms.p50", percentile(compile_ms, 0.5));
    report.metric("compile_ms.p90", percentile(compile_ms, kTailQ));
    report.metric("compiles_per_s",
                  static_cast<double>(kDrainJobs) / drain_s);
    report.metric("latency_ms.p50", percentile(latency, 0.5));
    report.metric("two_qubit_total", two_qubit);
    report.metric("est_fidelity_gmean",
                  std::exp(log_fidelity /
                           static_cast<double>(leg.stream.size())));
    report.metric("peak_rss_mb", peakRssMb());
    recordHostSpeed(speed, report);
    report.detail("samples", std::to_string(latency.size()));
    report.detail("p90_samples_beyond",
                  std::to_string(samplesBeyond(latency.size(), kTailQ)));
    // The open loop's latency tail is a detail: between runs it follows
    // how promptly the host wakes idle workers, which the host-speed
    // probes do not see (spread 0.26 over ten seeds against 0.13 for
    // the median).
    report.detail("latency_ms_p90", jsonNumber(percentile(latency, kTailQ)));
    report.detail("latency_ms_p99", jsonNumber(percentile(latency, 0.99)));
    report.detail("lateness_ms",
                  "{\"p50\": " + jsonNumber(percentile(lateness, 0.5)) +
                      ", \"p99\": " + jsonNumber(percentile(lateness, 0.99)) +
                      ", \"max\": " + jsonNumber(percentile(lateness, 1.0)) +
                      "}");
    report.detail("drain_jobs", std::to_string(kDrainJobs));
    std::string walls = "[";
    for (double wall : drains)
        walls += (walls.size() > 1 ? ", " : "") + jsonNumber(wall);
    report.detail("drain_s", walls + "]");
}

} // namespace perfbench
