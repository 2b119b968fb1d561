// CompileService semantics: FIFO-within-priority dispatch ordering,
// cancel() before and after dispatch, deadline/backlog admission
// control, bit-identity of service results with compileCircuit, job
// telemetry (queue wait, shard ids, cache hit ratio) flowing through
// accumulatePassMetrics, cache persistence across service restarts,
// the measured compile-time term in arrival plans, non-finite input
// rejection at submit, and concurrent submitters hammering one service
// (the ASan/UBSan CI leg runs this file too, so data races fail
// loudly).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/qaoa.h"
#include "apps/qft.h"
#include "common/error.h"
#include "compiler/service.h"
#include "qc/gates.h"

namespace qiset {
namespace {

CompileOptions
fastCompile()
{
    CompileOptions opts;
    opts.nuop.max_layers = 4;
    opts.nuop.multistarts = 3;
    opts.nuop.exact_threshold = 1.0 - 1e-6;
    return opts;
}

Device
lineDevice(const std::string& name, int n, double fid)
{
    Device d(name, Topology::line(n));
    for (auto [a, b] : d.topology().edges()) {
        d.setEdgeFidelity(a, b, "S3", fid);
        d.setEdgeFidelity(a, b, "S4", fid - 0.005);
    }
    for (int q = 0; q < n; ++q)
        d.setOneQubitError(q, 0.0005);
    return d;
}

DeviceFleet
twoShardFleet()
{
    DeviceFleet fleet(fastCompile());
    fleet.addDevice(lineDevice("alpha", 4, 0.995));
    fleet.addDevice(lineDevice("beta", 4, 0.990));
    return fleet;
}

std::vector<Circuit>
makeWorkload(int circuits, int qubits, uint64_t seed = 501)
{
    std::vector<Circuit> apps;
    Rng rng(seed);
    for (int i = 0; i < circuits; ++i)
        apps.push_back(i % 2 == 0 ? makeQftCircuit(qubits)
                                  : makeRandomQaoaCircuit(qubits, rng));
    return apps;
}

CompileRequest
requestFor(std::vector<Circuit> circuits, int priority = 0)
{
    CompileRequest request;
    request.circuits = std::move(circuits);
    request.priority = priority;
    return request;
}

void
expectIdentical(const CompileResult& a, const CompileResult& b)
{
    EXPECT_EQ(a.physical, b.physical);
    EXPECT_EQ(a.initial_positions, b.initial_positions);
    EXPECT_EQ(a.final_positions, b.final_positions);
    EXPECT_EQ(a.swaps_inserted, b.swaps_inserted);
    EXPECT_EQ(a.two_qubit_count, b.two_qubit_count);
    EXPECT_EQ(a.type_usage, b.type_usage);
    EXPECT_DOUBLE_EQ(a.estimated_fidelity, b.estimated_fidelity);
    ASSERT_EQ(a.circuit.size(), b.circuit.size());
    for (size_t i = 0; i < a.circuit.size(); ++i) {
        ConstOpRef x = a.circuit.ops()[i];
        ConstOpRef y = b.circuit.ops()[i];
        EXPECT_EQ(x.qubits(), y.qubits());
        EXPECT_EQ(x.labelId(), y.labelId());
        EXPECT_DOUBLE_EQ(x.errorRate(), y.errorRate());
        EXPECT_EQ(x.unitary().maxAbsDiff(y.unitary()), 0.0);
    }
}

// --------------------------------------------------------- bit-identity

TEST(CompileService, ResultsBitIdenticalToCompileCircuit)
{
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet = twoShardFleet();
    std::vector<Circuit> apps = makeWorkload(6, 3);

    CompileServiceOptions options;
    options.workers = 4;
    CompileService service(fleet, set, options);

    std::vector<CompileJob> jobs;
    for (const Circuit& app : apps)
        jobs.push_back(service.submit(requestFor({app})));

    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        ASSERT_EQ(jobs[i].wait(), JobStatus::Done);
        const std::vector<CompileResult>& results = jobs[i].results();
        ASSERT_EQ(results.size(), 1u);
        int s = jobs[i].plan().assignments[0].shard;
        ASSERT_GE(s, 0);
        const Shard& shard = fleet.shard(static_cast<size_t>(s));
        ProfileCache solo_cache;
        CompileResult solo = compileCircuit(apps[i], shard.device, set,
                                            solo_cache, shard.options);
        expectIdentical(solo, results[0]);
    }
}

TEST(CompileService, InlineAndAsyncModesAgree)
{
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet = twoShardFleet();
    std::vector<Circuit> apps = makeWorkload(4, 3);

    CompileService inline_service(fleet, set, CompileServiceOptions());
    CompileJob inline_job = inline_service.submit(requestFor(apps));
    ASSERT_EQ(inline_job.wait(), JobStatus::Done);

    CompileServiceOptions async_options;
    async_options.workers = 4;
    CompileService async_service(fleet, set, async_options);
    CompileJob async_job = async_service.submit(requestFor(apps));
    ASSERT_EQ(async_job.wait(), JobStatus::Done);

    const auto& a = inline_job.results();
    const auto& b = async_job.results();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("circuit " + std::to_string(i));
        EXPECT_EQ(inline_job.plan().assignments[i].shard,
                  async_job.plan().assignments[i].shard);
        expectIdentical(a[i], b[i]);
    }
}

// ------------------------------------------------------------ ordering

TEST(CompileService, FifoWithinPriorityDispatchOrder)
{
    GateSet set = isa::rigettiSet(1);
    CompileServiceOptions options;
    options.workers = 1; // one worker => dispatch order is total
    CompileService service(twoShardFleet(), set, options);

    service.pause();
    std::vector<Circuit> one = makeWorkload(1, 3);
    CompileJob low_first = service.submit(requestFor(one, 0));
    CompileJob high_first = service.submit(requestFor(one, 5));
    CompileJob high_second = service.submit(requestFor(one, 5));
    CompileJob low_second = service.submit(requestFor(one, 0));
    service.resume();

    ASSERT_EQ(low_first.wait(), JobStatus::Done);
    ASSERT_EQ(high_first.wait(), JobStatus::Done);
    ASSERT_EQ(high_second.wait(), JobStatus::Done);
    ASSERT_EQ(low_second.wait(), JobStatus::Done);

    uint64_t hf = high_first.stats().dispatch_seq[0];
    uint64_t hs = high_second.stats().dispatch_seq[0];
    uint64_t lf = low_first.stats().dispatch_seq[0];
    uint64_t ls = low_second.stats().dispatch_seq[0];
    ASSERT_NE(hf, 0u);
    EXPECT_LT(hf, hs) << "FIFO within priority 5";
    EXPECT_LT(hs, lf) << "priority 5 dispatches before priority 0";
    EXPECT_LT(lf, ls) << "FIFO within priority 0";
}

// --------------------------------------------------------- cancellation

TEST(CompileService, CancelBeforeDispatchDropsQueuedWork)
{
    GateSet set = isa::rigettiSet(1);
    CompileServiceOptions options;
    options.workers = 1;
    CompileService service(twoShardFleet(), set, options);

    service.pause();
    CompileJob job = service.submit(requestFor(makeWorkload(3, 3)));
    EXPECT_EQ(job.poll(), JobStatus::Queued);

    EXPECT_TRUE(job.cancel());
    EXPECT_EQ(job.poll(), JobStatus::Cancelled);
    EXPECT_ANY_THROW(job.results());

    CompileServiceStats stats = service.stats();
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.cancelled, 1u);
    // Released in queue order, summed in assignment order: compare
    // with a tolerance for float non-associativity.
    for (double backlog : stats.backlog_ns)
        EXPECT_NEAR(backlog, 0.0, 1e-6)
            << "cancel must release predicted backlog";

    // The queue is empty, so later work is unaffected.
    service.resume();
    CompileJob next = service.submit(requestFor(makeWorkload(1, 3)));
    EXPECT_EQ(next.wait(), JobStatus::Done);
}

TEST(CompileService, CancelAfterCompletionReturnsFalse)
{
    GateSet set = isa::rigettiSet(1);
    CompileService service(twoShardFleet(), set, CompileServiceOptions());
    CompileJob job = service.submit(requestFor(makeWorkload(1, 3)));
    ASSERT_EQ(job.wait(), JobStatus::Done);
    EXPECT_FALSE(job.cancel());
    EXPECT_EQ(job.poll(), JobStatus::Done);
}

// ---------------------------------------------------- admission control

TEST(CompileService, RejectsUnmeetableDeadline)
{
    GateSet set = isa::rigettiSet(1);
    CompileService service(twoShardFleet(), set, CompileServiceOptions());

    CompileRequest request = requestFor(makeWorkload(2, 3));
    request.deadline_ns = 1e-6; // far below any predicted duration
    CompileJob job = service.submit(std::move(request));
    EXPECT_EQ(job.poll(), JobStatus::Rejected);
    EXPECT_EQ(job.wait(), JobStatus::Rejected);
    EXPECT_ANY_THROW(job.results());

    CompileServiceStats stats = service.stats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.admitted, 0u);
    for (double backlog : stats.backlog_ns)
        EXPECT_DOUBLE_EQ(backlog, 0.0);

    // Without the deadline the same request is admitted and compiles.
    CompileJob ok = service.submit(requestFor(makeWorkload(2, 3)));
    EXPECT_EQ(ok.wait(), JobStatus::Done);
}

TEST(CompileService, BacklogCapRejectsWhenQueuesFill)
{
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet = twoShardFleet();
    std::vector<Circuit> one = makeWorkload(1, 3);

    // Size the cap off the planner's own prediction: one circuit fits,
    // a pile of queued duplicates does not.
    ShardPlan probe = planShardAssignments(one, fleet, set);
    double single_ns = probe.assignments[0].predicted_duration_ns;
    ASSERT_GT(single_ns, 0.0);

    CompileServiceOptions options;
    options.workers = 1;
    options.max_queue_ns = 2.5 * single_ns;
    CompileService service(fleet, set, options);

    service.pause(); // hold everything in the admission queues
    std::vector<CompileJob> jobs;
    int rejected = 0;
    for (int i = 0; i < 8; ++i) {
        CompileJob job = service.submit(requestFor(one));
        if (job.poll() == JobStatus::Rejected)
            ++rejected;
        jobs.push_back(std::move(job));
    }
    EXPECT_GT(rejected, 0) << "the backlog cap must eventually refuse";
    EXPECT_LT(rejected, 8) << "the first submissions must be admitted";
    service.resume();
    for (CompileJob& job : jobs) {
        JobStatus status = job.wait();
        EXPECT_TRUE(status == JobStatus::Done ||
                    status == JobStatus::Rejected);
    }
}

// ------------------------------------------------- validation / options

TEST(CompileService, ValidatesFleetAndRequestOptions)
{
    GateSet set = isa::rigettiSet(1);
    EXPECT_ANY_THROW(CompileService(DeviceFleet(fastCompile()), set,
                                    CompileServiceOptions()));

    CompileOptions other = fastCompile();
    other.nuop.seed = 99;
    DeviceFleet mixed;
    mixed.addDevice(lineDevice("alpha", 4, 0.995), fastCompile());
    mixed.addDevice(lineDevice("beta", 4, 0.990), other);
    EXPECT_ANY_THROW(CompileService(mixed, set, CompileServiceOptions()));

    CompileService service(twoShardFleet(), set, CompileServiceOptions());
    CompileRequest bad = requestFor(makeWorkload(1, 3));
    bad.options = other; // NuOp mismatch with the shared cache
    EXPECT_ANY_THROW(service.submit(std::move(bad)));

    // A per-request override that keeps NuOp intact is honored.
    CompileRequest routed = requestFor({makeQftCircuit(4)});
    CompileOptions sabre = fastCompile();
    sabre.routing = "sabre";
    routed.options = sabre;
    CompileJob job = service.submit(std::move(routed));
    ASSERT_EQ(job.wait(), JobStatus::Done);
    int s = job.plan().assignments[0].shard;
    ProfileCache solo_cache;
    CompileResult solo =
        compileCircuit(makeQftCircuit(4),
                       service.fleet().shard(static_cast<size_t>(s)).device,
                       set, solo_cache, sabre);
    expectIdentical(solo, job.results()[0]);

    // Empty requests complete immediately.
    CompileJob empty = service.submit(CompileRequest());
    EXPECT_EQ(empty.poll(), JobStatus::Done);
    EXPECT_TRUE(empty.results().empty());

    // Submission after shutdown is refused.
    service.shutdown();
    EXPECT_ANY_THROW(service.submit(requestFor(makeWorkload(1, 3))));
}

TEST(CompileService, RejectsNonFiniteOpMatricesAtSubmit)
{
    GateSet set = isa::rigettiSet(1);
    CompileServiceOptions options;
    options.workers = 2;
    CompileService service(twoShardFleet(), set, options);

    for (double poison : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(poison);
        Matrix bad_gate = gates::zz(0.3);
        bad_gate(1, 1) = cplx(0.0, poison);
        Circuit bad = makeQftCircuit(3);
        bad.add2q(0, 1, bad_gate, "ZZ");
        EXPECT_THROW(service.submit(requestFor({makeQftCircuit(3), bad})),
                     FatalError);
    }

    // The refused requests left no trace: the next job compiles as if
    // they had never been submitted.
    Circuit app = makeQftCircuit(4);
    CompileJob job = service.submit(requestFor({app}));
    ASSERT_EQ(job.wait(), JobStatus::Done);
    int s = job.plan().assignments[0].shard;
    const Shard& shard = service.fleet().shard(static_cast<size_t>(s));
    ProfileCache solo_cache;
    expectIdentical(
        compileCircuit(app, shard.device, set, solo_cache, shard.options),
        job.results()[0]);
}

// ------------------------------------------------------------ telemetry

TEST(CompileService, JobStatsAndPassMetricsCarryServiceTelemetry)
{
    GateSet set = isa::rigettiSet(1);
    CompileService service(twoShardFleet(), set, CompileServiceOptions());
    std::vector<Circuit> apps = makeWorkload(4, 3);

    CompileJob first = service.submit(requestFor(apps));
    ASSERT_EQ(first.wait(), JobStatus::Done);
    CompileJobStats stats = first.stats();
    EXPECT_EQ(stats.circuits, 4u);
    ASSERT_EQ(stats.shards.size(), 4u);
    ASSERT_EQ(stats.dispatch_seq.size(), 4u);
    for (uint64_t seq : stats.dispatch_seq)
        EXPECT_NE(seq, 0u);
    EXPECT_GT(stats.compile_wall_ms, 0.0);
    EXPECT_GT(stats.mean_estimated_fidelity, 0.0);
    EXPECT_GT(stats.mean_predicted_fidelity, 0.0);
    EXPECT_GE(stats.queue_wait_ns_max, stats.queue_wait_ns_mean);
    EXPECT_GE(stats.cache_hit_ratio, 0.0);
    EXPECT_LE(stats.cache_hit_ratio, 1.0);
    EXPECT_GT(stats.cache_misses, 0u) << "cold cache compiles miss";

    // A repeat of the same workload hits the shared warm cache.
    CompileJob second = service.submit(requestFor(apps));
    ASSERT_EQ(second.wait(), JobStatus::Done);
    CompileJobStats warm = second.stats();
    EXPECT_EQ(warm.cache_misses, 0u);
    EXPECT_GT(warm.cache_hit_ratio, 0.0);

    // passMetrics(): per-pass roll-up plus a "service:job" row whose
    // counters are all summable, so they fold meaningfully across
    // jobs through accumulatePassMetrics.
    std::vector<PassMetric> metrics = first.passMetrics();
    ASSERT_FALSE(metrics.empty());
    EXPECT_EQ(metrics.back().pass, "service:job");
    EXPECT_EQ(metrics.back().counters.at("circuits"), 4.0);
    EXPECT_GT(metrics.back().counters.at("queue_wait_ns_total"), 0.0);
    EXPECT_GT(metrics.back().counters.at("cache_misses"), 0.0);

    std::vector<PassMetric> folded;
    accumulatePassMetrics(folded, first.passMetrics());
    accumulatePassMetrics(folded, second.passMetrics());
    const PassMetric* service_row = nullptr;
    for (const PassMetric& metric : folded)
        if (metric.pass == "service:job")
            service_row = &metric;
    ASSERT_NE(service_row, nullptr);
    EXPECT_EQ(service_row->counters.at("runs"), 2.0);
    EXPECT_EQ(service_row->counters.at("circuits"), 8.0);
    // The folded sums stay derivable: hit ratio across both jobs.
    double folded_hits = service_row->counters.at("cache_hits");
    double folded_misses = service_row->counters.at("cache_misses");
    ASSERT_GT(folded_hits + folded_misses, 0.0);
    double folded_ratio = folded_hits / (folded_hits + folded_misses);
    EXPECT_GT(folded_ratio, 0.0);
    EXPECT_LE(folded_ratio, 1.0);
    // Mean fidelity across the fold: sum / circuits stays a fidelity.
    double folded_fidelity =
        service_row->counters.at("estimated_fidelity_sum") /
        service_row->counters.at("circuits");
    EXPECT_GT(folded_fidelity, 0.0);
    EXPECT_LE(folded_fidelity, 1.0);

    // Per-shard service telemetry covers the whole workload.
    std::vector<PassMetric> shard_rows = service.shardTelemetry();
    ASSERT_EQ(shard_rows.size(), 2u);
    double assigned = 0.0;
    for (size_t s = 0; s < shard_rows.size(); ++s) {
        EXPECT_EQ(shard_rows[s].pass,
                  "shard:" + service.fleet().shard(s).name);
        assigned += shard_rows[s].counters.at("assigned");
        EXPECT_EQ(shard_rows[s].counters.at("assigned"),
                  shard_rows[s].counters.at("completed"));
    }
    EXPECT_EQ(assigned, 8.0);
}

// ---------------------------------------------------- cache persistence

TEST(CompileService, OwnedCachePersistsAcrossRestarts)
{
    GateSet set = isa::rigettiSet(1);
    std::string path =
        std::string(::testing::TempDir()) + "qiset_service_cache.txt";
    std::remove(path.c_str());
    std::vector<Circuit> apps = makeWorkload(3, 3);

    {
        CompileServiceOptions options;
        options.cache_path = path;
        CompileService service(twoShardFleet(), set, options);
        CompileJob job = service.submit(requestFor(apps));
        ASSERT_EQ(job.wait(), JobStatus::Done);
        EXPECT_GT(job.stats().cache_misses, 0u);
    } // shutdown persists the owned cache

    {
        CompileServiceOptions options;
        options.cache_path = path;
        CompileService service(twoShardFleet(), set, options);
        EXPECT_GT(service.profileCache().stats().loaded, 0u)
            << "restart must warm-start from the persisted cache";
        CompileJob job = service.submit(requestFor(apps));
        ASSERT_EQ(job.wait(), JobStatus::Done);
        EXPECT_EQ(job.stats().cache_misses, 0u)
            << "persisted profiles must cover the repeat run";
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------- concurrency

TEST(CompileService, ConcurrentSubmittersShareOneService)
{
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet = twoShardFleet();
    CompileServiceOptions options;
    options.workers = 4;
    CompileService service(fleet, set, options);

    constexpr int kSubmitters = 4;
    constexpr int kJobsEach = 3;
    std::vector<std::vector<CompileJob>> jobs(kSubmitters);
    std::vector<std::vector<Circuit>> workloads(kSubmitters);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
        workloads[t] = makeWorkload(kJobsEach, 3, 600 + t);
        submitters.emplace_back([&, t] {
            for (int j = 0; j < kJobsEach; ++j)
                jobs[t].push_back(service.submit(
                    requestFor({workloads[t][j]}, /*priority=*/t % 2)));
        });
    }
    for (std::thread& thread : submitters)
        thread.join();

    for (int t = 0; t < kSubmitters; ++t)
        for (int j = 0; j < kJobsEach; ++j) {
            SCOPED_TRACE("submitter " + std::to_string(t) + " job " +
                         std::to_string(j));
            CompileJob& job = jobs[t][j];
            ASSERT_EQ(job.wait(), JobStatus::Done);
            int s = job.plan().assignments[0].shard;
            ProfileCache solo_cache;
            CompileResult solo = compileCircuit(
                workloads[t][j],
                fleet.shard(static_cast<size_t>(s)).device, set,
                solo_cache,
                fleet.shard(static_cast<size_t>(s)).options);
            expectIdentical(solo, job.results()[0]);
        }

    CompileServiceStats stats = service.stats();
    EXPECT_EQ(stats.admitted,
              static_cast<uint64_t>(kSubmitters * kJobsEach));
    EXPECT_EQ(stats.completed,
              static_cast<uint64_t>(kSubmitters * kJobsEach));
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.in_flight, 0u);
}

// ------------------------------------------------- waits and callbacks

TEST(CompileService, WaitForExpiredDeadlineReturnsImmediately)
{
    GateSet set = isa::rigettiSet(1);
    CompileServiceOptions options;
    options.workers = 1;
    CompileService service(twoShardFleet(), set, options);

    // Paused service: the job cannot make progress, so any blocking
    // in waitFor() would be charged in full.
    service.pause();
    CompileJob job = service.submit(requestFor(makeWorkload(1, 3)));

    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(job.waitFor(0.0), JobStatus::Queued);
    EXPECT_EQ(job.waitFor(-5.0), JobStatus::Queued);
    double elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    // An expired deadline answers from the current state — it must
    // not wait out a dispatch cycle (the old behavior blocked here).
    EXPECT_LT(elapsed_ms, 50.0);

    // A positive timeout on a stuck job returns Queued after ~the
    // timeout, not Done.
    EXPECT_EQ(job.waitFor(1.0), JobStatus::Queued);

    service.resume();
    ASSERT_EQ(job.wait(), JobStatus::Done);
    // Terminal: waitFor never blocks regardless of timeout sign.
    EXPECT_EQ(job.waitFor(0.0), JobStatus::Done);
    EXPECT_EQ(job.waitFor(1e9), JobStatus::Done);
}

TEST(CompileService, CompletionCallbackFiresOncePerJob)
{
    GateSet set = isa::rigettiSet(1);
    CompileServiceOptions options;
    options.workers = 2;
    CompileService service(twoShardFleet(), set, options);

    std::atomic<int> fired{0};
    std::atomic<int> done{0};
    CompileRequest request = requestFor(makeWorkload(2, 3));
    request.on_complete = [&](CompileJob job) {
        fired.fetch_add(1);
        if (job.poll() == JobStatus::Done &&
            job.results().size() == 2)
            done.fetch_add(1);
    };
    CompileJob job = service.submit(std::move(request));
    ASSERT_EQ(job.wait(), JobStatus::Done);
    service.shutdown();
    EXPECT_EQ(fired.load(), 1);
    EXPECT_EQ(done.load(), 1);

    // Registering on an already-terminal job fires synchronously.
    int late = 0;
    job.onComplete([&late](CompileJob j) {
        if (j.poll() == JobStatus::Done)
            ++late;
    });
    EXPECT_EQ(late, 1);
}

TEST(CompileService, CallbacksFireOnEveryTerminalPath)
{
    GateSet set = isa::rigettiSet(1);
    CompileServiceOptions options;
    options.workers = 1;
    CompileService service(twoShardFleet(), set, options);

    // Rejected (inline, on the submitting thread).
    JobStatus rejected_status = JobStatus::Queued;
    CompileRequest doomed = requestFor(makeWorkload(2, 3));
    doomed.deadline_ns = 1e-9;
    doomed.on_complete = [&](CompileJob job) {
        rejected_status = job.poll();
    };
    service.submit(std::move(doomed));
    EXPECT_EQ(rejected_status, JobStatus::Rejected);

    // Empty request: Done immediately, callback still fires.
    JobStatus empty_status = JobStatus::Queued;
    CompileRequest empty;
    empty.on_complete = [&](CompileJob job) {
        empty_status = job.poll();
    };
    service.submit(std::move(empty));
    EXPECT_EQ(empty_status, JobStatus::Done);

    // Cancelled while queued: the cancel path fires it.
    service.pause();
    std::atomic<int> cancelled{0};
    CompileRequest queued = requestFor(makeWorkload(2, 3));
    queued.on_complete = [&](CompileJob job) {
        if (job.poll() == JobStatus::Cancelled)
            cancelled.fetch_add(1);
    };
    CompileJob job = service.submit(std::move(queued));
    EXPECT_TRUE(job.cancel());
    EXPECT_EQ(cancelled.load(), 1);
    service.resume();

    // Registered mid-flight via the handle (async completion path).
    std::atomic<int> async_fired{0};
    CompileJob running = service.submit(requestFor(makeWorkload(1, 3)));
    running.onComplete([&](CompileJob j) {
        if (j.poll() == JobStatus::Done)
            async_fired.fetch_add(1);
    });
    ASSERT_NE(running.wait(), JobStatus::Failed);
    service.shutdown();
    EXPECT_EQ(async_fired.load(), 1);
}

TEST(CompileService, InlineModeFiresCallbackBeforeSubmitReturns)
{
    GateSet set = isa::rigettiSet(1);
    CompileService service(twoShardFleet(), set,
                           CompileServiceOptions());
    bool fired = false;
    CompileRequest request = requestFor(makeWorkload(1, 3));
    request.on_complete = [&fired](CompileJob job) {
        fired = job.poll() == JobStatus::Done;
    };
    service.submit(std::move(request));
    EXPECT_TRUE(fired);
}

TEST(CompileService, PlansAddMeasuredMeanCompileTimeAfterWarmup)
{
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet(fastCompile());
    fleet.addDevice(lineDevice("alpha", 4, 0.995));
    std::vector<Circuit> apps = makeWorkload(18, 3);
    CompileService service(fleet, set, CompileServiceOptions());

    double wall_ms_sum = 0.0;
    for (size_t i = 0; i < apps.size(); ++i) {
        SCOPED_TRACE("circuit " + std::to_string(i + 1));
        CompileJob job = service.submit(requestFor({apps[i]}));
        ASSERT_EQ(job.poll(), JobStatus::Done);
        double static_ns = planShardAssignments({apps[i]}, fleet, set)
                               .assignments[0]
                               .predicted_duration_ns;
        double planned_ns = job.plan().assignments[0].predicted_duration_ns;
        // The first 16 plans run on the static proxy alone; from then
        // on every plan adds the mean measured compile time so far.
        if (i < 16) {
            EXPECT_EQ(planned_ns, static_ns);
        } else {
            EXPECT_NEAR(planned_ns,
                        static_ns + wall_ms_sum / i * 1e6, 1.0);
            // The term steers planning only; results stay those of a
            // solo compile.
            ProfileCache solo_cache;
            expectIdentical(compileCircuit(apps[i], fleet.shard(0).device,
                                           set, solo_cache,
                                           fleet.shard(0).options),
                            job.results()[0]);
        }
        wall_ms_sum += job.stats().compile_wall_ms;
    }
}

} // namespace
} // namespace qiset
