/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths: the
 * simplex solver, the SHIFT replay, the pulse simulator, the sub-bank
 * model, and a full SMART layer evaluation.
 *
 * With --json [--out PATH], instead runs the end-to-end evaluation
 * sweep (figure grid via runBatch, the Fig. 14 DSE sweep, and a B&B
 * ILP batch) on the task scheduler and writes wall-clock timings to
 * BENCH_micro.json, seeding the perf trajectory. The figure-grid
 * timings are per-loop medians over several cold runs (with a max-min
 * spread metric characterizing run-to-run variance), and the report
 * carries the scheduler's task counters, the
 * schedule-memo entry count of one cold single-image grid, the
 * median warm-memo re-run time of that grid and the simplex pivots
 * its ILP schedules take.
 * SMART_THREADS controls the worker count in both modes.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <future>
#include <set>
#include <vector>

#include "accel/hash.hh"
#include "accel/perf.hh"
#include "bench_util.hh"
#include "cnn/models.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/taskgraph.hh"
#include "common/tracespan.hh"
#include "compiler/dag.hh"
#include "compiler/ilpsched.hh"
#include "cryomem/dse.hh"
#include "cryomem/subbank.hh"
#include "ilp/solver.hh"
#include "serve/trace.hh"
#include "sfq/pulse_sim.hh"
#include "systolic/trace.hh"

namespace
{

using namespace smart;

void
BM_SimplexKnapsack(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        ilp::Model m;
        ilp::LinExpr w, obj;
        for (int i = 0; i < n; ++i) {
            ilp::Var v = m.addVar(0, 1, ilp::VarType::Continuous);
            w.add(v, 1.0 + (i % 7));
            obj.add(v, 2.0 + (i % 5));
        }
        m.addConstr(w, ilp::Sense::Le, n / 2.0);
        m.setObjective(obj, true);
        benchmark::DoNotOptimize(ilp::solveLp(m));
    }
}
BENCHMARK(BM_SimplexKnapsack)->Arg(32)->Arg(128)->Arg(512);

void
BM_ShiftReplay(benchmark::State &state)
{
    auto layer = systolic::ConvLayer::conv("c", 27, 27, 96, 256, 5, 1,
                                           2);
    systolic::ShiftReplayParams p;
    p.banks = 64;
    p.laneBytes = 384 * 1024;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            systolic::replayInputShift(layer, {64, 256}, p));
    }
}
BENCHMARK(BM_ShiftReplay);

void
BM_PulseSimSplitterUnit(benchmark::State &state)
{
    for (auto _ : state) {
        sfq::PulseNetlist net;
        auto fx = sfq::buildSplitterUnitFixture(net, 500.0);
        for (int i = 0; i < 100; ++i)
            net.inject(fx.source, i * 120.0);
        benchmark::DoNotOptimize(net.run());
    }
}
BENCHMARK(BM_PulseSimSplitterUnit);

void
BM_SubbankModel(benchmark::State &state)
{
    for (auto _ : state) {
        cryo::SubbankConfig cfg;
        cfg.capacityBytes = 112 * 1024;
        cfg.mats = 16;
        cryo::SubbankModel sub(cfg);
        benchmark::DoNotOptimize(sub.readLatencyNs());
        benchmark::DoNotOptimize(sub.energyPerAccessJ());
    }
}
BENCHMARK(BM_SubbankModel);

void
BM_IlpLayerSchedule(benchmark::State &state)
{
    auto layer = systolic::ConvLayer::conv("c", 13, 13, 256, 384, 3);
    auto demand = systolic::analyzeDemand(layer, {64, 256});
    compiler::LayerDag dag = compiler::buildLayerDag(layer, demand);
    compiler::SchedParams params;
    for (auto _ : state)
        benchmark::DoNotOptimize(compiler::scheduleIlp(dag, params));
}
BENCHMARK(BM_IlpLayerSchedule);

void
BM_SmartAlexNetInference(benchmark::State &state)
{
    setInformEnabled(false);
    auto cfg = accel::makeSmart();
    auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    for (auto _ : state)
        benchmark::DoNotOptimize(accel::runInference(cfg, model, 1));
}
BENCHMARK(BM_SmartAlexNetInference);

/** Wall time and summed results of the knapsack ILP batch. */
struct IlpBatch
{
    double ms = 0.0;
    double objectiveSum = 0.0;
    double nodes = 0.0;  //!< B&B nodes over the batch.
    double pivots = 0.0; //!< Simplex pivots over the batch.
};

/**
 * A batch of structurally distinct 0/1 knapsack ILPs; the summed
 * objectives feed the checksum so wrong-but-fast solves are visible,
 * and the node and pivot totals are host-independent work counters.
 */
IlpBatch
ilpBnbBatch()
{
    bench::Timer timer;
    std::vector<ilp::Solution> sols(24);
    pFor(sols.size(), [&](std::size_t t) {
        ilp::Model m;
        ilp::LinExpr w1, w2, obj;
        for (int i = 0; i < 16; ++i) {
            ilp::Var v = m.addBinary();
            w1.add(v, 1.0 + ((i + t) % 7));
            w2.add(v, 1.0 + ((i + 3 * t) % 5));
            obj.add(v, 2.0 + ((i + 2 * t) % 9));
        }
        m.addConstr(w1, ilp::Sense::Le, 20.0);
        m.addConstr(w2, ilp::Sense::Le, 16.0);
        m.setObjective(obj, true);
        sols[t] = ilp::solve(m);
    });
    IlpBatch batch;
    batch.ms = timer.ms();
    for (const ilp::Solution &s : sols) {
        batch.objectiveSum += s.objective;
        batch.nodes += s.bnbNodes;
        batch.pivots += s.simplexIters;
    }
    return batch;
}

/** Simplex work summed over a set of ILP schedules. */
struct IlpGridWork
{
    double pivots = 0.0;
    double nodes = 0.0;     //!< Branch-and-bound nodes.
    double lpReplays = 0.0; //!< Node LPs re-run with stall tracking.
};

/**
 * Total simplex pivots, B&B nodes and LP replays of the ILP schedules of the
 * distinct SMART layers in the single-image figure grid (the solves
 * one cold grid pass puts in the schedule memo): host-independent
 * work counters for the ILP core.
 */
IlpGridWork
ilpGridWork()
{
    const accel::AcceleratorConfig cfg = accel::makeSmart();
    const compiler::SchedParams sp = accel::ilpSchedParams(cfg);
    std::set<std::vector<int>> seen;
    std::vector<compiler::LayerDag> dags;
    for (const auto &name : cnn::modelNames()) {
        for (const auto &l : cnn::convLayersOnly(cnn::makeModel(name)).layers) {
            if (seen.insert({l.ifmapH, l.ifmapW, l.inChannels, l.filters,
                             l.kernelH, l.kernelW, l.stride, l.pad,
                             l.depthwise ? 1 : 0})
                    .second)
                dags.push_back(compiler::buildLayerDag(
                    l, systolic::analyzeDemand(l, cfg.pe)));
        }
    }
    std::vector<compiler::Schedule> scheds(dags.size());
    pFor(dags.size(), [&](std::size_t i) {
        scheds[i] = compiler::scheduleIlp(dags[i], sp);
    });
    IlpGridWork work;
    for (const compiler::Schedule &s : scheds) {
        work.pivots += s.simplexIters;
        work.nodes += s.bnbNodes;
        work.lpReplays += s.lpReplays;
    }
    return work;
}

/** Per-loop median: robust to a one-off scheduler hiccup. */
double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Max-min spread: the run-to-run variance the median hides. */
double
spreadOf(const std::vector<double> &v)
{
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return *hi - *lo;
}

/** The end-to-end sweep: figure grids, DSE points, ILP batch. */
int
jsonMain(int argc, char **argv)
{
    setInformEnabled(false);
    std::string out = "BENCH_micro.json";
    std::string traceOut;
    for (int i = 1; i < argc - 1; ++i) {
        if (std::string(argv[i]) == "--out")
            out = argv[i + 1];
        else if (std::string(argv[i]) == "--trace-out")
            traceOut = argv[i + 1];
    }

    std::vector<bench::JsonMetric> metrics;
    bench::Timer total;

    // Each section starts from cold memo caches so its metric measures
    // the named workload, not hits warmed by the previous section.
    // The figure grids — the headline parallel workload, now gated by
    // check_bench_regression.sh — run median-of-N: each loop is fully
    // cold, the emitted wall time is the per-loop median, and the
    // max-min spread is reported alongside so run-to-run variance is
    // visible in the trajectory. Results are bit-identical across
    // loops (the equivalence suite's contract), so the checksum sums
    // one loop's results. The steal counter delta over the grid loops
    // counts the tasks that ran off their spawner's thread, i.e.
    // whether the grid's work actually spread across threads.
    const int gridLoops = 3;
    bench::Timer timer;
    std::vector<accel::InferenceResult> single, batch;
    std::vector<double> singleMs, batchMs;
    const auto schedGrid0 = TaskScheduler::global().stats();
    for (int loop = 0; loop < gridLoops; ++loop) {
        accel::clearIlpCache();
        timer.reset();
        single = accel::runBatch(bench::figureGrid(false));
        singleMs.push_back(timer.ms());

        accel::clearIlpCache();
        timer.reset();
        batch = accel::runBatch(bench::figureGrid(true));
        batchMs.push_back(timer.ms());
    }
    const auto schedGrid1 = TaskScheduler::global().stats();
    metrics.push_back({"figure_grid_single_ms", medianOf(singleMs)});
    metrics.push_back(
        {"figure_grid_single_spread_ms", spreadOf(singleMs)});
    metrics.push_back({"figure_grid_batch_ms", medianOf(batchMs)});
    metrics.push_back(
        {"figure_grid_batch_spread_ms", spreadOf(batchMs)});
    metrics.push_back(
        {"figure_grid_sched_steals",
         static_cast<double>(schedGrid1.steals - schedGrid0.steals)});

    // Schedule-memo shape of the single-image grid: the entry count
    // after one cold pass (deterministic at any thread count; a rise
    // means a key change split layers that share a schedule), then the
    // median wall time of re-running the grid with the memo full.
    // figure_grid_config_builds counts the configuration costs derived
    // over the cold and the five warm passes: one per configuration
    // with costs (Sram, Heter, Pipe, Smart), so a rise means a warm
    // pass re-derived what the memo held.
    const auto singleGrid = bench::figureGrid(false);
    accel::clearIlpCache();
    const std::uint64_t configsBefore = accel::configCacheInserts();
    accel::runBatch(singleGrid);
    metrics.push_back({"figure_grid_memo_entries",
                       static_cast<double>(accel::ilpCacheSize())});
    std::vector<double> warmMs;
    for (int loop = 0; loop < 5; ++loop) {
        timer.reset();
        accel::runBatch(singleGrid);
        warmMs.push_back(timer.ms());
    }
    metrics.push_back({"figure_grid_warm_ms", medianOf(warmMs)});
    metrics.push_back(
        {"figure_grid_config_builds",
         static_cast<double>(accel::configCacheInserts() - configsBefore)});

    timer.reset();
    cryo::CmosSfqArrayConfig base;
    std::vector<double> freqs;
    for (double f = 0.5; f <= 9.6; f += 0.25)
        freqs.push_back(f);
    auto points = cryo::sweepPipelineFrequency(base, freqs);
    metrics.push_back({"dse_sweep_ms", timer.ms()});

    const IlpBatch ilpBatch = ilpBnbBatch();
    metrics.push_back({"ilp_bnb_batch_ms", ilpBatch.ms});
    metrics.push_back({"ilp_bnb_batch_nodes", ilpBatch.nodes});
    metrics.push_back({"ilp_bnb_batch_pivots", ilpBatch.pivots});
    const IlpGridWork gridWork = ilpGridWork();
    metrics.push_back({"ilp_grid_pivots", gridWork.pivots});
    metrics.push_back({"ilp_grid_nodes", gridWork.nodes});
    metrics.push_back({"ilp_grid_lp_replays", gridWork.lpReplays});

    // Serving layer: full-speed replays of the synthetic bursty trace
    // through the async service — a cold pass (fresh layer schedules)
    // and a warm pass (schedule-memo hits only), plus the tail
    // latency. serve_replay_warm_schedules counts the layer schedules
    // the warm pass computed into the memo: every shape was scheduled in
    // the cold pass, so it is 0 unless repeats stopped reaching the
    // memo (count-gated by check_bench_regression.sh).
    accel::clearIlpCache();
    serve::ServiceConfig scfg;
    scfg.queue.maxDepth = 256; // admit everything: measure the service
    serve::EvalService svc(scfg);
    const auto trace = serve::makeSyntheticTrace(serve::TraceConfig{});
    timer.reset(); // after setup: the metric is the replay alone
    const auto cold = serve::replayTrace(svc, trace, /*timeScale=*/0.0);
    metrics.push_back({"serve_replay_cold_ms", timer.ms()});
    const std::uint64_t memoBeforeWarm = accel::ilpCacheInserts();
    timer.reset();
    const auto warm = serve::replayTrace(svc, trace, /*timeScale=*/0.0);
    metrics.push_back({"serve_replay_warm_ms", timer.ms()});
    metrics.push_back(
        {"serve_replay_warm_schedules",
         static_cast<double>(accel::ilpCacheInserts() - memoBeforeWarm)});
    const auto sm = svc.metrics();
    metrics.push_back({"serve_latency_p99_ms", sm.latencyP99Ms});

    // Memo-hit dispatch cost in scheduler tasks: 64 sequential submits
    // of one warm request (a SMART one when the trace has it, so every
    // layer takes the memo path). Each forms a one-group wave that the
    // dispatcher serves inline, and every layer's schedule is a memo
    // hit, so nothing fans out: serve_memo_hit_tasks is the
    // TaskScheduler tasksRun delta, 0 at any SMART_THREADS (count-gated
    // by check_bench_regression.sh).
    {
        serve::EvalRequest hitReq = trace.front().req;
        for (const auto &t : trace)
            if (t.req.cfg.scheme == accel::Scheme::Smart) {
                hitReq = t.req;
                break;
            }
        const std::uint64_t tasksBefore =
            TaskScheduler::global().stats().tasksRun;
        for (int i = 0; i < 64; ++i)
            svc.submit(hitReq).response.get();
        metrics.push_back(
            {"serve_memo_hit_tasks",
             static_cast<double>(TaskScheduler::global().stats().tasksRun -
                                 tasksBefore)});
    }

    // Adversarial serving: a two-tenant bursty trace (one tenant takes
    // ~85% of the traffic) against a service with a p95 SLO driving
    // the wave sizing. The p95-vs-SLO pair and the warm pass's new
    // layer schedules (expected 0) are the headline serving metrics
    // tracked across PRs. Admission is deliberately sized to accept
    // the whole trace (the checksum must stay deterministic, and
    // rejections would be timing-dependent); quota/shed enforcement
    // under real pressure is measured by example_smart_serve and the
    // queue tests instead.
    serve::TraceConfig mt;
    mt.tenants = {"hog", "mouse"};
    mt.tenantWeights = {0.85, 0.15};
    mt.repeatFraction = 0.6;
    serve::ServiceConfig mcfg;
    mcfg.queue.maxDepth = 256;
    mcfg.queue.maxPerTenant = 192;
    mcfg.sloP95Ms = 250.0;
    // Admission must accept the whole trace (checksum determinism), so
    // hopeless rejection is off here; serve_slo_* measures it instead.
    mcfg.sloAdmissionFactor = 0.0;
    mcfg.maxWave = 16;
    mcfg.linger = std::chrono::milliseconds(1);
    serve::EvalService mtsvc(mcfg);
    const auto mtrace = serve::makeSyntheticTrace(mt);
    timer.reset();
    const auto mtcold =
        serve::replayTrace(mtsvc, mtrace, /*timeScale=*/0.0);
    metrics.push_back({"serve_mt_replay_cold_ms", timer.ms()});
    const std::uint64_t memoBeforeMtWarm = accel::ilpCacheInserts();
    timer.reset();
    const auto mtwarm =
        serve::replayTrace(mtsvc, mtrace, /*timeScale=*/0.0);
    metrics.push_back({"serve_mt_replay_warm_ms", timer.ms()});
    metrics.push_back(
        {"serve_mt_replay_warm_schedules",
         static_cast<double>(accel::ilpCacheInserts() -
                             memoBeforeMtWarm)});
    const auto mtm = mtsvc.metrics();
    metrics.push_back({"serve_mt_latency_p95_ms", mtm.latencyP95Ms});
    metrics.push_back({"serve_mt_slo_p95_ms", mtm.sloP95Ms});
    metrics.push_back(
        {"serve_mt_wave_limit", static_cast<double>(mtm.waveLimit)});
    metrics.push_back(
        {"serve_mt_slo_violated_windows",
         static_cast<double>(mtm.sloViolatedWindows)});

    // SLO-aware admission: a hopeless burst against a warm service.
    // A probe pass measures this machine's per-request cost; the SLO
    // service is then given a p95 target a few evaluations deep and a
    // 0.5 admission factor. After a short serialized warm phase, a
    // back-to-back burst floods the queue far past what the SLO
    // allows: most of it must be refused at submit (RejectedHopeless)
    // instead of being admitted and failed slowly, and the p95 of what
    // was admitted stays within the SLO. Admission under an SLO is
    // timing-dependent by nature (a contention outlier can tip a
    // prediction over the budget), so nothing evaluated through the
    // SLO service enters the checksum; only the probe pass — whose
    // service has no SLO and admits unconditionally — contributes.
    auto sloNet = cnn::convLayersOnly(cnn::makeModel("AlexNet"));
    auto sloReq = [&](int batch, const char *tag) {
        serve::EvalRequest r;
        r.cfg = accel::makeScheme(accel::Scheme::Sram);
        r.model = sloNet;
        r.batch = batch;
        r.tag = tag;
        return r;
    };
    double probeChecksum = 0.0;
    double probedServiceMs = 0.0;
    {
        serve::EvalService probe;
        for (int b = 200; b < 206; ++b) {
            auto resp = probe.submit(sloReq(b, "hog")).response.get();
            probeChecksum += resp.result.throughputTmacs();
        }
        probedServiceMs = probe.metrics().estServiceMs;
    }
    serve::ServiceConfig lcfg;
    lcfg.queue.maxDepth = 512;
    lcfg.maxWave = 8;
    // ~10 evaluations of end-to-end budget, with a 0.5 admission
    // factor: the wave EWMA is learned on the warm phase's single-
    // item waves and lags the fuller (slower) burst waves, so the
    // headroom absorbs that underestimate and keeps the admitted
    // requests' realized p95 inside the target.
    lcfg.sloP95Ms = std::max(5.0, 10.0 * probedServiceMs);
    lcfg.sloAdmissionFactor = 0.5;
    serve::EvalService slo(lcfg);
    // Warm phase: serialized submits (depth 0 each time) over 10
    // distinct hog points + 2 mouse points, warming the estimator.
    // Admission is expected but not guaranteed (an outlier first
    // sample can tip the SLO path), hence the guard — and no checksum
    // contribution.
    for (int b = 200; b < 212; ++b) {
        auto sub = slo.submit(sloReq(b, b < 210 ? "hog" : "mouse"));
        if (sub.admitted())
            sub.response.get();
    }
    timer.reset();
    std::vector<std::future<serve::EvalResponse>> sloAdmitted;
    for (int b = 1; b <= 256; ++b) {
        auto sub =
            slo.submit(sloReq(b, (b % 2) ? "hog" : "mouse"));
        if (sub.admitted())
            sloAdmitted.push_back(std::move(sub.response));
    }
    std::vector<double> admittedMs;
    admittedMs.reserve(sloAdmitted.size());
    for (auto &f : sloAdmitted) {
        const auto resp = f.get();
        if (resp.status == serve::ResponseStatus::Ok)
            admittedMs.push_back(resp.totalMs);
    }
    metrics.push_back({"serve_slo_replay_ms", timer.ms()});
    double admittedP95 = 0.0;
    if (!admittedMs.empty()) {
        std::sort(admittedMs.begin(), admittedMs.end());
        admittedP95 = admittedMs[static_cast<std::size_t>(
            0.95 * (admittedMs.size() - 1))];
    }
    const auto lm = slo.metrics();
    metrics.push_back({"serve_slo_p95_target_ms", lcfg.sloP95Ms});
    metrics.push_back({"serve_slo_admitted_p95_ms", admittedP95});
    metrics.push_back(
        {"serve_slo_burst_admitted",
         static_cast<double>(sloAdmitted.size())});
    metrics.push_back(
        {"serve_slo_rejected_hopeless",
         static_cast<double>(lm.rejectedHopeless)});
    metrics.push_back({"serve_slo_est_wave_ms", lm.estWaveMs});

    // Per-tenant SLOs: a strict interactive tenant and a lax batch
    // tenant share one service. The baseline run applies the strict
    // target globally (the pre-tenant-SLO behavior: the lax tenant is
    // rejected as if it, too, were latency-sensitive); the tenant-SLO
    // run scopes the target to the strict tenant alone and replays
    // with resubmit-on-suggestion, so hopeless rejections retry once
    // with their estimator-suggested deadline after the flood drains.
    // Headline pair: the strict tenant's realized p95 must sit within
    // its SLO while the lax tenant's completions recover to (at
    // least) the global-SLO baseline, and resubmits should nearly
    // always land (serve_tslo_resubmit_ok_rate, ratio-gated by
    // check_bench_regression.sh). Admission under an SLO is timing-
    // dependent, so like serve_slo_* nothing here enters the
    // checksum.
    const double strictTargetMs = std::max(5.0, 10.0 * probedServiceMs);
    serve::TraceConfig tlt;
    tlt.tenants = {"strict", "lax"};
    tlt.tenantWeights = {0.5, 0.5};
    tlt.repeatFraction = 0.6;
    tlt.deadlineFraction = 0.0;
    const auto ttrace = serve::makeSyntheticTrace(tlt);
    auto tsloConfig = [&]() {
        serve::ServiceConfig c;
        c.queue.maxDepth = 256;
        c.maxWave = 8;
        c.sloAdmissionFactor = 0.5;
        return c;
    };
    auto warmTslo = [&](serve::EvalService &s) {
        // Serialized submits (depth 0 each time) warm the estimator
        // so the flood below is judged on evidence, not cold-start.
        for (int b = 300; b < 306; ++b) {
            auto sub = s.submit(sloReq(b, (b % 2) ? "strict" : "lax"));
            if (sub.admitted())
                sub.response.get();
        }
    };
    auto strictP95Of = [](const serve::ReplayReport &rep) {
        std::vector<double> ms;
        for (const auto &r : rep.responses)
            if (r.status == serve::ResponseStatus::Ok &&
                r.tag == "strict")
                ms.push_back(r.totalMs);
        if (ms.empty())
            return 0.0;
        std::sort(ms.begin(), ms.end());
        return ms[static_cast<std::size_t>(0.95 * (ms.size() - 1))];
    };

    serve::ServiceConfig gcfg = tsloConfig();
    gcfg.sloP95Ms = strictTargetMs; // one global SLO for everyone
    serve::EvalService gsvc(gcfg);
    warmTslo(gsvc);
    // Paced replay (timeScale 1): bursts still pile the queue up —
    // rejections happen inside each burst — but arrivals between
    // bursts drain it, so an admitted strict request is one the
    // estimator genuinely believed feasible, not a cold-start
    // casualty of an unbounded flood.
    const auto gbase = serve::replayTrace(gsvc, ttrace,
                                          /*timeScale=*/1.0);

    serve::ServiceConfig tcfg = tsloConfig();
    tcfg.sloP95Ms = 0.0; // no global target...
    tcfg.tenantSlo["strict"] = {strictTargetMs, 0.5};
    tcfg.tenantSlo["lax"] = {-1.0, -1.0}; // ...and lax opts out
    serve::EvalService tsvc(tcfg);
    warmTslo(tsvc);
    serve::ReplayOptions topts;
    topts.timeScale = 1.0;
    topts.resubmitOnSuggestion = true;
    timer.reset();
    const auto trep = serve::replayTrace(tsvc, ttrace, topts);
    metrics.push_back({"serve_tslo_replay_ms", timer.ms()});
    metrics.push_back({"serve_tslo_strict_slo_ms", strictTargetMs});
    metrics.push_back({"serve_tslo_strict_p95_ms", strictP95Of(trep)});
    const auto &tstrict = trep.tenants.at("strict");
    const auto &tlax = trep.tenants.at("lax");
    metrics.push_back({"serve_tslo_strict_completed",
                       static_cast<double>(tstrict.completed)});
    metrics.push_back({"serve_tslo_strict_rejected_hopeless",
                       static_cast<double>(tstrict.rejectedHopeless)});
    metrics.push_back({"serve_tslo_lax_completed",
                       static_cast<double>(tlax.completed)});
    metrics.push_back(
        {"serve_tslo_lax_baseline_completed",
         static_cast<double>(gbase.tenants.at("lax").completed)});
    metrics.push_back({"serve_tslo_resubmitted",
                       static_cast<double>(trep.resubmitted)});
    metrics.push_back({"serve_tslo_resubmit_ok",
                       static_cast<double>(trep.resubmitOk)});
    // Only emitted when retries actually happened: a defaulted 1.0
    // would blind the ratio gate to a bug that stops suggestions
    // from being issued at all (the gate skips metrics absent from
    // either side, which is the honest verdict for an empty sample).
    if (trep.resubmitted > 0)
        metrics.push_back(
            {"serve_tslo_resubmit_ok_rate",
             static_cast<double>(trep.resubmitOk) /
                 static_cast<double>(trep.resubmitted)});
    for (const auto &t : tsvc.metrics().tenantSlo)
        metrics.push_back(
            {"serve_tslo_tenant_" + serve::metricSafeTag(t.tag) +
                 "_violated_windows",
             static_cast<double>(t.violatedWindows)});

    // Graceful degradation: the same hopeless burst against a
    // degradePolicy Off service and an Auto one. The fault injector
    // stalls every ILP solve so the optimal path is genuinely slow on
    // any machine, and both services are taught that cost up front
    // (plus a fast drain rate, so the verdict is about the SERVICE
    // term, not the queue). Off must turn the burst away wholesale
    // (modulo the deliberate every-8th idle probe admissions); Auto
    // must rescue it onto the greedy path — serve_degrade_rate is the
    // fraction of the burst served degraded (ratio-gated, expected
    // 1.0), serve_degrade_wall_ms the wall clock of draining the
    // degraded burst (wall-gated: greedy scheduling keeps it cheap).
    // Admission counts are timing-nudgeable (probe cadence interacts
    // with dispatcher pacing), so nothing here enters the checksum.
    {
        FaultInjector::Config faults;
        faults.ilpStallMs = 2.0;
        FaultInjector::global().configure(faults);
        auto degNet = cnn::convLayersOnly(cnn::makeModel("AlexNet"));
        const std::string degShape = accel::requestShapeKey(degNet, 1);
        // Distinct request keys over ONE shape class: nudge an SPM
        // capacity per request so nothing coalesces, while the
        // estimator still judges them as one shape.
        auto degReq = [&](int i) {
            serve::EvalRequest r;
            r.cfg = accel::makeScheme(accel::Scheme::Smart);
            r.cfg.inputSpm.capacityBytes += 64u * (i + 1);
            r.model = degNet;
            r.batch = 1;
            r.tag = "degrade";
            return r;
        };
        double probedIlpMs = 0.0;
        {
            serve::EvalService probe;
            for (int i = 900; i < 903; ++i)
                probe.submit(degReq(i)).response.get();
            probedIlpMs = probe.metrics().estServiceMs;
        }
        const double degSloMs = 0.8 * probedIlpMs;
        auto degConfig = [&](serve::DegradePolicy policy) {
            serve::ServiceConfig c;
            c.queue.maxDepth = 128;
            c.maxWave = 8;
            c.sloP95Ms = degSloMs;
            c.degradePolicy = policy;
            return c;
        };
        const int degBurst = 48;

        serve::EvalService off(degConfig(serve::DegradePolicy::Off));
        off.costEstimator().recordService(degShape, probedIlpMs);
        off.costEstimator().recordWave(1.0, 100);
        std::size_t offHopeless = 0;
        std::vector<std::future<serve::EvalResponse>> offProbes;
        for (int i = 0; i < degBurst; ++i) {
            auto sub = off.submit(degReq(i));
            if (sub.admission == serve::Admission::RejectedHopeless)
                ++offHopeless;
            else if (sub.admitted())
                offProbes.push_back(std::move(sub.response));
        }
        for (auto &f : offProbes)
            f.get();

        serve::EvalService deg(degConfig(serve::DegradePolicy::Auto));
        deg.costEstimator().recordService(degShape, probedIlpMs);
        deg.costEstimator().recordWave(1.0, 100);
        timer.reset();
        std::size_t degServed = 0;
        std::vector<std::future<serve::EvalResponse>> degAdmitted;
        for (int i = 0; i < degBurst; ++i) {
            auto sub = deg.submit(degReq(i));
            if (sub.admission == serve::Admission::ServedDegraded)
                degAdmitted.push_back(std::move(sub.response));
            else if (sub.admitted())
                sub.response.get();
        }
        std::vector<double> degMs;
        for (auto &f : degAdmitted) {
            const auto resp = f.get();
            if (resp.status == serve::ResponseStatus::Ok &&
                resp.degraded)
                ++degServed;
            if (resp.status == serve::ResponseStatus::Ok)
                degMs.push_back(resp.totalMs);
        }
        metrics.push_back({"serve_degrade_wall_ms", timer.ms()});
        metrics.push_back({"serve_degrade_slo_ms", degSloMs});
        metrics.push_back(
            {"serve_degrade_off_rejected_hopeless",
             static_cast<double>(offHopeless)});
        metrics.push_back(
            {"serve_degrade_rate",
             static_cast<double>(degServed) / degBurst});
        double degP95 = 0.0;
        if (!degMs.empty()) {
            std::sort(degMs.begin(), degMs.end());
            degP95 = degMs[static_cast<std::size_t>(
                0.95 * (degMs.size() - 1))];
        }
        metrics.push_back({"serve_degrade_admitted_p95_ms", degP95});
        const auto dm = deg.metrics();
        metrics.push_back(
            {"serve_degrade_served",
             static_cast<double>(dm.servedDegraded)});
        metrics.push_back(
            {"serve_degrade_latency_p95_ms", dm.degradedLatencyP95Ms});
        FaultInjector::global().reset();
        // The capacity-nudged burst left ~100 junk schedules in the
        // process-wide ILP memo; drop them so nothing downstream
        // accidentally reuses a stall-era entry.
        accel::clearIlpCache();
    }

    // Tracer overhead: the serve replay, untraced vs traced at a
    // 1-in-16 sampling rate. Each timed replay runs cold — the
    // process-wide schedule memo is cleared per iteration — so every
    // request re-solves and re-evaluates, and the pair compares
    // tracer cost against genuine serve-path work (~hundreds of ms a
    // loop, far above the gate's noise floor), not memo-lookup
    // trivia. The untraced and traced replays are interleaved so slow
    // machine drift (thermal, noisy neighbors) cancels out of the
    // ratio, which is what check_bench_regression.sh gates at 5%.
    //
    // maxWave=1 serializes the drain, which makes the stage-p95
    // coverage check below statistically sound: with every request
    // dominated by its queue-drain position and a small own-service
    // tail, queue_wait and end-to-end time are comonotone and stage
    // p95s add. (Bigger waves put a ~wave-sized serve span on a
    // DIFFERENT request than the longest queue wait — the stages
    // turn anti-comonotone and the p95 sum structurally overshoots
    // the end-to-end p95; batching behavior itself is covered by the
    // serve_* scenarios above.) The traced run also exports the
    // per-stage breakdown and, with --trace-out, the Chrome/Perfetto
    // trace JSON. Nothing here enters the checksum: sampling makes
    // no result-visible difference by contract, and the memo caches
    // are left exactly as the degrade scenario leaves them (cleared).
    {
        // 21 interleaved pairs of ~20 ms replays: on a shared 4-core
        // host single loops swing by 20-40%, and the medians of 7
        // pairs still crossed the 5% / 2 ms gate in 2 of 6 runs; with
        // 21 pairs six runs stayed within 2.3%.
        const int tracedLoops = 21;

        serve::ServiceConfig ucfg;
        ucfg.queue.maxDepth = 256;
        ucfg.maxWave = 1;
        serve::EvalService usvc(ucfg);

        serve::ServiceConfig tcfg2 = ucfg;
        tcfg2.traceSampleEvery = 16;
        serve::EvalService tracedSvc(tcfg2);
        serve::replayTrace(tracedSvc, trace, /*timeScale=*/0.0);
        // Drop the warm-up pass's spans: the stage breakdown below
        // must describe the same steady-state work the timer
        // measures, not the memo-priming first replay.
        TraceRecorder::global().clear();

        // Per-loop wall times; the emitted metric is the per-loop
        // MEDIAN, so a one-off scheduler hiccup landing on a single
        // replay cannot fake a 5% overhead (or mask one).
        std::vector<double> uLoopMs, tLoopMs;
        std::vector<double> e2eMs;
        for (int i = 0; i < 2 * tracedLoops; ++i) {
            // Pairs alternate which side runs first, so a drift inside
            // a pair does not always land on the same side.
            const bool traced = (i % 2 == 1) != (i / 2 % 2 == 1);
            accel::clearIlpCache();
            timer.reset();
            const auto rep = serve::replayTrace(
                traced ? tracedSvc : usvc, trace, /*timeScale=*/0.0);
            (traced ? tLoopMs : uLoopMs).push_back(timer.ms());
            if (!traced)
                continue;
            // Only sampled requests have stage spans, so the e2e p95
            // they are judged against must come from the same
            // population.
            for (const auto &r : rep.responses)
                if (r.status == serve::ResponseStatus::Ok &&
                    r.traceId != 0)
                    e2eMs.push_back(r.totalMs);
        }
        metrics.push_back(
            {"serve_traced_untraced_ms", medianOf(uLoopMs)});
        metrics.push_back(
            {"serve_traced_replay_ms", medianOf(tLoopMs)});

        double e2eP95 = 0.0;
        if (!e2eMs.empty()) {
            std::sort(e2eMs.begin(), e2eMs.end());
            e2eP95 = e2eMs[static_cast<std::size_t>(
                0.95 * (e2eMs.size() - 1))];
        }
        double stageP95Sum = 0.0;
        for (const auto &st : tracedSvc.metrics().stages) {
            if (st.name == "queue_wait" || st.name == "serve") {
                metrics.push_back(
                    {"serve_traced_stage_" + st.name + "_p95_ms",
                     st.p95Ms});
                stageP95Sum += st.p95Ms;
            }
        }
        metrics.push_back(
            {"serve_traced_stage_p95_sum_ms", stageP95Sum});
        metrics.push_back({"serve_traced_e2e_p95_ms", e2eP95});

        if (!traceOut.empty()) {
            std::ofstream tf(traceOut);
            tf << TraceRecorder::global().chromeTraceJson();
        }
        TraceRecorder::global().reset();
    }

    // Task scheduler counters over the whole sweep: how many tasks
    // the substrate ran, how many of them ran off their spawner's
    // thread (steals; steal_failures is always 0), and the deepest the
    // shared queue got. A healthy multi-thread run shows steals > 0;
    // a serial run shows 0 steals and tasks_run == 0 (everything
    // inlines).
    const auto sched = TaskScheduler::global().stats();
    metrics.push_back(
        {"sched_tasks_run", static_cast<double>(sched.tasksRun)});
    metrics.push_back(
        {"sched_steals", static_cast<double>(sched.steals)});
    metrics.push_back(
        {"sched_steal_failures",
         static_cast<double>(sched.stealFailures)});
    metrics.push_back(
        {"sched_max_queue_depth",
         static_cast<double>(sched.maxQueueDepth)});

    metrics.push_back({"total_ms", total.ms()});

    // Keep the evaluated results observable (and un-optimizable).
    // SLO-service admissions are timing-dependent, so neither the
    // serve_slo burst nor the serve_tslo scenario contributes — only
    // the serve_slo probe pass does; see above.
    double checksum = ilpBatch.objectiveSum + probeChecksum;
    for (const auto &r : single)
        checksum += r.throughputTmacs();
    for (const auto &r : batch)
        checksum += r.throughputTmacs();
    for (const auto &p : points)
        checksum += p.feasible ? p.leakageMw : 0.0;
    for (const auto *rep : {&cold, &warm, &mtcold, &mtwarm})
        for (const auto &r : rep->responses)
            if (r.status == serve::ResponseStatus::Ok)
                checksum += r.result.throughputTmacs();
    metrics.push_back({"checksum", checksum});

    bench::writeBenchJson(out, "bench_micro", metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (bench::jsonMode(argc, argv))
        return jsonMain(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
