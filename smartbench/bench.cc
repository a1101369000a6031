/**
 * @file
 * The repository benchmark: host-time cost of the SMART model under
 * three workloads, driven only through the library's public API.
 *
 *   grid_cold   the Figs. 18-21 grid (6 models x 6 schemes x {single,
 *               paper batch} = 72 points) through one accel::runBatch,
 *               with the schedule memo cleared before every pass.
 *   grid_warm   the same grid with the memo filled during set-up.
 *   serve_open  an open-loop Poisson stream into one serve::EvalService.
 *
 * With --trace 0 it prints the end-to-end metrics; with --trace 1 it
 * interleaves untraced and traced passes (or windows) and prints the
 * per-layer breakdown taken from the TraceRecorder plus outside probes.
 * Simulated statistics are never metrics: every grid point is digested
 * and compared with a reference recorded from the seed commit, and every
 * served result is compared bit for bit with a direct runInference.
 * Grid times are scaled to a reference host speed (see HostSpeed).
 *
 * Run through run.py, which builds this program and fixes the worker
 * count per workload. The last stdout line is the result object.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/batch.hh"
#include "accel/config.hh"
#include "accel/perf.hh"
#include "cnn/models.hh"
#include "common/logging.hh"
#include "common/taskgraph.hh"
#include "common/tracespan.hh"
#include "serve/service.hh"
#include "systolic/trace.hh"

namespace
{

using namespace smart;
using Clock = std::chrono::steady_clock;

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 3;
/** Fewest timed passes (per kind) a grid run makes. */
constexpr std::size_t kMinPasses = 3;
/** Per-thread trace ring for grid passes; no pass comes near it. */
constexpr std::size_t kGridRingSlots = std::size_t{1} << 14;
/** Per-thread trace ring for a serve window (~50 events/request). */
constexpr std::size_t kServeRingSlots = std::size_t{1} << 17;
/**
 * A generator whose lag p99 exceeds this many mean inter-arrival gaps
 * no longer offers the stated rate, and the run is invalid. Latency
 * counts from the intended send time, so smaller lags do not bias it.
 */
constexpr double kMaxLagP99Gaps = 2.0;

// serve_open traffic mix (fixed counts per run, shuffled by the seed).
// Each latency percentile must land inside one class whose cost is
// uniform; at a class or model boundary it jumps between runs. The
// median lands inside the memo-hit class, and the p99 (25 requests
// beyond it per 2500) among the fresh solves and the requests queued
// behind them.
constexpr double kRepeatShare = 0.25; //!< Result-cache hits, any model.
constexpr double kFreshShare = 0.02;  //!< New SPM size: fresh ILP.
// The rest are new batch sizes over known shapes: schedule-memo hits.
/**
 * Memo-hit requests use this model: its evaluation costs about the same
 * under every scheme (4.1-4.7 ms at one worker), where mixing models
 * spreads the class over 1.3-4.8 ms. A cheap model (AlexNet, ~1.4 ms) let
 * thread wake-up noise move the median by a tenth between runs.
 */
constexpr const char *kMemoModel = "VGG16";
/** Fresh requests use this model: every layer's ILP solves. */
constexpr const char *kFreshModel = "MobileNet";
/**
 * Fresh request j adds kFreshNudgeBase + 8 j bytes to the SHIFT capacity.
 * The fresh-solve cost depends on the nudge (at one worker, 125-207 ms
 * below 700 bytes, 55-97 ms from 704 to 2048), so every run uses the same
 * nudges and the seed only orders them; drawn nudges let the seed decide
 * the tail.
 */
constexpr std::uint64_t kFreshNudgeBase = 1024;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t
toNs(Clock::time_point t)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (q in (0, 100]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/**
 * Peak resident set of this program's image (VmHWM). getrusage's
 * ru_maxrss would also count the launching process, whose peak Linux
 * carries across exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    double kb = 0.0;
    while (status >> key) {
        if (key == "VmHWM:" && status >> kb)
            return kb / 1024.0;
        status.ignore(4096, '\n');
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** splitmix64: the benchmark's own input generator, seeded per run. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t s_;
};

// ------------------------------------------------------------------
// Host speed
// ------------------------------------------------------------------

/**
 * Calibration time that the scaled figures refer to: the kernel below
 * took about this long on the 4-core Xeon (Sapphire Rapids, KVM) host the
 * bounds were set on.
 */
constexpr double kRefCalibMs = 3.0;
/** Kernel repetitions per calibration; the median one counts. */
constexpr int kCalibReps = 5;

/**
 * A fixed CPU-bound kernel of the benchmark's own, timed between grid
 * passes (and set-ups) on the thread that runs them, so that each pass's
 * host time can be scaled to a reference host speed. The shared host
 * slows every core by 1.4-2x in spells of seconds to minutes (a cold grid
 * pass took 1.6 s in a quiet spell and 2.5-3.1 s in a busy one, with
 * process CPU time equal to wall time), far more than any regression
 * bound. Over ten minutes of such spells the median of per-pass scaled
 * times spread 3-5% (IQR/median over 20 s stretches) where the raw times
 * spread 10-26%. The kernel mixes what the library does (bounds-checked
 * stencil counting as in demand analysis, dense floating point as in the
 * ILP's simplex, branchy sorting, scattered table probes), uses no library
 * code and allocates nothing while timed, so a library change moves the
 * scaled figures exactly as it moves the raw ones.
 */
class HostSpeed
{
  public:
    HostSpeed()
        : matrix_(kN * kN), work_(kN * kN), keys_(kKeys), sorted_(kKeys),
          table_(kSlots)
    {
        SplitMix rng(0x5eed);
        for (std::size_t i = 0; i < kN; ++i)
            for (std::size_t j = 0; j < kN; ++j)
                matrix_[i * kN + j] = rng.unit() + (i == j ? 4.0 : 0.0);
        for (auto &k : keys_)
            k = rng.next();
        for (auto &t : table_)
            t = rng.next();
        // An 11x11 stride-4, a 3x3 and a 1x1 layer; input sizes drawn so
        // the compiler cannot fold the loops.
        for (int k : {11, 3, 1}) {
            const int in = 224 + static_cast<int>(rng.below(4));
            const int stride = k == 11 ? 4 : 1, pad = k / 2;
            shapes_.push_back(
                {k, stride, pad, in, (in + 2 * pad - k) / stride + 1});
        }
    }

    /** One calibration: the median of kCalibReps kernel runs (ms). */
    double measureMs()
    {
        std::vector<double> reps;
        for (int r = 0; r < kCalibReps; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            sink_ = sink_ ^ kernel();
            reps.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
        }
        samples_.insert(samples_.end(), reps.begin(), reps.end());
        std::sort(reps.begin(), reps.end());
        return reps[reps.size() / 2];
    }

    /** Median kernel time over every calibration of this run (ms). */
    double runMs() const
    {
        std::vector<double> v = samples_;
        std::sort(v.begin(), v.end());
        const std::size_t n = v.size();
        return n == 0 ? 0.0
                      : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    }

    /** Scale for a time measured between two calibrations. */
    static double scaleBetween(double calibBeforeMs, double calibAfterMs)
    {
        return kRefCalibMs / (0.5 * (calibBeforeMs + calibAfterMs));
    }

  private:
    static constexpr std::size_t kN = 48;
    static constexpr int kLuReps = 4;
    static constexpr std::size_t kKeys = 1 << 14;
    static constexpr std::size_t kSlots = 1 << 16; // 512 KiB
    static constexpr std::size_t kProbes = 1 << 17;

    struct Shape
    {
        int k, stride, pad, in, out;
    };

    std::uint64_t kernel()
    {
        // Bounds-checked stencil counting over conv-like shapes.
        std::uint64_t valid = 0;
        for (const Shape &sh : shapes_)
            for (int kr = 0; kr < sh.k; ++kr)
                for (int ks = 0; ks < sh.k; ++ks)
                    for (int oh = 0; oh < sh.out; ++oh) {
                        const int ih = oh * sh.stride - sh.pad + kr;
                        if (ih < 0 || ih >= sh.in)
                            continue;
                        for (int ow = 0; ow < sh.out; ++ow) {
                            const int iw = ow * sh.stride - sh.pad + ks;
                            if (iw >= 0 && iw < sh.in)
                                ++valid;
                        }
                    }
        // Dense LU with partial pivoting.
        double det = 0.0;
        for (int rep = 0; rep < kLuReps; ++rep) {
            work_ = matrix_;
            for (std::size_t c = 0; c < kN; ++c) {
                std::size_t p = c;
                for (std::size_t r = c + 1; r < kN; ++r)
                    if (std::fabs(work_[r * kN + c]) >
                        std::fabs(work_[p * kN + c]))
                        p = r;
                if (p != c)
                    for (std::size_t j = 0; j < kN; ++j)
                        std::swap(work_[c * kN + j], work_[p * kN + j]);
                const double inv = 1.0 / work_[c * kN + c];
                for (std::size_t r = c + 1; r < kN; ++r) {
                    const double f = work_[r * kN + c] * inv;
                    for (std::size_t j = c; j < kN; ++j)
                        work_[r * kN + j] -= f * work_[c * kN + j];
                }
            }
            det += std::log(std::fabs(work_[kN * kN - 1]));
        }
        // Branchy integer sort.
        sorted_ = keys_;
        std::sort(sorted_.begin(), sorted_.end());
        // Dependent probes into a table larger than L1.
        std::uint64_t h = sorted_[kKeys / 2] + valid;
        for (std::size_t i = 0; i < kProbes; ++i)
            h = table_[(h ^ (h >> 29)) & (kSlots - 1)] + i;
        std::uint64_t detBits;
        std::memcpy(&detBits, &det, sizeof detBits);
        return h ^ detBits;
    }

    std::vector<double> matrix_, work_;
    std::vector<std::uint64_t> keys_, sorted_, table_;
    std::vector<Shape> shapes_;
    std::vector<double> samples_;
    volatile std::uint64_t sink_ = 0; //!< Keeps the kernel from folding.
};

// ------------------------------------------------------------------
// Command line
// ------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double serveRate = 0.0;     //!< Offered req/s (serve_open).
    bool tiny = false;          //!< Two models only (smoke test).
    std::string reference;      //!< Reference digest file.
    std::string writeReference; //!< Record digests here and exit.
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + arg);
        const std::string val = argv[++i];
        if (arg == "--workload")
            o.workload = val;
        else if (arg == "--seed")
            o.seed = std::stoull(val);
        else if (arg == "--seconds")
            o.seconds = std::stod(val);
        else if (arg == "--trace")
            o.trace = std::stoi(val) != 0;
        else if (arg == "--serve-rate")
            o.serveRate = std::stod(val);
        else if (arg == "--reference")
            o.reference = val;
        else if (arg == "--write-reference")
            o.writeReference = val;
        else
            throw std::runtime_error("unknown argument " + arg);
    }
    if (o.workload != "grid_cold" && o.workload != "grid_warm" &&
        o.workload != "serve_open" && o.writeReference.empty())
        throw std::runtime_error("unknown workload '" + o.workload + "'");
    if (!(o.seconds > 0.0))
        throw std::runtime_error("--seconds must be positive");
    if (o.workload == "serve_open" && !(o.serveRate > 0.0))
        throw std::runtime_error("serve_open needs --serve-rate > 0");
    return o;
}

// ------------------------------------------------------------------
// Result digest: every simulated statistic, bit for bit
// ------------------------------------------------------------------

class Digest
{
  public:
    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull; // FNV-1a
        }
    }
    void num(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        bytes(&bits, sizeof bits);
    }
    void num(std::uint64_t v) { bytes(&v, sizeof v); }
    void text(const std::string &s)
    {
        num(static_cast<std::uint64_t>(s.size()));
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t
digestOf(const accel::InferenceResult &r)
{
    Digest d;
    d.text(r.model);
    d.text(r.scheme);
    d.num(static_cast<std::uint64_t>(r.batch));
    d.num(static_cast<std::uint64_t>(r.totalCycles));
    d.num(static_cast<std::uint64_t>(r.weightDramCycles));
    d.num(r.seconds);
    d.num(r.totalMacs);
    d.num(static_cast<std::uint64_t>(r.schedQuality));
    d.num(r.schedGapBound);
    d.num(static_cast<std::uint64_t>(r.layers.size()));
    for (const auto &l : r.layers) {
        d.text(l.name);
        for (Cycles c : {l.computeCycles, l.inputService, l.weightService,
                         l.outputService, l.serialOverhead,
                         l.weightDramCycles, l.totalCycles})
            d.num(static_cast<std::uint64_t>(c));
        const auto &k = l.counters;
        for (double v : {k.shiftSteps, k.shiftLaneBytes, k.randomReadBytes,
                         k.randomWriteBytes, k.dramBytes, k.macs})
            d.num(v);
        d.num(static_cast<std::uint64_t>(l.schedQuality));
        d.num(l.schedGapBound);
    }
    return d.value();
}

std::string
pointLabel(const accel::BatchItem &item)
{
    return item.model.name + "/" + accel::schemeName(item.cfg.scheme) +
           "/b" + std::to_string(item.batch);
}

// ------------------------------------------------------------------
// Result line
// ------------------------------------------------------------------

struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void add(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    /** A wrong result or a broken invariant: the run is not valid. */
    void invalid(const std::string &why)
    {
        correct = false;
        std::cerr << "smartbench: " << why << "\n";
    }

    std::string json() const
    {
        std::ostringstream os;
        os << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted
           << ", \"failed\": " << failed << ", \"metrics\": {";
        char buf[64];
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const double v = std::isfinite(metrics[i].second.first)
                                 ? metrics[i].second.first
                                 : 0.0;
            std::snprintf(buf, sizeof buf, "%.17g", v);
            os << (i ? ", " : "") << "\"" << metrics[i].first
               << "\": {\"value\": " << buf << ", \"unit\": \""
               << metrics[i].second.second << "\"}";
        }
        os << "}}";
        return os.str();
    }
};

// ------------------------------------------------------------------
// Trace analysis: per-thread self time of nested spans
// ------------------------------------------------------------------

struct SpanTotals
{
    double ms = 0.0;     //!< Summed span durations.
    double selfMs = 0.0; //!< Minus same-thread child spans.
    std::uint64_t count = 0;
    std::int64_t argSum = 0;
};

struct TraceSummary
{
    std::map<std::string, SpanTotals> spans;
    std::map<std::string, std::uint64_t> instants;

    SpanTotals span(const std::string &name) const
    {
        auto it = spans.find(name);
        return it == spans.end() ? SpanTotals{} : it->second;
    }
    std::uint64_t instant(const std::string &name) const
    {
        auto it = instants.find(name);
        return it == instants.end() ? 0 : it->second;
    }
};

/**
 * Spans that open and close on one thread and so nest there. Help-while-
 * waiting runs one item's spans inside another's on the same thread, so
 * self time is computed per thread id. Spans recorded across threads
 * (queue_wait, serve, bench.request) cover time in which the recording
 * thread did other work; they are totalled but never nest.
 */
bool
nestsOnThread(const std::string &name)
{
    static const std::set<std::string> nesting = {
        "bench.pass", "bench.submit", "submit",       "estimate",
        "execute",    "schedule_ilp", "schedule_greedy", "ilp_solve"};
    return nesting.count(name) > 0;
}

TraceSummary
summarize(const std::vector<TraceRecorder::Event> &events)
{
    struct Interval
    {
        std::uint64_t begin, end;
        const char *name;
    };
    TraceSummary out;
    std::map<std::uint32_t, std::vector<Interval>> byThread;
    for (const auto &e : events) {
        if (e.kind == TraceRecorder::EventKind::Instant) {
            ++out.instants[e.name];
            continue;
        }
        if (e.kind != TraceRecorder::EventKind::End)
            continue;
        auto &t = out.spans[e.name];
        t.ms += static_cast<double>(e.durNs) * 1e-6;
        ++t.count;
        t.argSum += e.arg;
        if (nestsOnThread(e.name))
            byThread[e.tid].push_back(
                {e.tsNs - e.durNs, e.tsNs, e.name});
        else
            t.selfMs += static_cast<double>(e.durNs) * 1e-6;
    }
    for (auto &[tid, spans] : byThread) {
        std::sort(spans.begin(), spans.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.begin != b.begin ? a.begin < b.begin
                                                : a.end > b.end;
                  });
        std::vector<std::size_t> stack;
        std::vector<std::uint64_t> childNs(spans.size(), 0);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            while (!stack.empty() && spans[stack.back()].end <= spans[i].begin)
                stack.pop_back();
            if (!stack.empty())
                childNs[stack.back()] += spans[i].end - spans[i].begin;
            stack.push_back(i);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const std::uint64_t dur = spans[i].end - spans[i].begin;
            out.spans[spans[i].name].selfMs +=
                static_cast<double>(dur - std::min(dur, childNs[i])) * 1e-6;
        }
    }
    return out;
}

/** analyzeDemand over exactly the (layer, PE array) pairs evaluated. */
using DemandPairs =
    std::vector<std::pair<const systolic::ConvLayer *, systolic::ArrayDims>>;

/** Median of three timed sweeps over @p pairs (ms). */
double
demandProbeMs(const DemandPairs &pairs)
{
    std::vector<double> ms;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        for (const auto &[layer, pe] : pairs)
            sink += systolic::analyzeDemand(*layer, pe).inputPortReads;
        ms.push_back(msBetween(t0, Clock::now()));
    }
    if (sink == 0)
        std::cerr << "smartbench: demand probe saw no input reads\n";
    return median(ms);
}

struct SchedDelta
{
    std::uint64_t tasksRun = 0, steals = 0, stealFailures = 0;
};

SchedDelta
schedDelta(const TaskScheduler::Stats &a, const TaskScheduler::Stats &b)
{
    return {b.tasksRun - a.tasksRun, b.steals - a.steals,
            b.stealFailures - a.stealFailures};
}

/** Per-layer figures shared by every workload (see README). */
void
addLayerMetrics(Report &rep, const TraceSummary &s, double demandMs,
                std::size_t demandCalls, const SchedDelta &sched,
                double wallMs)
{
    const SpanTotals solve = s.span("ilp_solve");
    SpanTotals sched_ilp = s.span("schedule_ilp");
    const SpanTotals sched_greedy = s.span("schedule_greedy");
    sched_ilp.ms += sched_greedy.ms;
    sched_ilp.selfMs += sched_greedy.selfMs;
    sched_ilp.count += sched_greedy.count;
    const SpanTotals exec = s.span("execute");
    // analyzeDemand runs inside execute without a span of its own; the
    // outside probe attributes its time to the systolic layer.
    const double execSelf = std::max(0.0, exec.selfMs - demandMs);
    const double hits = static_cast<double>(s.instant("schedule_memo_hit"));
    const double misses = static_cast<double>(sched_ilp.count);

    rep.add("ilp.solve_ms", solve.ms, "ms");
    rep.add("ilp.solves", static_cast<double>(solve.count), "count");
    rep.add("ilp.bnb_nodes", static_cast<double>(solve.argSum), "count");
    rep.add("ilp.fallbacks", static_cast<double>(s.instant("ilp_fallback")),
            "count");
    rep.add("compiler.schedule_ms", sched_ilp.ms, "ms");
    rep.add("compiler.self_ms", sched_ilp.selfMs, "ms");
    rep.add("compiler.schedules", misses, "count");
    rep.add("accel.execute_self_ms", execSelf, "ms");
    rep.add("accel.memo_hits", hits, "count");
    rep.add("accel.memo_misses", misses, "count");
    rep.add("accel.memo_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    rep.add("systolic.demand_ms", demandMs, "ms");
    rep.add("systolic.demand_calls", static_cast<double>(demandCalls),
            "count");
    rep.add("common.taskgraph.tasks_run",
            static_cast<double>(sched.tasksRun), "count");
    rep.add("common.taskgraph.steals", static_cast<double>(sched.steals),
            "count");
    rep.add("common.taskgraph.steal_failures",
            static_cast<double>(sched.stealFailures), "count");
    rep.add("bench.wall_ms", wallMs, "ms");
    const double layerSelf = execSelf + demandMs + sched_ilp.selfMs + solve.ms;
    rep.add("trace.self_coverage_share",
            wallMs > 0 ? layerSelf / wallMs : 0.0, "ratio");
}

/** Serve-layer figures; all zero on the grid workloads. */
struct ServeLayer
{
    double submitP50 = 0, submitP99 = 0, queueP50 = 0, queueP99 = 0,
           serveP99 = 0, hits = 0, misses = 0, coalesced = 0, waves = 0,
           meanWave = 0, highWater = 0, lagP99 = 0;
};

void
addServeMetrics(Report &rep, const ServeLayer &s)
{
    rep.add("serve.submit_p50_ms", s.submitP50, "ms");
    rep.add("serve.submit_p99_ms", s.submitP99, "ms");
    rep.add("serve.queue_wait_p50_ms", s.queueP50, "ms");
    rep.add("serve.queue_wait_p99_ms", s.queueP99, "ms");
    rep.add("serve.serve_p99_ms", s.serveP99, "ms");
    rep.add("serve.cache_hits", s.hits, "count");
    rep.add("serve.cache_misses", s.misses, "count");
    rep.add("serve.cache_hit_ratio",
            s.hits + s.misses > 0 ? s.hits / (s.hits + s.misses) : 0.0,
            "ratio");
    rep.add("serve.coalesced", s.coalesced, "count");
    rep.add("serve.waves", s.waves, "count");
    rep.add("serve.mean_wave_size", s.meanWave, "items");
    rep.add("serve.queue_high_water", s.highWater, "count");
    rep.add("generator.lag_p99_ms", s.lagP99, "ms");
}

// ------------------------------------------------------------------
// grid_cold / grid_warm
// ------------------------------------------------------------------

const std::vector<accel::Scheme> &
allSchemes()
{
    static const std::vector<accel::Scheme> schemes = {
        accel::Scheme::Tpu,   accel::Scheme::SuperNpu, accel::Scheme::Sram,
        accel::Scheme::Heter, accel::Scheme::Pipe,     accel::Scheme::Smart};
    return schemes;
}

std::vector<std::string>
modelSet(bool tiny)
{
    if (tiny)
        return {kMemoModel, kFreshModel};
    return cnn::modelNames();
}

/** Figs. 18-21: every model x scheme, single image then paper batch. */
std::vector<accel::BatchItem>
figureGrid(bool tiny)
{
    std::vector<accel::BatchItem> items;
    for (bool paperBatch : {false, true}) {
        for (const auto &name : modelSet(tiny)) {
            const cnn::CnnModel net =
                cnn::convLayersOnly(cnn::makeModel(name));
            for (accel::Scheme s : allSchemes()) {
                accel::BatchItem item;
                item.cfg = accel::makeScheme(s);
                item.model = net;
                item.batch =
                    paperBatch ? cnn::paperBatchSize(
                                     name, s == accel::Scheme::SuperNpu)
                               : 1;
                items.push_back(std::move(item));
            }
        }
    }
    return items;
}

std::map<std::string, std::uint64_t>
loadReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference " + path);
    std::map<std::string, std::uint64_t> ref;
    std::string label, hex;
    while (in >> label >> hex)
        ref[label] = std::stoull(hex, nullptr, 16);
    if (ref.empty())
        throw std::runtime_error("empty reference " + path);
    return ref;
}

struct GridPass
{
    double ms = 0.0;
    /**
     * Per-point latency: the gap between a point's completion and the
     * previous completion in the pass (or the pass start). At one worker
     * it is the point's own evaluation time.
     */
    std::vector<double> pointMs;
    std::vector<accel::InferenceResult> results;
};

GridPass
runPass(const std::vector<accel::BatchItem> &items)
{
    GridPass p;
    std::vector<double> doneMs(items.size());
    const auto t0 = Clock::now();
    p.results = accel::runBatch(
        items, [&](std::size_t i, const accel::InferenceResult &) {
            doneMs[i] = msBetween(t0, Clock::now());
        });
    p.ms = msBetween(t0, Clock::now());
    std::sort(doneMs.begin(), doneMs.end());
    double prev = 0.0;
    for (double d : doneMs) {
        p.pointMs.push_back(d - prev);
        prev = d;
    }
    return p;
}

/** Compare every point with the reference; returns mismatches. */
std::uint64_t
checkPass(const std::vector<accel::BatchItem> &items, const GridPass &p,
          const std::map<std::string, std::uint64_t> &ref, Report &rep)
{
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string label = pointLabel(items[i]);
        auto it = ref.find(label);
        if (it == ref.end() || it->second != digestOf(p.results[i])) {
            ++bad;
            rep.invalid("grid point " + label + " differs from reference");
        }
    }
    rep.attempted += items.size();
    rep.failed += bad;
    return bad;
}

int
writeReference(const std::string &path)
{
    const auto items = figureGrid(false);
    accel::clearIlpCache();
    const auto results = accel::runBatch(items);
    std::ofstream out(path);
    char hex[32];
    for (std::size_t i = 0; i < items.size(); ++i) {
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(digestOf(results[i])));
        out << pointLabel(items[i]) << " " << hex << "\n";
    }
    return out ? 0 : 1;
}

void
runGrid(const Options &o, bool warm, Report &rep)
{
    // Set-up: scheduler start (first rep only), grid, reference, and one
    // cold pass. For grid_warm that pass fills the schedule memo; for
    // grid_cold it runs every lazily initialized path once, and the memo
    // is cleared again before each timed pass.
    std::vector<accel::BatchItem> items;
    std::map<std::string, std::uint64_t> ref;
    std::vector<double> setupS;
    HostSpeed host;
    double calibBefore = host.measureMs();
    // Scales a time measured since the last calibration, and recalibrates.
    auto scaleSinceCalib = [&] {
        const double calibAfter = host.measureMs();
        const double f = HostSpeed::scaleBetween(calibBefore, calibAfter);
        calibBefore = calibAfter;
        return f;
    };
    for (int r = 0; r < kSetupReps; ++r) {
        const auto t0 = Clock::now();
        TaskScheduler::global();
        items = figureGrid(o.tiny);
        ref = loadReference(o.reference);
        accel::clearIlpCache();
        checkPass(items, runPass(items), ref, rep);
        const double s = msBetween(t0, Clock::now()) / 1000.0;
        setupS.push_back(s * scaleSinceCalib());
    }
    const double n = static_cast<double>(items.size());

    DemandPairs pairs;
    for (const auto &item : items)
        for (const auto &layer : item.model.layers)
            pairs.push_back({&layer, item.cfg.pe});

    auto &rec = TraceRecorder::global();
    TraceRecorder::Config tc;
    tc.sampleEvery = 1;
    tc.ringSlots = kGridRingSlots;

    struct Traced
    {
        double ms, scaledMs;
        TraceSummary summary;
        SchedDelta sched;
    };
    // Untraced pass and point times, each scaled to the reference host.
    std::vector<double> plainMs, rawMs, pointMs;
    std::vector<Traced> traced;
    double okPoints = 0.0;
    const auto start = Clock::now();
    // Untraced passes alone in --trace 0; alternating with traced ones
    // in --trace 1, so slow drift cancels out of the overhead figure.
    while (plainMs.size() < kMinPasses ||
           (o.trace && traced.size() < kMinPasses) ||
           msBetween(start, Clock::now()) < o.seconds * 1000.0) {
        const bool tracing = o.trace && traced.size() < plainMs.size();
        if (!warm)
            accel::clearIlpCache();
        if (!tracing) {
            rec.reset();
            for (auto &item : items)
                item.traceId = 0;
            const GridPass p = runPass(items);
            const double f = scaleSinceCalib();
            okPoints += n - static_cast<double>(checkPass(items, p, ref, rep));
            rawMs.push_back(p.ms);
            plainMs.push_back(p.ms * f);
            for (double ms : p.pointMs)
                pointMs.push_back(ms * f);
            continue;
        }
        rec.configure(tc);
        for (auto &item : items)
            item.traceId = rec.startTrace();
        const auto s0 = TaskScheduler::global().stats();
        GridPass p;
        {
            ScopedSpan span(rec.startTrace(), "bench.pass");
            p = runPass(items);
        }
        const double f = scaleSinceCalib();
        const SchedDelta sd = schedDelta(s0, TaskScheduler::global().stats());
        checkPass(items, p, ref, rep);
        TraceSummary summary = summarize(rec.events());
        if (summary.span("execute").count != items.size())
            rep.invalid("traced pass recorded " +
                        std::to_string(summary.span("execute").count) +
                        " execute spans for " +
                        std::to_string(items.size()) + " points");
        traced.push_back({p.ms, p.ms * f, std::move(summary), sd});
    }
    rec.reset();
    std::cerr << "smartbench: " << plainMs.size() << " passes, ms:";
    for (double ms : rawMs)
        std::cerr << " " << ms;
    std::cerr << "\nsmartbench: median pass " << median(rawMs)
              << " ms, scaled " << median(plainMs) << " ms, calibration "
              << host.runMs() << " ms\n";

    if (!o.trace) {
        rep.add("setup_s", median(setupS), "s");
        rep.add("points_per_s", n / (median(plainMs) / 1000.0), "1/s");
        // Correct points per second of the median pass, like points_per_s.
        rep.add("goodput_per_s",
                okPoints / static_cast<double>(plainMs.size()) /
                    (median(plainMs) / 1000.0),
                "1/s");
        rep.add("latency_p50_ms", percentile(pointMs, 50), "ms");
        rep.add("latency_p99_ms", percentile(pointMs, 99), "ms");
        rep.add("ok_share",
                1.0 - static_cast<double>(rep.failed) /
                          static_cast<double>(rep.attempted),
                "ratio");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        return;
    }
    // Report the traced pass of median wall time, so its figures add up.
    std::sort(traced.begin(), traced.end(),
              [](const Traced &a, const Traced &b) { return a.ms < b.ms; });
    const Traced &mid = traced[traced.size() / 2];
    std::vector<double> tracedMs;
    for (const auto &t : traced)
        tracedMs.push_back(t.scaledMs);
    addLayerMetrics(rep, mid.summary, demandProbeMs(pairs), pairs.size(),
                    mid.sched, mid.ms);
    addServeMetrics(rep, ServeLayer{});
    rep.add("trace.overhead_share",
            median(tracedMs) / median(plainMs) - 1.0, "ratio");
    rep.add("host.calib_ms", host.runMs(), "ms");
}

// ------------------------------------------------------------------
// serve_open
// ------------------------------------------------------------------

/** The seeded request stream of one serve_open run. */
struct ServeInputs
{
    std::vector<accel::BatchItem> points;  //!< One per request.
    std::vector<double> sendMs;            //!< Intended send offsets.
    std::vector<accel::BatchItem> memoWarm; //!< Fills the memo.
    std::vector<accel::BatchItem> cacheWarm; //!< Fills the result cache.
};

ServeInputs
makeServeInputs(const Options &o)
{
    SplitMix rng(o.seed);
    std::vector<cnn::CnnModel> nets;
    for (const auto &name : modelSet(o.tiny))
        nets.push_back(cnn::convLayersOnly(cnn::makeModel(name)));
    auto point = [&](const accel::AcceleratorConfig &cfg, std::size_t m,
                     int batch) {
        accel::BatchItem item;
        item.cfg = cfg;
        item.model = nets[m];
        item.batch = batch;
        return item;
    };

    ServeInputs in;
    struct Pair
    {
        std::size_t model, scheme;
    };
    std::vector<Pair> pairs;
    for (std::size_t m = 0; m < nets.size(); ++m)
        for (std::size_t s = 0; s < allSchemes().size(); ++s)
            pairs.push_back({m, s});
    for (std::size_t m = 0; m < nets.size(); ++m)
        in.memoWarm.push_back(point(accel::makeSmart(), m, 1));
    for (const Pair &p : pairs)
        in.cacheWarm.push_back(
            point(accel::makeScheme(allSchemes()[p.scheme]), p.model,
                  1 + static_cast<int>(rng.below(64))));

    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::round(o.serveRate * o.seconds)));
    // Bounds the unique batch sizes and capacity nudges drawn below.
    if (n > 8192)
        throw std::runtime_error("serve_open: more than 8192 requests");
    const auto nFresh = static_cast<std::size_t>(
        std::max(1.0, std::round(kFreshShare * static_cast<double>(n))));
    const auto nRepeat = std::min(
        n - std::min(n, nFresh),
        static_cast<std::size_t>(
            std::round(kRepeatShare * static_cast<double>(n))));
    enum Kind { Repeat, MemoHit, Fresh };
    std::vector<Kind> kinds(n, MemoHit);
    // One fresh request at a random position in each of nFresh equal
    // blocks: every stretch of the window carries the same ILP load, so
    // how often two fresh solves overlap is not left to the seed.
    for (std::size_t b = 0; b < nFresh; ++b) {
        const std::size_t lo = b * n / nFresh, hi = (b + 1) * n / nFresh;
        kinds[lo + rng.below(hi - lo)] = Fresh;
    }
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < n; ++i)
        if (kinds[i] != Fresh)
            rest.push_back(i);
    rng.shuffle(rest);
    for (std::size_t j = 0; j < nRepeat; ++j)
        kinds[rest[j]] = Repeat;

    // Stratified draws: each class cycles through shuffled permutations,
    // so every run carries the same per-model and per-scheme counts.
    auto cycler = [&rng](std::size_t size) {
        return [&rng, size, order = std::vector<std::size_t>(),
                pos = std::size_t{0}]() mutable {
            if (pos == order.size()) {
                order.resize(size);
                for (std::size_t i = 0; i < size; ++i)
                    order[i] = i;
                rng.shuffle(order);
                pos = 0;
            }
            return order[pos++];
        };
    };
    auto nextRepeat = cycler(in.cacheWarm.size());
    auto nextScheme = cycler(allSchemes().size());
    auto modelIndex = [&nets](const char *name) {
        std::size_t m = 0;
        while (nets[m].name != name)
            ++m;
        return m;
    };
    const std::size_t memoModel = modelIndex(kMemoModel);
    const std::size_t freshModel = modelIndex(kFreshModel);
    std::vector<std::set<int>> usedBatch(allSchemes().size());
    // Every run solves the same capacities, in a seeded order.
    std::vector<std::uint64_t> nudges;
    for (std::size_t j = 0; j < nFresh; ++j)
        nudges.push_back(kFreshNudgeBase + 8 * j);
    rng.shuffle(nudges);
    for (Kind k : kinds) {
        if (k == Repeat) {
            in.points.push_back(in.cacheWarm[nextRepeat()]);
        } else if (k == MemoHit) {
            // A batch size no earlier request used: a result-cache miss
            // whose layer shapes and SchedParams the memo already holds.
            const std::size_t s = nextScheme();
            int batch;
            do {
                batch = 65 + static_cast<int>(rng.below(4096));
            } while (!usedBatch[s].insert(batch).second);
            in.points.push_back(
                point(accel::makeScheme(allSchemes()[s]), memoModel, batch));
        } else {
            // A new SHIFT capacity, a few bytes off the Table 4 size:
            // new SchedParams for every layer, so every layer solves.
            accel::AcceleratorConfig cfg = accel::makeSmart();
            cfg.inputSpm.capacityBytes += nudges.back();
            nudges.pop_back();
            in.points.push_back(point(cfg, freshModel, 1));
        }
    }
    // Poisson arrivals conditioned on n in the window: sorted uniforms.
    for (std::size_t i = 0; i < n; ++i)
        in.sendMs.push_back(rng.unit() * o.seconds * 1000.0);
    std::sort(in.sendMs.begin(), in.sendMs.end());
    return in;
}

serve::EvalRequest
toRequest(const accel::BatchItem &p)
{
    serve::EvalRequest r;
    r.cfg = p.cfg;
    r.model = p.model;
    r.batch = p.batch;
    r.tag = "bench";
    return r;
}

/** Everything one open-loop window measured. */
struct WindowResult
{
    std::vector<double> latencyMs; //!< Intended send -> completion.
    std::vector<double> lagMs, submitMs, queueMs, serviceMs;
    double windowMs = 0.0;
    double okCorrect = 0.0;
    serve::MetricsSnapshot before, after;
    SchedDelta sched;
    TraceSummary summary;
    DemandPairs evaluated; //!< (layer, PE) pairs of evaluated requests.
};

/**
 * A fresh service with warm caches: the schedule memo for every known
 * shape, and the result cache for the repeat class. The warm submits are
 * sequential, so the queue high water stays at one.
 */
std::unique_ptr<serve::EvalService>
warmService(const ServeInputs &in, bool traced, Report &rep)
{
    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 4096; // below the knee nothing should wait long
    if (traced) {
        cfg.traceSampleEvery = 1;
        cfg.traceRingSlots = kServeRingSlots;
    }
    accel::clearIlpCache();
    auto svc = std::make_unique<serve::EvalService>(cfg);
    accel::runBatch(in.memoWarm);
    for (const auto &p : in.cacheWarm) {
        auto sub = svc->submit(toRequest(p));
        if (!sub.admitted() ||
            sub.response.get().status != serve::ResponseStatus::Ok)
            rep.invalid("cache warm-up request failed");
    }
    return svc;
}

WindowResult
runWindow(serve::EvalService &svc, const ServeInputs &in, bool traced,
          Report &rep)
{
    auto &rec = TraceRecorder::global();
    if (traced)
        rec.clear(); // drop the warm-up's spans
    const std::size_t n = in.points.size();
    std::vector<serve::EvalRequest> reqs;
    reqs.reserve(n);
    for (const auto &p : in.points)
        reqs.push_back(toRequest(p));

    WindowResult w;
    w.before = svc.metrics();
    const auto s0 = TaskScheduler::global().stats();
    std::vector<Clock::time_point> begin(n), end(n), due(n);
    std::vector<serve::Submission> subs(n);
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    // The generator: one thread, sending on schedule whatever the
    // service does. Latency counts from the intended send time.
    for (std::size_t i = 0; i < n; ++i) {
        due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              in.sendMs[i]));
        std::this_thread::sleep_until(due[i]);
        begin[i] = Clock::now();
        subs[i] = svc.submit(std::move(reqs[i]));
        end[i] = Clock::now();
    }
    std::vector<serve::EvalResponse> resp(n);
    std::vector<bool> ok(n, false);
    Clock::time_point last = t0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!subs[i].admitted())
            continue;
        try {
            resp[i] = subs[i].response.get();
        } catch (const std::exception &e) {
            std::cerr << "smartbench: request threw: " << e.what() << "\n";
            continue;
        }
        ok[i] = resp[i].status == serve::ResponseStatus::Ok;
        const auto done =
            begin[i] + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               resp[i].totalMs));
        last = std::max(last, done);
    }
    w.after = svc.metrics();
    w.sched = schedDelta(s0, TaskScheduler::global().stats());
    w.windowMs = std::max(msBetween(t0, last), msBetween(t0, due.back()));

    // Correctness, outside the timed window: each Ok response against a
    // direct runInference of the same point (the determinism contract).
    constexpr std::size_t kChunk = 64;
    std::uint64_t failed = 0;
    for (std::size_t lo = 0; lo < n; lo += kChunk) {
        const std::size_t hi = std::min(n, lo + kChunk);
        const std::vector<accel::BatchItem> chunk(in.points.begin() + lo,
                                                  in.points.begin() + hi);
        const auto direct = accel::runBatch(chunk);
        for (std::size_t i = lo; i < hi; ++i) {
            if (ok[i] && digestOf(resp[i].result) != digestOf(direct[i - lo])) {
                ok[i] = false;
                rep.invalid("served result for " + pointLabel(in.points[i]) +
                            " differs from a direct runInference");
            }
            if (!ok[i])
                ++failed;
        }
    }
    rep.attempted += n;
    rep.failed += failed;
    w.okCorrect = static_cast<double>(n - failed);

    for (std::size_t i = 0; i < n; ++i) {
        const double lag = msBetween(due[i], begin[i]);
        w.lagMs.push_back(lag);
        w.submitMs.push_back(msBetween(begin[i], end[i]));
        // A failed request misses every latency limit: rank it last.
        w.latencyMs.push_back(ok[i] ? lag + resp[i].totalMs : w.windowMs);
        if (!ok[i])
            continue;
        w.queueMs.push_back(resp[i].queueMs);
        w.serviceMs.push_back(resp[i].serviceMs);
        if (!resp[i].cacheHit && !resp[i].coalesced)
            for (const auto &layer : in.points[i].model.layers)
                w.evaluated.push_back({&layer, in.points[i].cfg.pe});
        if (traced) {
            rec.recordSpan(resp[i].traceId, "bench.submit", toNs(begin[i]),
                           toNs(end[i]));
            rec.recordSpan(resp[i].traceId, "bench.request", toNs(due[i]),
                           toNs(begin[i]) + static_cast<std::uint64_t>(
                                                resp[i].totalMs * 1e6));
        }
    }
    if (traced)
        w.summary = summarize(rec.events());
    return w;
}

void
runServe(const Options &o, Report &rep)
{
    const ServeInputs in = makeServeInputs(o);
    std::unique_ptr<serve::EvalService> svc;
    std::vector<double> setupS;
    for (int r = 0; r < kSetupReps; ++r) {
        const auto t0 = Clock::now();
        svc.reset();
        TaskScheduler::global();
        svc = warmService(in, /*traced=*/false, rep);
        setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }
    const WindowResult w = runWindow(*svc, in, /*traced=*/false, rep);
    // serve_open reports raw host time: its latencies held within a few
    // percent across seeds, and scaling them by a calibration on the
    // generator's thread, not the workers', spread them 3-5 times wider.
    HostSpeed host;
    host.measureMs();
    const double lagP99 = percentile(w.lagMs, 99);
    std::cerr << "smartbench: " << in.points.size() << " requests in "
              << w.windowMs << " ms, latency p50/p90/p99/max "
              << percentile(w.latencyMs, 50) << "/"
              << percentile(w.latencyMs, 90) << "/"
              << percentile(w.latencyMs, 99) << "/"
              << percentile(w.latencyMs, 100) << " ms, lag p99 " << lagP99
              << " ms, queue high water " << w.after.queueHighWater
              << ", calibration " << host.runMs() << " ms\n";
    if (lagP99 > kMaxLagP99Gaps * 1000.0 / o.serveRate)
        rep.invalid("generator fell behind (lag p99 " +
                    std::to_string(lagP99) + " ms): run invalid");

    if (!o.trace) {
        svc.reset();
        rep.add("setup_s", median(setupS), "s");
        rep.add("points_per_s", w.okCorrect / (w.windowMs / 1000.0), "1/s");
        rep.add("goodput_per_s", w.okCorrect / (w.windowMs / 1000.0), "1/s");
        rep.add("latency_p50_ms", percentile(w.latencyMs, 50), "ms");
        rep.add("latency_p99_ms", percentile(w.latencyMs, 99), "ms");
        rep.add("ok_share",
                1.0 - static_cast<double>(rep.failed) /
                          static_cast<double>(rep.attempted),
                "ratio");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // Traced window: same stream against a fresh, equally warm service.
    svc.reset();
    svc = warmService(in, /*traced=*/true, rep);
    const WindowResult t = runWindow(*svc, in, /*traced=*/true, rep);
    svc.reset();
    TraceRecorder::global().reset();
    const std::uint64_t evaluations =
        t.after.waveItems - t.before.waveItems;
    if (t.summary.span("execute").count != evaluations ||
        t.summary.span("submit").count != in.points.size())
        rep.invalid("traced window lost spans (ring wrapped?)");

    addLayerMetrics(rep, t.summary, demandProbeMs(t.evaluated),
                    t.evaluated.size(), t.sched, t.windowMs);
    ServeLayer s;
    s.submitP50 = percentile(t.submitMs, 50);
    s.submitP99 = percentile(t.submitMs, 99);
    s.queueP50 = percentile(t.queueMs, 50);
    s.queueP99 = percentile(t.queueMs, 99);
    s.serveP99 = percentile(t.serviceMs, 99);
    s.hits = static_cast<double>(t.after.cacheHits - t.before.cacheHits);
    s.misses =
        static_cast<double>(t.after.cacheMisses - t.before.cacheMisses);
    s.coalesced =
        static_cast<double>(t.after.coalesced - t.before.coalesced);
    s.waves = static_cast<double>(t.after.waves - t.before.waves);
    s.meanWave = s.waves > 0 ? static_cast<double>(evaluations) / s.waves
                             : 0.0;
    s.highWater = static_cast<double>(t.after.queueHighWater);
    s.lagP99 = percentile(t.lagMs, 99);
    addServeMetrics(rep, s);
    rep.add("trace.overhead_share",
            median(t.latencyMs) / median(w.latencyMs) - 1.0, "ratio");
    rep.add("host.calib_ms", host.runMs(), "ms");
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseOptions(argc, argv);
        setInformEnabled(false);
        if (!o.writeReference.empty())
            return writeReference(o.writeReference);
        Report rep;
        if (o.workload == "serve_open")
            runServe(o, rep);
        else
            runGrid(o, o.workload == "grid_warm", rep);
        std::cout << "{\"context\": {\"workload\": \"" << o.workload
                  << "\", \"seed\": " << o.seed
                  << ", \"threads\": " << TaskScheduler::global().size()
                  << ", \"seconds\": " << o.seconds
                  << ", \"trace\": " << (o.trace ? 1 : 0)
                  << ", \"serve_rate\": " << o.serveRate
                  << ", \"tiny\": " << (o.tiny ? "true" : "false") << "}}\n";
        std::cout << rep.json() << "\n" << std::flush;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "smartbench: " << e.what() << "\n";
        return 1;
    }
}
