/**
 * @file
 * Task scheduler stress suite: nested pFor spawned from worker
 * threads, storms of tasks run off their spawner's thread under
 * FaultInjector ILP stalls, exception propagation out of tasks run
 * elsewhere, the helping join with every worker blocked, the
 * serial-mode contract, task-native trace context, and counters. The
 * bit-identical serial/parallel contract over the real evaluation
 * engine lives in tests/test_parallel_equivalence.cc; this file
 * hammers the substrate itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/faultinject.hh"
#include "common/taskgraph.hh"
#include "common/tracespan.hh"
#include "ilp/solver.hh"

namespace
{

using namespace smart;

/** Structurally distinct 0/1 knapsack (same family as the benches). */
ilp::Model
knapsack(int seed)
{
    ilp::Model m;
    ilp::LinExpr w1, w2, obj;
    for (int i = 0; i < 12; ++i) {
        ilp::Var v = m.addBinary();
        w1.add(v, 1.0 + ((i + seed) % 7));
        w2.add(v, 1.0 + ((i + 3 * seed) % 5));
        obj.add(v, 2.0 + ((i + 2 * seed) % 9));
    }
    m.addConstr(w1, ilp::Sense::Le, 16.0);
    m.addConstr(w2, ilp::Sense::Le, 12.0);
    m.setObjective(obj, true);
    return m;
}

TEST(TaskGraphStress, DeeplyNestedPForFromWorkersCoversEveryIndex)
{
    // Three levels of nesting: workers take the outer chunks, so the
    // inner levels are spawned from worker threads, and every joiner
    // helps with its own chunks first. Every (i, j, k) cell must be
    // hit exactly once no matter which thread ran which chunk.
    TaskScheduler sched(4);
    constexpr std::size_t N = 6;
    std::vector<int> hits(N * N * N, 0);
    sched.parallelFor(N, [&](std::size_t i) {
        sched.parallelFor(N, [&](std::size_t j) {
            sched.parallelFor(N, [&](std::size_t k) {
                hits[(i * N + j) * N + k]++;
            });
        });
    });
    for (std::size_t c = 0; c < hits.size(); ++c)
        EXPECT_EQ(hits[c], 1) << "cell " << c;
    // Width 4 cuts a 6-index range into one chunk per index, so the
    // graph is 6 + 36 + 216 tasks, each taken off the queue once.
    const auto s = sched.stats();
    EXPECT_EQ(s.tasksRun, N + N * N + N * N * N);
    EXPECT_GT(s.maxQueueDepth, 0u);
}

TEST(TaskGraphStress, StealStormUnderIlpStallsStaysDeterministic)
{
    // Serial reference objectives first (faults disarmed: values must
    // not depend on the injector).
    constexpr int kOuter = 8, kInner = 8;
    std::vector<double> serial(kOuter * kInner);
    for (int t = 0; t < kOuter * kInner; ++t)
        serial[t] = ilp::solve(knapsack(t)).objective;

    // Storm: every task runs the injector's ILP stall hook, so a
    // thread mid-"solve" sleeps with nested chunks queued behind it
    // and idle workers take them (the stall also yields the CPU, so
    // workers get scheduled even on a small host).
    FaultInjector::Config faults;
    faults.ilpStallMs = 0.5;
    FaultInjector::global().configure(faults);
    TaskScheduler sched(4);
    std::vector<double> stormy(kOuter * kInner);
    sched.parallelFor(kOuter, [&](std::size_t i) {
        sched.parallelFor(kInner, [&](std::size_t j) {
            const int t = static_cast<int>(i * kInner + j);
            FaultInjector::global().onIlpSolve(); // stall
            stormy[t] = ilp::solve(knapsack(t)).objective;
        });
    });
    FaultInjector::global().reset();

    EXPECT_EQ(serial, stormy); // bitwise: stalls must not leak in
    const auto s = sched.stats();
    EXPECT_GT(s.steals, 0u)
        << "a stall storm on 4 lanes must run tasks off their spawner";
    EXPECT_LE(s.steals, s.tasksRun);
    EXPECT_EQ(s.stealFailures, 0u);
}

TEST(TaskGraphStress, ExceptionFromStolenTaskPropagatesToJoiner)
{
    TaskScheduler sched(4);
    // The throwing chunk sits behind sleepy siblings in the queue, so
    // it is routinely run by a thread other than its spawner's;
    // wherever it ran, the joiner must observe the exception.
    for (int round = 0; round < 4; ++round) {
        std::atomic<int> ran{0};
        try {
            sched.parallelFor(64, [&](std::size_t i) {
                sched.parallelFor(4, [&](std::size_t j) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
                    ran.fetch_add(1, std::memory_order_relaxed);
                    if (i == 13 && j == 2)
                        throw std::runtime_error("stolen boom");
                });
            });
            FAIL() << "expected a throw (round " << round << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "stolen boom");
        }
        EXPECT_GT(ran.load(), 0);
    }
}

TEST(TaskGraphStress, FaultInjectedIlpThrowSurfacesThroughNestedPFor)
{
    // The injector's hook sits on the scheduling-compiler path (the
    // raw ilp::solve is below it), so the task body invokes the hook
    // the way scheduleIlp does; the FaultInjected it throws must
    // surface through the nested join untranslated.
    FaultInjector::Config faults;
    faults.ilpThrowProb = 1.0;
    FaultInjector::global().configure(faults);
    TaskScheduler sched(4);
    EXPECT_THROW(sched.parallelFor(16,
                                   [&](std::size_t t) {
                                       FaultInjector::global()
                                           .onIlpSolve();
                                       ilp::solve(knapsack(
                                           static_cast<int>(t)));
                                   }),
                 FaultInjected);
    FaultInjector::global().reset();
}

TEST(TaskGraphStress, TaskGroupIsReusableAfterFailureAndSuccess)
{
    TaskScheduler sched(4);
    TaskGroup group(sched);
    group.run([] { throw std::logic_error("first wave"); });
    EXPECT_THROW(group.wait(), std::logic_error);
    // The group must come back clean: a second wave of tasks joins
    // normally and wait() no longer throws.
    std::atomic<int> ok{0};
    for (int i = 0; i < 16; ++i)
        group.run([&] { ok.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
    EXPECT_EQ(ok.load(), 16);
}

TEST(TaskGraphStress, TraceContextFollowsTaskAcrossThreads)
{
    // Contract 3: the spawner's ambient trace id is captured at
    // spawn and re-established around execution on WHICHEVER thread
    // runs the task — workers and helping joiners included.
    TaskScheduler sched(4);
    constexpr std::uint64_t kTrace = 0x5eed5eedull;
    std::vector<std::uint64_t> seen(128, 0);
    {
        TraceRecorder::TraceScope scope(kTrace);
        sched.parallelFor(seen.size(), [&](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            seen[i] = TraceRecorder::currentTrace();
        });
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], kTrace) << "task " << i;
}

TEST(TaskGraphStress, JoinerRunsOwnTasksWhileEveryWorkerIsBlocked)
{
    // The helping join: with both workers of a width-2 scheduler held
    // inside tasks blocked on a latch, another thread's parallelFor
    // still completes, because its joiner runs its own group's queued
    // tasks instead of waiting for a worker.
    TaskScheduler sched(2);
    std::mutex mu;
    std::condition_variable cv;
    int blocked = 0;
    bool released = false;
    TaskGroup blockers(sched);
    for (int w = 0; w < 2; ++w)
        blockers.run([&] {
            std::unique_lock<std::mutex> lock(mu);
            ++blocked;
            cv.notify_all();
            cv.wait(lock, [&] { return released; });
        });
    {
        // Not helping yet, so only the two workers can take them.
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return blocked == 2; });
    }

    std::vector<std::thread::id> ranOn(16);
    std::thread::id joiner;
    bool done = false;
    std::thread other([&] {
        joiner = std::this_thread::get_id();
        sched.parallelFor(ranOn.size(), [&](std::size_t i) {
            ranOn[i] = std::this_thread::get_id();
        });
        std::lock_guard<std::mutex> lock(mu);
        done = true;
        cv.notify_all();
    });
    {
        // Bounded, so a broken join fails the test instead of hanging.
        std::unique_lock<std::mutex> lock(mu);
        EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return done; }))
            << "parallelFor stalled with every worker blocked";
        released = true;
        cv.notify_all();
    }
    other.join();
    blockers.wait();
    for (std::size_t i = 0; i < ranOn.size(); ++i)
        EXPECT_EQ(ranOn[i], joiner) << "index " << i;
}

TEST(TaskGraphStress, SerialSchedulerRunsInlineInSpawnOrder)
{
    // SMART_THREADS=1 contract: width 1 spawns no workers; run() and
    // parallelFor both execute inline on the calling thread, in spawn
    // order.
    TaskScheduler sched(1);
    EXPECT_EQ(sched.size(), 1);
    const auto self = std::this_thread::get_id();
    std::vector<std::size_t> order;
    sched.parallelFor(8, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    order.clear();
    TaskGroup group(sched);
    for (std::size_t i = 0; i < 4; ++i)
        group.run([&, i] {
            EXPECT_EQ(std::this_thread::get_id(), self);
            order.push_back(i);
        });
    EXPECT_EQ(order.size(), 4u); // already ran, before wait()
    group.wait();
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    const auto s = sched.stats();
    EXPECT_EQ(s.tasksRun, 0u); // nothing ever reached the queue
    EXPECT_EQ(s.steals, 0u);
}

} // namespace
