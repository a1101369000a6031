#include "compiler/ilpsched.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <vector>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/tracespan.hh"
#include "compiler/greedy.hh"
#include "ilp/solver.hh"

namespace smart::compiler
{

namespace
{

/** Per-object variable handles. */
struct ObjVars
{
    ilp::Var h;  //!< Resides in SHIFT when consumed.
    ilp::Var r;  //!< Resides in RANDOM when consumed.
    ilp::Var p;  //!< Staged >= 1 iteration early (prefetched).
    ilp::Var hp; //!< AND(h, p): SHIFT-resident and prefetched.
};

/**
 * Upper bound on the relative optimality gap of @p objective against
 * the solver's reported best bound (maximize direction); -1 when the
 * solver produced no bound.
 */
double
gapAgainstBound(const ilp::Solution &sol, double objective)
{
    if (!sol.hasBestBound)
        return -1.0;
    return std::max(0.0, (sol.bestBound - objective) /
                             (std::fabs(sol.bestBound) + 1e-12));
}

/**
 * Greedy fallback for a failed/faulted ILP solve, carrying whatever
 * gap bound the partial solve produced (the satellite fix: an
 * internal fallback must never silently look optimal).
 */
Schedule
greedyFallback(const LayerDag &dag, const SchedParams &params,
               const ilp::Solution *sol)
{
    Schedule sched = scheduleGreedy(dag, params);
    sched.quality = Quality::Greedy;
    sched.gapBound =
        sol ? gapAgainstBound(*sol, sched.objective) : -1.0;
    if (sol) {
        sched.bnbNodes = sol->bnbNodes;
        sched.simplexIters = sol->simplexIters;
        sched.lpReplays = sol->lpReplays;
    }
    return sched;
}

} // namespace

LayerIlp
buildLayerIlp(const LayerDag &dag, const SchedParams &params)
{
    using ilp::LinExpr;
    using ilp::Sense;

    LayerIlp layer;
    ilp::Model &model = layer.model;
    std::vector<ObjVars> vars(dag.objects.size());

    const bool prefetch_on = params.prefetchIterations > 1;
    const double iter_cycles =
        static_cast<double>(dag.cyclesPerIteration);

    for (std::size_t i = 0; i < dag.objects.size(); ++i) {
        const auto &o = dag.objects[i];
        vars[i].h = model.addBinary("h_" + o.id());
        vars[i].r = model.addBinary("r_" + o.id());
        vars[i].p = model.addBinary("p_" + o.id());
        vars[i].hp = model.addBinary("hp_" + o.id());

        // Placement exclusivity (an object lives in one SPM).
        LinExpr excl;
        excl.add(vars[i].h, 1.0).add(vars[i].r, 1.0);
        if (o.cls == ObjClass::Psum) {
            // PSums must stay on chip (Eq. 6 family).
            model.addConstr(excl, Sense::Eq, 1.0, "onchip_" + o.id());
        } else {
            model.addConstr(excl, Sense::Le, 1.0, "excl_" + o.id());
        }

        if (!params.hasRandomArray)
            model.setBounds(vars[i].r.id, 0.0, 0.0);
        if (!prefetch_on || o.iteration == 0)
            model.setBounds(vars[i].p.id, 0.0, 0.0);

        // Prefetch requires residency somewhere on chip.
        LinExpr pre_res;
        pre_res.add(vars[i].p, 1.0).add(vars[i].h, -1.0)
            .add(vars[i].r, -1.0);
        model.addConstr(pre_res, Sense::Le, 0.0, "pres_" + o.id());

        // hp = AND(h, p).
        LinExpr and1;
        and1.add(vars[i].hp, 1.0).add(vars[i].h, -1.0);
        model.addConstr(and1, Sense::Le, 0.0);
        LinExpr and2;
        and2.add(vars[i].hp, 1.0).add(vars[i].p, -1.0);
        model.addConstr(and2, Sense::Le, 0.0);
        LinExpr and3;
        and3.add(vars[i].hp, 1.0).add(vars[i].h, -1.0)
            .add(vars[i].p, -1.0);
        model.addConstr(and3, Sense::Ge, -1.0);
    }

    // Capacity constraints per iteration (Eq. 6's consistency collapses
    // to window occupancy at the chunked granularity).
    for (int n = 0; n < dag.iterations; ++n) {
        // SHIFT: one private array per class.
        for (int c = 0; c < numObjClasses; ++c) {
            LinExpr occ;
            bool any = false;
            for (std::size_t i = 0; i < dag.objects.size(); ++i) {
                const auto &o = dag.objects[i];
                if (static_cast<int>(o.cls) != c)
                    continue;
                if (o.iteration == n) {
                    occ.add(vars[i].h, static_cast<double>(o.bytes));
                    any = true;
                } else if (o.iteration > n &&
                           o.iteration <=
                               n + params.prefetchIterations - 1) {
                    occ.add(vars[i].hp, static_cast<double>(o.bytes));
                    any = true;
                }
            }
            if (any) {
                model.addConstr(
                    occ, Sense::Le,
                    static_cast<double>(params.shiftCapacityBytes.value()),
                    "shiftcap");
            }
        }
        // RANDOM: shared across classes, live window [n, n + a).
        LinExpr rocc;
        bool rany = false;
        for (std::size_t i = 0; i < dag.objects.size(); ++i) {
            const auto &o = dag.objects[i];
            if (o.iteration >= n &&
                o.iteration < n + params.prefetchIterations) {
                rocc.add(vars[i].r, static_cast<double>(o.bytes));
                rany = true;
            }
        }
        if (rany) {
            model.addConstr(
                rocc, Sense::Le,
                static_cast<double>(params.randomCapacityBytes.value()),
                "randcap");
        }

        // Staging bandwidth: bytes entering SHIFT for iteration n must
        // fit the RANDOM->SHIFT link over the prefetch window.
        LinExpr stage;
        bool sany = false;
        for (std::size_t i = 0; i < dag.objects.size(); ++i) {
            const auto &o = dag.objects[i];
            if (o.iteration == n) {
                stage.add(vars[i].h, static_cast<double>(o.bytes));
                sany = true;
            }
        }
        if (sany) {
            const double window =
                std::max(1, params.prefetchIterations);
            model.addConstr(stage, Sense::Le,
                            params.hrBandwidthBytesPerCycle *
                                iter_cycles * window,
                            "stagebw");
        }
    }

    // Objective (Eq. 5): reduced latency of on-chip residency, plus the
    // exposure hidden by prefetching, minus transfer costs. A tiny
    // deterministic perturbation per iteration breaks the symmetry of
    // identical fold chunks, which otherwise explodes the search tree.
    LinExpr obj;
    for (std::size_t i = 0; i < dag.objects.size(); ++i) {
        const auto &o = dag.objects[i];
        const double acc = static_cast<double>(o.accesses);
        const double bytes = static_cast<double>(o.bytes);
        const double tilt = 1.0 + 1e-6 * (o.iteration + 1);

        const double save_h =
            acc * (params.dramCyclesPerAccess -
                   params.shiftCyclesPerAccess);
        const double save_r =
            acc * (params.dramCyclesPerAccess -
                   params.randomCyclesPerAccess);
        const double stage_cost =
            bytes / params.hrBandwidthBytesPerCycle;
        const double hide =
            std::min(stage_cost, iter_cycles);

        obj.add(vars[i].h, (save_h - stage_cost) * tilt);
        obj.add(vars[i].r, save_r * tilt);
        obj.add(vars[i].p, hide * tilt);
    }
    model.setObjective(obj, true);

    layer.opts.maxBnbNodes = 200;
    // A 0.5 % optimality gap is far below the model's fidelity and
    // keeps per-layer scheduling in the milliseconds.
    layer.opts.gapTol = 5e-3;
    return layer;
}

Schedule
scheduleIlp(const LayerDag &dag, const SchedParams &params)
{
    const LayerIlp layer = buildLayerIlp(dag, params);
    // The solve itself is the stage worth timing (the model build is
    // linear); the span lands on whichever request's evaluation
    // reached this layer (ambient trace id, 0 = untraced no-op).
    const std::uint64_t traceId = TraceRecorder::currentTrace();
    auto &trace = TraceRecorder::global();
    ilp::Solution sol;
    try {
        ScopedSpan solveSpan(traceId, "ilp_solve");
        FaultInjector::global().onIlpSolve();
        sol = ilp::solve(layer.model, layer.opts);
        solveSpan.setArg(static_cast<std::int64_t>(sol.bnbNodes),
                         "bnb_nodes");
    } catch (const std::exception &e) {
        smart_warn("layer ILP threw (", e.what(),
                   "); falling back to the greedy allocator");
        trace.instant(traceId, "ilp_fallback");
        return greedyFallback(dag, params, nullptr);
    }

    if (!sol.feasible()) {
        smart_warn("layer ILP ", statusName(sol.status),
                   "; falling back to the greedy allocator");
        trace.instant(traceId, "ilp_fallback");
        return greedyFallback(dag, params, &sol);
    }

    Schedule sched;
    sched.decisions.resize(dag.objects.size());
    for (std::size_t i = 0; i < dag.objects.size(); ++i) {
        const bool h = sol.values[4 * i] > 0.5;
        const bool r = sol.values[4 * i + 1] > 0.5;
        sched.decisions[i].placement =
            h ? Placement::Shift
              : (r ? Placement::Random : Placement::Dram);
        sched.decisions[i].prefetched = sol.values[4 * i + 2] > 0.5;
    }
    sched.objective = sol.objective;
    sched.quality = Quality::Optimal;
    // Conservative: measured against the root relaxation, so proven-
    // optimal incumbents may still report a small positive bound.
    sched.gapBound = std::max(0.0, gapAgainstBound(sol, sol.objective));
    sched.bnbNodes = sol.bnbNodes;
    sched.simplexIters = sol.simplexIters;
    sched.lpReplays = sol.lpReplays;

    if (!validateSchedule(dag, params, sched)) {
        smart_warn("ILP schedule failed validation; using greedy");
        trace.instant(traceId, "ilp_fallback");
        return greedyFallback(dag, params, &sol);
    }
    return sched;
}

} // namespace compiler
