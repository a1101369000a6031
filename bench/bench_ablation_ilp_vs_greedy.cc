/**
 * @file
 * Ablation of the paper's Sec. 4.3 compiler: the ILP scheduler vs the
 * greedy allocator on every layer of every model — objective values
 * and the prefetch coverage each achieves.
 */

#include <iostream>

#include "bench_util.hh"
#include "compiler/greedy.hh"
#include "compiler/ilpsched.hh"

int
main()
{
    using namespace smart;
    using namespace smart::compiler;

    setInformEnabled(false);

    SchedParams params;
    params.shiftCapacityBytes = ByteCount{32 * 1024};
    params.randomCapacityBytes = ByteCount{28ull * 1024 * 1024};
    params.prefetchIterations = 3;

    Table t({"model", "layers", "ILP wins", "ties", "greedy wins",
             "avg ILP/greedy obj", "avg ILP prefetch %",
             "avg B&B nodes"});
    for (const auto &name : cnn::modelNames()) {
        auto model = cnn::convLayersOnly(cnn::makeModel(name));
        int wins = 0, ties = 0, losses = 0;
        double ratio_sum = 0.0, pf_sum = 0.0, node_sum = 0.0;
        int counted = 0;
        for (const auto &layer : model.layers) {
            auto demand = systolic::analyzeDemand(layer, {64, 256});
            LayerDag dag = buildLayerDag(layer, demand);
            Schedule ilp = scheduleIlp(dag, params);
            Schedule greedy = scheduleGreedy(dag, params);
            if (greedy.objective > 0) {
                ratio_sum += ilp.objective / greedy.objective;
                ++counted;
            }
            pf_sum += ilp.prefetchedFraction(dag);
            node_sum += ilp.bnbNodes;
            if (ilp.objective > greedy.objective * 1.001)
                ++wins;
            else if (ilp.objective < greedy.objective * 0.999)
                ++losses;
            else
                ++ties;
        }
        const double n = static_cast<double>(model.layers.size());
        t.row()
            .cell(name)
            .integer(static_cast<long long>(model.layers.size()))
            .integer(wins)
            .integer(ties)
            .integer(losses)
            .num(counted ? ratio_sum / counted : 1.0, 3)
            .num(100.0 * pf_sum / n, 1)
            .num(node_sum / n, 1);
    }

    printBanner(std::cout, "Ablation: ILP scheduler vs greedy allocator");
    t.print(std::cout);
    std::cout << "the ILP should never lose on the shared cost model "
                 "(Sec. 4.3's near-optimal claim)\n";
    return 0;
}
