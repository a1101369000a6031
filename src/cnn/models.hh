/**
 * @file
 * CNN model zoo: the six networks of the paper's evaluation (Sec. 5) as
 * layer-descriptor tables, plus the paper's batch-size settings.
 *
 * FasterRCNN follows SCALE-SIM's convention of a VGG16 backbone plus the
 * region-proposal-network convolutions and detection head at a 224x224
 * input. This approximates the real network, which runs at a larger
 * input and applies its head to every region proposal, not once.
 */

#ifndef SMART_CNN_MODELS_HH
#define SMART_CNN_MODELS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "systolic/layer.hh"

namespace smart::cnn
{

/** A CNN model: an ordered list of layers plus summary statistics. */
struct CnnModel
{
    std::string name;
    std::vector<systolic::ConvLayer> layers;

    /** Total multiply-accumulates of one inference. */
    std::uint64_t totalMacs() const;
    /** Total weight bytes (int8). */
    std::uint64_t totalWeightBytes() const;
    /** Largest single-layer ifmap footprint (bytes). */
    std::uint64_t maxIfmapBytes() const;
    /** Largest single-layer weight footprint (bytes). */
    std::uint64_t maxWeightBytes() const;
};

/** AlexNet (Krizhevsky et al.), 227x227 input, ungrouped. */
CnnModel makeAlexNet();
/** VGG16, 224x224 input. */
CnnModel makeVgg16();
/** GoogLeNet / Inception v1, 224x224 input, all inception branches. */
CnnModel makeGoogleNet();
/** MobileNet v1, 224x224 input, depthwise-separable blocks. */
CnnModel makeMobileNet();
/** ResNet50, 224x224 input, bottleneck blocks + projections. */
CnnModel makeResNet50();
/** FasterRCNN: VGG16 backbone + RPN + detection head (approximation). */
CnnModel makeFasterRcnn();

/** Names of the six evaluation models, in the paper's figure order. */
const std::vector<std::string> &modelNames();

/**
 * The convolution layers of a model (fully-connected layers dropped).
 * The paper's SCALE-SIM evaluation is convolution-dominated: FC weight
 * streaming at batch 1 would make every scheme DRAM-bound and erase the
 * SPM effects under study, so the figure benches evaluate the conv
 * trunk.
 */
CnnModel convLayersOnly(const CnnModel &model);

/** Construct a model by name; fatal on unknown names. */
CnnModel makeModel(const std::string &name);

/**
 * Paper batch sizes (Sec. 5): for TPU and SMART, AlexNet runs 22 images
 * and VGG16 runs 3; for SuperNPU (larger SPMs), VGG16 runs 7 and the
 * rest 30; all other models run 20.
 */
int paperBatchSize(const std::string &model, bool supernpu);

} // namespace smart::cnn

#endif // SMART_CNN_MODELS_HH
