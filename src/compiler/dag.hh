/**
 * @file
 * The per-layer instruction DAG of Fig. 15: Read_Weights and
 * Matrix_Multiply nodes alternate per fold iteration; edges carry the
 * memory objects whose loads/stores can be scheduled there. Fold
 * iterations are chunked to a bounded iteration count so the ILP stays
 * tractable (the paper lets Gurobi run for up to an hour per model; we
 * bound the DAG instead, see DagBuildParams::maxIterations).
 */

#ifndef SMART_COMPILER_DAG_HH
#define SMART_COMPILER_DAG_HH

#include <vector>

#include "compiler/memobj.hh"
#include "systolic/trace.hh"

namespace smart::compiler
{

/** Instruction kinds of the accelerator ISA (Sec. 4.3). */
enum class InstrKind
{
    ReadHostMemory,
    ReadWeights,
    MatrixMultiply,
    Activate,
    WriteHostMemory
};

/** Human-readable instruction name. */
const char *instrName(InstrKind k);

/** One DAG node. */
struct DagNode
{
    InstrKind kind;
    int iteration; //!< Fold-iteration chunk index (-1 for pre/post).
};

/** A layer's DAG plus its memory objects. */
struct LayerDag
{
    std::vector<DagNode> nodes;
    int iterations = 0;             //!< Fold-iteration chunks.
    std::uint64_t foldsPerIteration = 1;
    std::vector<MemoryObject> objects; //!< All objects, all classes.
    Cycles cyclesPerIteration = 0; //!< Ideal compute cycles.

    /** Objects consumed/produced by iteration @p n. */
    std::vector<const MemoryObject *> objectsOf(int n) const;

    /** Total bytes of a class across all iterations. */
    std::uint64_t classBytes(ObjClass c) const;
};

/** Parameters of DAG construction. */
struct DagBuildParams
{
    int maxIterations = 6;  //!< Fold chunking bound for ILP tractability.
};

/**
 * Build the DAG of one layer from its closed-form demand. Fold
 * iterations beyond maxIterations are merged into equal chunks whose
 * object sizes and access counts are the per-fold values scaled by the
 * chunk's fold count.
 */
LayerDag buildLayerDag(const systolic::ConvLayer &layer,
                       const systolic::LayerDemand &demand,
                       const DagBuildParams &params = {});

} // namespace smart::compiler

#endif // SMART_COMPILER_DAG_HH
