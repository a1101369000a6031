/**
 * @file
 * SPM access trace generation and mechanistic SHIFT replay.
 *
 * Three views of a layer's memory behaviour:
 *
 *  1. analyzeDemand(): closed-form access counts per data type (input,
 *     weight, output, PSum) plus unique footprints — inputs to every SPM
 *     service model.
 *  2. replayInputShift(): walks the exact weight-stationary im2col input
 *     address sequence against banked circular SHIFT lanes with a
 *     data-alignment-unit (DAU) window, measuring real shift-step costs.
 *     This is the mechanism behind the paper's Sec. 3 observation that
 *     SHIFT "moves many unnecessary bits" on random accesses.
 *  3. generateInputTrace()/generateWeightTrace(): per-cycle address rows
 *     for small layers (paper Fig. 6/8 illustrations and unit tests that
 *     cross-validate the closed forms against explicit replay).
 */

#ifndef SMART_SYSTOLIC_TRACE_HH
#define SMART_SYSTOLIC_TRACE_HH

#include <cstdint>
#include <vector>

#include "systolic/dataflow.hh"
#include "systolic/layer.hh"

namespace smart::systolic
{

/** Closed-form per-image access counts for one mapped layer. */
struct LayerDemand
{
    LayerMapping mapping;

    std::uint64_t inputPortReads = 0;   //!< Valid im2col element reads.
    std::uint64_t inputUniqueBytes = 0; //!< ifmap footprint.
    std::uint64_t weightPortReads = 0;  //!< Weight loads over all folds.
    std::uint64_t weightUniqueBytes = 0;
    std::uint64_t outputWrites = 0;     //!< Final ofmap writes.
    std::uint64_t outputUniqueBytes = 0;
    std::uint64_t psumWrites = 0;       //!< Partial-sum spills.
    std::uint64_t psumReads = 0;        //!< Partial-sum re-reads.
};

/**
 * Compute the closed-form demand of one layer on one PE array. The
 * valid (non-padding) input reads are separable: the in-bounds count of
 * kernel offset (kr, ks) is rows(kr) * cols(ks), so the sum over all
 * offsets is (sum_kr rows(kr)) * (sum_ks cols(ks)), with each span in
 * O(1). The whole call costs O(Kh + Kw).
 */
LayerDemand analyzeDemand(const ConvLayer &layer, const ArrayDims &pe);

/** Parameters of a mechanistic SHIFT replay. */
struct ShiftReplayParams
{
    int banks = 64;                  //!< SHIFT banks (lanes).
    std::uint64_t laneBytes = 384 * 1024; //!< Stages per lane.
    /**
     * Byte window the data-alignment unit holds in registers; address
     * jumps within the window cost no lane shifts.
     */
    std::uint64_t dauWindowBytes = 64;
    /**
     * Effective image interleave: in batch mode the stream interleaves B
     * images, so B accesses share one alignment jump and the per-access
     * jump cost divides by B (Sec. 6.2's batch advantage).
     */
    int imageInterleave = 1;
    /**
     * Bytes the layer actually occupies in the array. The compiler taps
     * the feedback loop at the occupied region, so the ring recirculates
     * over min(laneBytes, dataBytes / banks) stages rather than the full
     * physical lane (a generous assumption for the SHIFT baseline,
     * documented in DESIGN.md). 0 means the full lane.
     */
    std::uint64_t dataBytes = 0;
};

/** Result of replaying a layer's input stream against SHIFT lanes. */
struct ShiftReplayResult
{
    std::uint64_t portAccesses = 0; //!< Total element reads.
    std::uint64_t dauHits = 0;      //!< Served from the DAU window.
    std::uint64_t seqSteps = 0;     //!< Single-step lane advances.
    std::uint64_t jumpCount = 0;    //!< Multi-step lane jumps.
    std::uint64_t jumpSteps = 0;    //!< Total shift steps spent jumping.
    /**
     * Per-image service cycles: the mean per-bank shift-step total
     * (banks run in parallel and jumps rotate across banks from pixel
     * to pixel, so banks load-balance; one step = one accelerator
     * clock).
     */
    std::uint64_t serviceCycles = 0;
    /** Worst single-bank step total (skew diagnostic). */
    std::uint64_t maxBankSteps = 0;

    /** Total shift steps across all banks (for energy accounting). */
    std::uint64_t totalSteps() const { return seqSteps + jumpSteps; }
};

/**
 * Replay the exact input im2col address sequence of @p layer against
 * byte-interleaved circular SHIFT lanes; raster ifmap layout (c, h, w).
 */
ShiftReplayResult replayInputShift(const ConvLayer &layer,
                                   const ArrayDims &pe,
                                   const ShiftReplayParams &params);

/** One row of a per-cycle address trace. */
struct TraceRow
{
    std::uint64_t cycle = 0;
    std::vector<std::int64_t> addrs; //!< -1 marks a padding (no access).
};

/**
 * Per-cycle input addresses (one per PE row) for the first
 * @p max_cycles stream cycles of fold (0, 0). Used by tests and the
 * Fig. 6 bench.
 */
std::vector<TraceRow> generateInputTrace(const ConvLayer &layer,
                                         const ArrayDims &pe,
                                         std::uint64_t max_cycles);

/**
 * Per-cycle weight addresses (one per PE column) during the weight-load
 * phase, showing the Fig. 6 mix of sequential and strided reads.
 */
std::vector<TraceRow> generateWeightTrace(const ConvLayer &layer,
                                          const ArrayDims &pe,
                                          std::uint64_t max_cycles);

} // namespace smart::systolic

#endif // SMART_SYSTOLIC_TRACE_HH
