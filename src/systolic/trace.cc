#include "systolic/trace.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace smart::systolic
{

namespace
{

/** Decompose an im2col window index into (channel, kr, ks). */
struct WindowElem
{
    int channel;
    int kr;
    int ks;
};

/**
 * Window order is channel-fastest (w = (kr*Sk + ks)*Cin + c), matching
 * the NHWC streaming layout below: for 1x1 convolutions the im2col
 * stream is then fully sequential, and for KxK kernels only the kernel-
 * offset steps jump.
 */
WindowElem
decomposeWindow(const ConvLayer &layer, std::uint64_t w)
{
    const std::uint64_t cin =
        layer.depthwise ? 1
                        : static_cast<std::uint64_t>(layer.inChannels);
    WindowElem e;
    e.channel = static_cast<int>(w % cin);
    const std::uint64_t rem = w / cin;
    e.kr = static_cast<int>(rem / layer.kernelW);
    e.ks = static_cast<int>(rem % layer.kernelW);
    return e;
}

/**
 * Flat NHWC (h, w, c) input address, or -1 when in the padding. NHWC is
 * the natural layout for weight-stationary streaming and is the
 * generous assumption for the SHIFT baseline (DESIGN.md Sec. 3).
 */
std::int64_t
inputAddr(const ConvLayer &layer, const WindowElem &e, int oh, int ow,
          int channel_base)
{
    const int ih = oh * layer.stride - layer.pad + e.kr;
    const int iw = ow * layer.stride - layer.pad + e.ks;
    if (ih < 0 || ih >= layer.ifmapH || iw < 0 || iw >= layer.ifmapW)
        return -1;
    const std::int64_t c = channel_base + e.channel;
    return (static_cast<std::int64_t>(ih) * layer.ifmapW + iw) *
               layer.inChannels + c;
}

/**
 * Valid (offset, output) pairs along one axis: the sum over kernel
 * offsets k of the output positions o in [0, out) whose input
 * coordinate o * stride - pad + k lies in [0, in), each in O(1).
 */
std::uint64_t
validAlongAxis(int out, int in, int kernel, int stride, int pad)
{
    std::uint64_t valid = 0;
    for (int k = 0; k < kernel; ++k) {
        const int off = pad - k;
        const int top = in - 1 + off; // o * stride <= top
        const int lo = off > 0 ? (off + stride - 1) / stride : 0;
        const int hi = top < 0 ? 0 : std::min(out, top / stride + 1);
        if (hi > lo)
            valid += static_cast<std::uint64_t>(hi - lo);
    }
    return valid;
}

} // namespace

LayerDemand
analyzeDemand(const ConvLayer &layer, const ArrayDims &pe)
{
    LayerDemand d;
    d.mapping = mapLayer(layer, pe);

    // Valid input element reads: padding positions deliver zeros without
    // touching the SPM. Each kernel offset (kr, ks) contributes its
    // in-bounds pixel count rows(kr) * cols(ks) once per channel per
    // column fold, so the sum over offsets separates into
    // (sum_kr rows(kr)) * (sum_ks cols(ks)): O(Kh + Kw).
    const std::uint64_t valid_per_channel =
        validAlongAxis(layer.ofmapH(), layer.ifmapH, layer.kernelH,
                       layer.stride, layer.pad) *
        validAlongAxis(layer.ofmapW(), layer.ifmapW, layer.kernelW,
                       layer.stride, layer.pad);

    // Depthwise folds walk one channel each (colFolds == channels), so
    // every channel streams exactly once; dense layers re-stream all
    // channels once per column fold.
    if (layer.depthwise) {
        d.inputPortReads = valid_per_channel * layer.inChannels;
    } else {
        d.inputPortReads = valid_per_channel * layer.inChannels *
                           d.mapping.colFolds;
    }

    d.inputUniqueBytes = layer.ifmapBytes();
    d.weightUniqueBytes = layer.weightBytes();
    d.weightPortReads = d.mapping.folds() *
                        d.mapping.activeRows * d.mapping.activeCols;
    d.outputUniqueBytes = layer.ofmapBytes();
    d.outputWrites = layer.ofmapBytes();

    // With more than one row fold, each pixel's partial sum spills and
    // returns once per extra fold (4-byte accumulators are charged in
    // the energy model, counts here are element-wise).
    const std::uint64_t psum_rounds = d.mapping.rowFolds - 1;
    d.psumWrites = d.outputUniqueBytes * psum_rounds;
    d.psumReads = d.psumWrites;
    return d;
}

ShiftReplayResult
replayInputShift(const ConvLayer &layer, const ArrayDims &pe,
                 const ShiftReplayParams &params)
{
    smart_assert(params.banks > 0 && params.laneBytes > 0,
                 "bad SHIFT replay parameters");
    smart_assert(params.imageInterleave >= 1, "bad image interleave");

    const LayerMapping m = mapLayer(layer, pe);
    ShiftReplayResult r;

    // The ring recirculates over the occupied region (tapped feedback
    // loop), not the full physical lane.
    const std::uint64_t data =
        params.dataBytes ? params.dataBytes : layer.ifmapBytes();
    std::uint64_t lane =
        (data + params.banks - 1) / params.banks;
    if (lane > params.laneBytes)
        lane = params.laneBytes;
    if (lane == 0)
        lane = 1;
    const int banks = params.banks;

    std::vector<std::uint64_t> head(banks, 0);
    std::vector<std::int64_t> last_addr(banks, -1);
    std::vector<std::uint64_t> bank_steps(banks, 0);

    const std::uint64_t window = m.windowSize;
    const int rows = pe.rows;

    for (std::uint64_t cf = 0; cf < m.colFolds; ++cf) {
        // Depthwise folds walk one channel each; dense layers re-stream
        // the same input window per column fold.
        const int channel_base =
            layer.depthwise ? static_cast<int>(cf) : 0;
        for (std::uint64_t fr = 0; fr < m.rowFolds; ++fr) {
            for (int oh = 0; oh < layer.ofmapH(); ++oh) {
                for (int ow = 0; ow < layer.ofmapW(); ++ow) {
                    for (int rrow = 0; rrow < rows; ++rrow) {
                        const std::uint64_t w =
                            fr * rows + static_cast<std::uint64_t>(rrow);
                        if (w >= window)
                            break;
                        const WindowElem e = decomposeWindow(layer, w);
                        const std::int64_t addr = inputAddr(
                            layer, e, oh, ow, channel_base);
                        if (addr < 0)
                            continue; // padding, no SPM access

                        ++r.portAccesses;
                        const int b =
                            static_cast<int>(addr % banks);
                        const std::uint64_t pos =
                            (static_cast<std::uint64_t>(addr) / banks) %
                            lane;

                        if (last_addr[b] >= 0) {
                            const std::int64_t delta =
                                addr - last_addr[b];
                            if (std::llabs(delta) <=
                                static_cast<std::int64_t>(
                                    params.dauWindowBytes)) {
                                // Within the DAU register window.
                                ++r.dauHits;
                                last_addr[b] = addr;
                                continue;
                            }
                        }

                        const std::uint64_t dist =
                            pos >= head[b] ? pos - head[b]
                                           : lane - head[b] + pos;
                        if (dist <= 1) {
                            ++r.seqSteps;
                            bank_steps[b] += dist;
                        } else {
                            ++r.jumpCount;
                            const std::uint64_t amortized =
                                (dist + params.imageInterleave - 1) /
                                params.imageInterleave;
                            r.jumpSteps += amortized;
                            bank_steps[b] += amortized;
                        }
                        head[b] = pos;
                        last_addr[b] = addr;
                    }
                }
            }
        }
    }

    // Jumps rotate across banks as pixels advance, so the lanes
    // load-balance: service is the mean per-bank step count.
    r.serviceCycles = (r.totalSteps() + banks - 1) / banks;
    r.maxBankSteps = *std::max_element(bank_steps.begin(),
                                       bank_steps.end());
    return r;
}

std::vector<TraceRow>
generateInputTrace(const ConvLayer &layer, const ArrayDims &pe,
                   std::uint64_t max_cycles)
{
    const LayerMapping m = mapLayer(layer, pe);
    std::vector<TraceRow> rows;

    std::uint64_t cycle = 0;
    for (int oh = 0; oh < layer.ofmapH() && cycle < max_cycles; ++oh) {
        for (int ow = 0; ow < layer.ofmapW() && cycle < max_cycles;
             ++ow) {
            TraceRow tr;
            tr.cycle = cycle;
            for (int r = 0; r < pe.rows; ++r) {
                const std::uint64_t w = static_cast<std::uint64_t>(r);
                if (w >= m.windowSize) {
                    tr.addrs.push_back(-1);
                    continue;
                }
                const WindowElem e = decomposeWindow(layer, w);
                tr.addrs.push_back(inputAddr(layer, e, oh, ow, 0));
            }
            rows.push_back(std::move(tr));
            ++cycle;
        }
    }
    return rows;
}

std::vector<TraceRow>
generateWeightTrace(const ConvLayer &layer, const ArrayDims &pe,
                    std::uint64_t max_cycles)
{
    const LayerMapping m = mapLayer(layer, pe);
    std::vector<TraceRow> rows;

    // Weight layout: filter-major (filter f's window contiguous).
    std::uint64_t cycle = 0;
    for (std::uint64_t fold = 0;
         fold < m.folds() && cycle < max_cycles; ++fold) {
        const std::uint64_t fr = fold % m.rowFolds;
        const std::uint64_t fc = fold / m.rowFolds;
        for (int r = 0; r < pe.rows && cycle < max_cycles; ++r) {
            TraceRow tr;
            tr.cycle = cycle;
            const std::uint64_t w = fr * pe.rows + r;
            for (int col = 0; col < pe.cols; ++col) {
                const std::uint64_t f = fc * pe.cols + col;
                if (w >= m.windowSize ||
                    f >= static_cast<std::uint64_t>(
                             layer.depthwise ? layer.inChannels
                                             : layer.filters)) {
                    tr.addrs.push_back(-1);
                    continue;
                }
                tr.addrs.push_back(static_cast<std::int64_t>(
                    f * m.windowSize + w));
            }
            rows.push_back(std::move(tr));
            ++cycle;
        }
    }
    return rows;
}

} // namespace smart::systolic
