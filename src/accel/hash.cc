#include "accel/hash.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace smart::accel
{

namespace
{

// The builders append through small stack buffers with std::to_chars:
// the serve dispatch path builds one key per admitted request, a key
// is ~150 fields, and printf-style format parsing per field would cost
// most of the key. The only heap traffic is the destination string's
// growth — and callers reserve that up front.

/**
 * Serialize a double with full bit fidelity (hexfloat), byte-identical
 * to "%a". Hex to_chars normalizes subnormals ("1p-1074" where "%a"
 * keeps "0x0.…1p-1022"), so they and non-finite values keep snprintf.
 */
void
putD(std::string &out, double v)
{
    char buf[48] = "-0x";
    const int cls = std::fpclassify(v);
    if (cls != FP_NORMAL && cls != FP_ZERO) {
        out.append(buf, std::snprintf(buf, sizeof(buf), "%a,", v));
        return;
    }
    char *p = std::to_chars(buf + 3, buf + sizeof(buf) - 1, std::fabs(v),
                            std::chars_format::hex)
                  .ptr;
    *p++ = ',';
    out.append(buf + (std::signbit(v) ? 0 : 1), p);
}

void
putI(std::string &out, long long v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void
putU(std::string &out, unsigned long long v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void
putSpm(std::string &out, const SpmSpec &s)
{
    putU(out, s.capacityBytes);
    out += ',';
    putU(out, s.banks);
    out += ',';
}

/**
 * Serialize a string length-prefixed, so a name containing the key's
 * separator characters cannot make two distinct requests serialize to
 * the same bytes.
 */
void
putS(std::string &out, const std::string &s)
{
    putU(out, s.size());
    out += ':';
    out += s;
    out += ',';
}

} // namespace

void
appendRequestKey(std::string &out, const AcceleratorConfig &cfg,
                 const cnn::CnnModel &model, int batch)
{
    // One reserve covers the fixed config section plus a generous
    // per-layer estimate; a pathological layer name can still grow
    // the buffer, but the steady-state request never reallocates.
    out.reserve(out.size() + 320 + model.name.size() +
                model.layers.size() * 96);

    // Configuration. cfg.name is display-only (never read by the
    // model), so it is deliberately excluded: configs differing only
    // in label evaluate bit-identically and should share a cache line.
    out += "cfg{";
    putI(out, static_cast<int>(cfg.scheme));
    out += ',';
    putI(out, cfg.pe.rows);
    out += 'x';
    putI(out, cfg.pe.cols);
    out += ',';
    putD(out, cfg.clockGhz.value());
    putD(out, cfg.temperatureK);
    putD(out, cfg.coolingFactor);
    putSpm(out, cfg.inputSpm);
    putSpm(out, cfg.outputSpm);
    putSpm(out, cfg.weightSpm);
    putI(out, cfg.spmsAreShift);
    out += ',';
    putSpm(out, cfg.randomArray);
    putI(out, static_cast<int>(cfg.randomTech));
    out += ',';
    putD(out, cfg.randomWriteLatencyNsOverride.value());
    putI(out, cfg.prefetchIterations);
    out += ',';
    putI(out, cfg.useIlpCompiler);
    out += ',';
    putD(out, cfg.dramBandwidthGBs);
    putD(out, cfg.knobs.dauWindowBytes);
    putD(out, cfg.knobs.interLayerReorderFactor);
    putD(out, cfg.knobs.tpuEfficiency);
    putD(out, cfg.knobs.shiftSegmentBytes);
    putD(out, cfg.knobs.leakageActivityFactor);
    putD(out, cfg.knobs.randomOutstanding);

    // Model: the name and layer names flow into InferenceResult, so
    // they are result-relevant and part of the key.
    out += "}model{";
    putS(out, model.name);
    for (const auto &l : model.layers) {
        putS(out, l.name);
        putI(out, l.ifmapH);
        out += ',';
        putI(out, l.ifmapW);
        out += ',';
        putI(out, l.inChannels);
        out += ',';
        putI(out, l.filters);
        out += ',';
        putI(out, l.kernelH);
        out += ',';
        putI(out, l.kernelW);
        out += ',';
        putI(out, l.stride);
        out += ',';
        putI(out, l.pad);
        out += ',';
        putI(out, l.depthwise);
        out += ';';
    }
    out += "}batch{";
    putI(out, batch);
    out += '}';
}

std::string
requestKey(const AcceleratorConfig &cfg, const cnn::CnnModel &model,
           int batch)
{
    std::string out;
    appendRequestKey(out, cfg, model, batch);
    return out;
}

std::string
requestShapeKey(const cnn::CnnModel &model, int batch)
{
    // Cheap by design: submit() calls this on every request (including
    // ones about to be rejected), so unlike requestKey there is no
    // per-field hexfloat serialization — just the dimensions that
    // dominate evaluation cost. A folded per-layer dimension sum keeps
    // same-name models with different layer stacks from aliasing.
    std::uint64_t dims = 0;
    for (const auto &l : model.layers) {
        dims = dims * 1099511628211ull +
               static_cast<std::uint64_t>(l.ifmapH) * l.ifmapW +
               static_cast<std::uint64_t>(l.inChannels) * l.filters +
               static_cast<std::uint64_t>(l.kernelH) * l.kernelW;
    }
    std::string out;
    out.reserve(48 + model.name.size());
    out += "shape{";
    putS(out, model.name);
    putU(out, model.layers.size());
    out += ',';
    putU(out, dims);
    out += ",b";
    putI(out, batch);
    out += '}';
    return out;
}

std::uint64_t
requestDigest(std::string_view key)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a offset basis
    for (unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace smart::accel
