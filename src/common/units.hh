/**
 * @file
 * Typed physical quantities for the SMART model.
 *
 * smart::Quantity<Dim, Rep> is a zero-overhead strong type: a single
 * double (uint64_t for byte counts) member, every operation constexpr and
 * inline, trivially copyable, sizeof == sizeof(Rep). Dim is a
 * compile-time dimension vector over (time, energy, area, data) plus a
 * scale tag, so quantities carry their unit in the type system:
 *
 *  - Mixing dimensions is a compile error: `Picoseconds + Joules` does
 *    not build, and a `Gigahertz` cannot be passed where a cycle time
 *    (`Picoseconds`) is expected (see tests/test_units_compile.sh).
 *  - Cross-dimension algebra is enumerated, not generic:
 *    `Joules / Picoseconds -> Watts`, `Watts * Seconds -> Joules`,
 *    `Watts / Gigahertz -> Joules` (energy per op),
 *    `Gigahertz * Picoseconds -> double` (dimensionless cycles),
 *    `Cycles * Picoseconds -> Picoseconds` (scalar scaling).
 *  - Scales within a dimension are distinct types (Picoseconds vs
 *    Nanoseconds vs Seconds) converted only through the named helpers
 *    (units::psToNs and friends). This is deliberate: the cryomem layer
 *    accumulates latencies in ns-space and converts at the same points
 *    the pre-typed code did, and each helper/operator reproduces the
 *    exact double arithmetic of its raw predecessor, so figure outputs
 *    stay bit-identical.
 *
 * Boundary rule: serialization (accel/hash.cc), JSON emitters, and
 * bench/figure printers unwrap through the explicit .value() accessor
 * or the named conversion helpers only — no implicit conversion to
 * double exists. Everywhere else, struct fields, function signatures,
 * and constants use the typed aliases; the lint rule `raw-unit-double`
 * (scripts/lint_smart.py) rejects newly introduced raw `double`
 * fields/params with unit suffixes outside this header and the
 * request-key serializer.
 *
 * Literals live in smart::units::literals (inline): 1.2_ps, 7_ns,
 * 3_ghz, 0.1_fj, 2.5_pj, 1.1_w, 0.15_nw, 30.5_um2, 64_kib, 28_mib.
 *
 * The raw double<->double conversion helpers (nsToPs(double) etc.) are
 * retained for boundary code and untyped geometry; typed overloads of
 * the same names handle typed operands.
 */

#ifndef SMART_COMMON_UNITS_HH
#define SMART_COMMON_UNITS_HH

#include <cstdint>

namespace smart
{

/** Cycle count type used by all simulators. */
using Cycles = std::uint64_t;

/**
 * Compile-time dimension vector. TimeE/EnergyE/AreaE/DataE are the
 * exponents of the base dimensions (frequency is TimeE = -1, power is
 * EnergyE = 1, TimeE = -1). Scale discriminates units of the same
 * dimension at different scales (ps vs ns vs s) so that implicit
 * cross-scale arithmetic — the classic psToNs mix-up — cannot compile.
 */
template <int TimeE, int EnergyE, int AreaE, int DataE, int Scale>
struct Dim
{
    static constexpr int timeExp = TimeE;
    static constexpr int energyExp = EnergyE;
    static constexpr int areaExp = AreaE;
    static constexpr int dataExp = DataE;
    static constexpr int scaleTag = Scale;
};

// Scale discriminators for Dim. kScaleUnit marks SI-coherent units
// (seconds, joules, watts, bytes).
enum : int
{
    kScaleUnit = 0,
    kScalePico = 1,
    kScaleNano = 2,
    kScaleGiga = 3,
    kScaleMicro2 = 4,
};

/**
 * Zero-overhead strong quantity: one Rep member, all constexpr.
 * Same-type arithmetic, scalar scaling, and comparisons are generic;
 * every cross-dimension operation is an enumerated free function on the
 * concrete aliases below, implemented with the exact arithmetic of the
 * raw-double code it replaced.
 */
template <class D, class Rep = double>
class Quantity
{
  public:
    using dimension = D;
    using rep = Rep;

    constexpr Quantity() = default;
    explicit constexpr Quantity(Rep v) : v_{v} {}

    /** Escape hatch for serialization/printing boundaries only. */
    constexpr Rep value() const { return v_; }

    // Same-dimension arithmetic.
    friend constexpr Quantity operator+(Quantity a, Quantity b)
    {
        return Quantity{a.v_ + b.v_};
    }
    friend constexpr Quantity operator-(Quantity a, Quantity b)
    {
        return Quantity{a.v_ - b.v_};
    }
    friend constexpr Quantity operator-(Quantity a) { return Quantity{-a.v_}; }
    constexpr Quantity &
    operator+=(Quantity o)
    {
        v_ += o.v_;
        return *this;
    }
    constexpr Quantity &
    operator-=(Quantity o)
    {
        v_ -= o.v_;
        return *this;
    }

    // Scalar scaling. These are non-template hidden friends, so integer
    // counts (Cycles, std::size_t) convert implicitly to the double Rep:
    // `cycles * cyclePs` is Picoseconds, exactly as the raw code read.
    friend constexpr Quantity operator*(Quantity q, Rep s)
    {
        return Quantity{q.v_ * s};
    }
    friend constexpr Quantity operator*(Rep s, Quantity q)
    {
        return Quantity{s * q.v_};
    }
    friend constexpr Quantity operator/(Quantity q, Rep s)
    {
        return Quantity{q.v_ / s};
    }
    constexpr Quantity &
    operator*=(Rep s)
    {
        v_ *= s;
        return *this;
    }
    constexpr Quantity &
    operator/=(Rep s)
    {
        v_ /= s;
        return *this;
    }

    /** Ratio of like quantities is dimensionless. */
    friend constexpr Rep operator/(Quantity a, Quantity b)
    {
        return a.v_ / b.v_;
    }

    friend constexpr bool operator==(Quantity a, Quantity b)
    {
        return a.v_ == b.v_;
    }
    friend constexpr bool operator!=(Quantity a, Quantity b)
    {
        return a.v_ != b.v_;
    }
    friend constexpr bool operator<(Quantity a, Quantity b)
    {
        return a.v_ < b.v_;
    }
    friend constexpr bool operator<=(Quantity a, Quantity b)
    {
        return a.v_ <= b.v_;
    }
    friend constexpr bool operator>(Quantity a, Quantity b)
    {
        return a.v_ > b.v_;
    }
    friend constexpr bool operator>=(Quantity a, Quantity b)
    {
        return a.v_ >= b.v_;
    }

  private:
    Rep v_{};
};

// ------------------------------------------------------------------
// Concrete unit aliases. Field names in model structs keep their unit
// suffix (latencyPs, readEnergyJ) — the suffix now documents the alias
// rather than substituting for it.
// ------------------------------------------------------------------

/** Time in picoseconds — the SFQ-layer latency unit. */
using Picoseconds = Quantity<Dim<1, 0, 0, 0, kScalePico>>;
/** Time in nanoseconds — the cryomem-layer latency unit. */
using Nanoseconds = Quantity<Dim<1, 0, 0, 0, kScaleNano>>;
/** Time in seconds — wall-clock results. */
using Seconds = Quantity<Dim<1, 0, 0, 0, kScaleUnit>>;
/** Frequency in gigahertz. */
using Gigahertz = Quantity<Dim<-1, 0, 0, 0, kScaleGiga>>;
/** Energy in joules. */
using Joules = Quantity<Dim<0, 1, 0, 0, kScaleUnit>>;
/** Power in watts (energy / time at SI scale). */
using Watts = Quantity<Dim<-1, 1, 0, 0, kScaleUnit>>;
/** Area in square micrometers. */
using SquareMicrons = Quantity<Dim<0, 0, 1, 0, kScaleMicro2>>;
/** Capacity in bytes (integer rep). */
using ByteCount = Quantity<Dim<0, 0, 0, 1, kScaleUnit>, std::uint64_t>;

namespace units
{

// Time conversions to picoseconds.
constexpr double psPerNs = 1e3;
constexpr double psPerUs = 1e6;
constexpr double psPerMs = 1e9;
constexpr double psPerS = 1e12;

/** Nanoseconds to picoseconds. */
constexpr double nsToPs(double ns) { return ns * psPerNs; }
/** Picoseconds to nanoseconds. */
constexpr double psToNs(double ps) { return ps / psPerNs; }
/** Picoseconds to seconds. */
constexpr double psToS(double ps) { return ps / psPerS; }
/** Seconds to picoseconds. */
constexpr double sToPs(double s) { return s * psPerS; }

constexpr Picoseconds nsToPs(Nanoseconds ns)
{
    return Picoseconds{ns.value() * psPerNs};
}
constexpr Nanoseconds psToNs(Picoseconds ps)
{
    return Nanoseconds{ps.value() / psPerNs};
}
constexpr Seconds psToS(Picoseconds ps) { return Seconds{ps.value() / psPerS}; }
constexpr Picoseconds sToPs(Seconds s) { return Picoseconds{s.value() * psPerS}; }

// Energy conversions to joules.
constexpr double jPerFj = 1e-15;
constexpr double jPerPj = 1e-12;
constexpr double jPerNj = 1e-9;
constexpr double jPerAj = 1e-18;

/** Femtojoules to joules. */
constexpr Joules fjToJ(double fj) { return Joules{fj * jPerFj}; }
/** Picojoules to joules. */
constexpr Joules pjToJ(double pj) { return Joules{pj * jPerPj}; }
/** Joules to picojoules. */
constexpr double jToPj(double j) { return j / jPerPj; }
/** Joules to femtojoules. */
constexpr double jToFj(double j) { return j / jPerFj; }
constexpr double jToPj(Joules j) { return j.value() / jPerPj; }
constexpr double jToFj(Joules j) { return j.value() / jPerFj; }
constexpr double jToNj(Joules j) { return j.value() / jPerNj; }

// Power conversions to watts.
constexpr double wPerUw = 1e-6;
constexpr double wPerNw = 1e-9;
constexpr double wPerMw = 1e-3;

/** Microwatts to watts. */
constexpr Watts uwToW(double uw) { return Watts{uw * wPerUw}; }
/** Nanowatts to watts. */
constexpr Watts nwToW(double nw) { return Watts{nw * wPerNw}; }
/** Watts to milliwatts. */
constexpr double wToMw(double w) { return w / wPerMw; }
constexpr double wToMw(Watts w) { return w.value() / wPerMw; }

// Capacity.
constexpr std::uint64_t kib = 1024ull;
constexpr std::uint64_t mib = 1024ull * 1024ull;

/** Frequency (GHz) to cycle time (ps). */
constexpr double ghzToPs(double ghz) { return 1e3 / ghz; }
/** Cycle time (ps) to frequency (GHz). */
constexpr double psToGhz(double ps) { return 1e3 / ps; }

constexpr Picoseconds ghzToPs(Gigahertz f) { return Picoseconds{1e3 / f.value()}; }
constexpr Gigahertz psToGhz(Picoseconds t) { return Gigahertz{1e3 / t.value()}; }

// Area conversions.
constexpr double um2PerMm2 = 1e6;

/** Square millimeters to square micrometers. */
constexpr SquareMicrons mm2ToUm2(double mm2)
{
    return SquareMicrons{mm2 * um2PerMm2};
}
/** Square micrometers to square millimeters. */
constexpr double um2ToMm2(double um2) { return um2 / um2PerMm2; }
constexpr double um2ToMm2(SquareMicrons a) { return a.value() / um2PerMm2; }

/**
 * Feature-size-squared cell areas to um^2. The paper expresses cell sizes
 * in F^2 where F is the JJ diameter (or CMOS node). @param f2 cell size in
 * F^2, @param f_nm feature size in nanometers.
 */
constexpr SquareMicrons
f2ToUm2(double f2, double f_nm)
{
    return SquareMicrons{f2 * (f_nm * 1e-3) * (f_nm * 1e-3)};
}

/**
 * Unit-suffix literals. `inline` so `using namespace smart::units;`
 * (or ::literals) brings 1.2_ps, 3_ghz, 64_kib into scope. Each literal
 * folds the same conversion constant its raw helper used.
 */
inline namespace literals
{

constexpr Picoseconds operator""_ps(long double v)
{
    return Picoseconds{static_cast<double>(v)};
}
constexpr Picoseconds operator""_ps(unsigned long long v)
{
    return Picoseconds{static_cast<double>(v)};
}
constexpr Nanoseconds operator""_ns(long double v)
{
    return Nanoseconds{static_cast<double>(v)};
}
constexpr Nanoseconds operator""_ns(unsigned long long v)
{
    return Nanoseconds{static_cast<double>(v)};
}
constexpr Seconds operator""_s(long double v)
{
    return Seconds{static_cast<double>(v)};
}
constexpr Gigahertz operator""_ghz(long double v)
{
    return Gigahertz{static_cast<double>(v)};
}
constexpr Gigahertz operator""_ghz(unsigned long long v)
{
    return Gigahertz{static_cast<double>(v)};
}
constexpr Joules operator""_j(long double v)
{
    return Joules{static_cast<double>(v)};
}
constexpr Joules operator""_pj(long double v)
{
    return Joules{static_cast<double>(v) * jPerPj};
}
constexpr Joules operator""_fj(long double v)
{
    return Joules{static_cast<double>(v) * jPerFj};
}
constexpr Joules operator""_aj(long double v)
{
    return Joules{static_cast<double>(v) * jPerAj};
}
constexpr Watts operator""_w(long double v)
{
    return Watts{static_cast<double>(v)};
}
constexpr Watts operator""_w(unsigned long long v)
{
    return Watts{static_cast<double>(v)};
}
constexpr Watts operator""_uw(long double v)
{
    return Watts{static_cast<double>(v) * wPerUw};
}
constexpr Watts operator""_nw(long double v)
{
    return Watts{static_cast<double>(v) * wPerNw};
}
constexpr SquareMicrons operator""_um2(long double v)
{
    return SquareMicrons{static_cast<double>(v)};
}
constexpr SquareMicrons operator""_um2(unsigned long long v)
{
    return SquareMicrons{static_cast<double>(v)};
}
constexpr SquareMicrons operator""_mm2(long double v)
{
    return SquareMicrons{static_cast<double>(v) * um2PerMm2};
}
constexpr ByteCount operator""_kib(unsigned long long v)
{
    return ByteCount{v * kib};
}
constexpr ByteCount operator""_mib(unsigned long long v)
{
    return ByteCount{v * mib};
}

} // namespace literals

} // namespace units

// ------------------------------------------------------------------
// Enumerated cross-dimension algebra. Each overload states its raw-double
// predecessor and reproduces its arithmetic exactly (divide stays divide:
// x / 1e12 and x * 1e-12 differ in the last bit).
// ------------------------------------------------------------------

/** Energy over an interval is average power: j / psToS(ps). */
constexpr Watts
operator/(Joules j, Picoseconds ps)
{
    return Watts{j.value() / (ps.value() / units::psPerS)};
}

/** Power over an interval is energy: w * psToS(ps). */
constexpr Joules
operator*(Watts w, Picoseconds ps)
{
    return Joules{w.value() * (ps.value() / units::psPerS)};
}
constexpr Joules
operator*(Picoseconds ps, Watts w)
{
    return Joules{(ps.value() / units::psPerS) * w.value()};
}

/** Power times wall-clock seconds (SI-coherent, plain product). */
constexpr Joules
operator*(Watts w, Seconds s)
{
    return Joules{w.value() * s.value()};
}
constexpr Joules
operator*(Seconds s, Watts w)
{
    return Joules{s.value() * w.value()};
}

/** Power per clock is energy per operation: w / (ghz * 1e9). */
constexpr Joules
operator/(Watts w, Gigahertz f)
{
    return Joules{w.value() / (f.value() * 1e9)};
}

/** Energy over wall-clock seconds is average power. */
constexpr Watts
operator/(Joules j, Seconds s)
{
    return Watts{j.value() / s.value()};
}

/** Frequency times time is a dimensionless cycle count (GHz*ps*1e-3). */
constexpr double
operator*(Gigahertz f, Picoseconds t)
{
    return f.value() * t.value() * 1e-3;
}
constexpr double
operator*(Picoseconds t, Gigahertz f)
{
    return t.value() * f.value() * 1e-3;
}

namespace constants
{

/** Magnetic flux quantum (Wb). */
constexpr double fluxQuantum = 2.067833848e-15;
/** Vacuum permeability (H/m). */
constexpr double mu0 = 1.25663706212e-6;
/** Vacuum permittivity (F/m). */
constexpr double eps0 = 8.8541878128e-12;
/** Energy of a single JJ switching event, ~1e-19 J (paper Sec. 2.1). */
constexpr Joules jjSwitchEnergyJ{1e-19};
/** Speed of light (m/s). */
constexpr double c0 = 2.99792458e8;

} // namespace constants

} // namespace smart

#endif // SMART_COMMON_UNITS_HH
