/**
 * @file
 * Shift-register (SHIFT) scratchpad mechanics (paper Sec. 2.2, Fig. 3a).
 *
 * A SHIFT bank is a circular, byte-wide lane of DFF stages with a
 * feedback loop. The lane has a single read/write port at its head;
 * serving position q when the head is at p costs (q - p) mod N shift
 * steps at one accelerator clock each. This is the mechanism behind both
 * SHIFT's ultra-cheap sequential streaming and its catastrophic random
 * access cost ("moving many unnecessary bits", Sec. 3).
 *
 * Two energy views exist: the per-access lane-step energy the paper plots in Fig. 16 (every DFF in the lane
 * transfers on a shift: laneBytes * 8 * 0.1 fJ) and the port-referenced
 * system energy used by the end-to-end model, calibrated against
 * SuperNPU's published 1.9 W average power.
 */

#ifndef SMART_CRYOMEM_SHIFT_ARRAY_HH
#define SMART_CRYOMEM_SHIFT_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace smart::cryo
{

/** A single circular SHIFT lane with head-position tracking. */
class ShiftLane
{
  public:
    /** Create a lane of @p stages byte-wide DFF stages. */
    explicit ShiftLane(std::uint64_t stages);

    /** Number of byte stages in the lane. */
    std::uint64_t stages() const { return stages_; }
    /** Current head (read port) position. */
    std::uint64_t head() const { return head_; }

    /**
     * Shift steps required to bring position @p pos to the port, then
     * move the head there. Sequential streams cost one step per access;
     * a wrap-around re-read costs up to stages() - 1.
     */
    std::uint64_t access(std::uint64_t pos);

    /** Cost of accessing @p pos without mutating the head. */
    std::uint64_t peekCost(std::uint64_t pos) const;

    /** Reset the head to position 0. */
    void reset() { head_ = 0; }

  private:
    std::uint64_t stages_;
    std::uint64_t head_ = 0;
};

/** Configuration of a banked SHIFT scratchpad array. */
struct ShiftArrayConfig
{
    std::uint64_t capacityBytes = 32 * units::kib;
    int banks = 256;
    double featureNm = 28.0;   //!< JJ diameter (scaling hypothesis).
    Gigahertz clockGhz{52.6};  //!< Shift clock = accelerator clock.
};

/** Banked SHIFT array: per-bank lanes plus area/energy accounting. */
class ShiftArray
{
  public:
    /** Build the array; capacity must divide evenly across banks. */
    explicit ShiftArray(const ShiftArrayConfig &cfg);

    /** Bytes per lane (capacity / banks). */
    std::uint64_t laneBytes() const { return lane_bytes_; }
    /** Number of banks. */
    int banks() const { return cfg_.banks; }
    /** One shift step duration. */
    Picoseconds stepPs() const { return units::ghzToPs(cfg_.clockGhz); }

    /**
     * Serve an access to flat byte address @p addr (byte-interleaved
     * across banks); returns the number of shift steps consumed in the
     * addressed bank.
     */
    std::uint64_t access(std::uint64_t addr);

    /** Bank index of a flat address under byte interleaving. */
    int bankOf(std::uint64_t addr) const;
    /** Lane position of a flat address under byte interleaving. */
    std::uint64_t lanePosOf(std::uint64_t addr) const;

    /** Reset all lane heads. */
    void reset();

    /**
     * Lane-step dynamic energy: every DFF in the lane transfers on a
     * shift, 0.1 fJ per bit cell (Table 1). This is what Fig. 16 plots.
     */
    Joules laneStepEnergyJ() const;

    /** Layout area: 39 F^2 per bit cell plus bank selects. */
    SquareMicrons areaUm2() const;

    /** Static power: ERSFQ SHIFT lanes have no leakage. */
    Watts leakageW() const { return Watts{}; }

    /** Configuration used to build the array. */
    const ShiftArrayConfig &config() const { return cfg_; }

  private:
    ShiftArrayConfig cfg_;
    std::uint64_t lane_bytes_;
    std::vector<ShiftLane> lanes_;
};

} // namespace smart::cryo

#endif // SMART_CRYOMEM_SHIFT_ARRAY_HH
