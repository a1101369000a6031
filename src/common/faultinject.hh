/**
 * @file
 * Deterministic fault injection for robustness tests and benches. A
 * process-wide injector (configured from SMART_FAULT_* environment
 * variables on first use, or programmatically) can make the ILP
 * solver throw or stall past its budget. All draws come from one
 * seeded Rng behind a mutex, so a given (seed, call sequence)
 * reproduces the same fault pattern; production builds pay a single
 * relaxed-atomic check per hook when no faults are armed.
 *
 * Environment knobs (read once, at first global() use):
 *   SMART_FAULT_ILP_THROW       probability in [0,1] an ILP solve throws
 *   SMART_FAULT_ILP_STALL_MS    milliseconds every ILP solve sleeps
 *   SMART_FAULT_SEED            Rng seed (default 0x5eed)
 */

#ifndef SMART_COMMON_FAULTINJECT_HH
#define SMART_COMMON_FAULTINJECT_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "common/rng.hh"
#include "common/threadsafety.hh"

namespace smart
{

/** Exception thrown by armed ILP-solve faults. */
class FaultInjected : public std::runtime_error
{
  public:
    explicit FaultInjected(const char *what)
        : std::runtime_error(what)
    {}
};

class FaultInjector
{
  public:
    struct Config
    {
        double ilpThrowProb = 0.0; //!< P(onIlpSolve throws).
        double ilpStallMs = 0.0;   //!< Sleep per onIlpSolve.
        std::uint64_t seed = 0x5eed;

        bool any() const
        {
            return ilpThrowProb > 0.0 || ilpStallMs > 0.0;
        }
    };

    /**
     * The process-wide injector. First use reads the SMART_FAULT_*
     * environment (so bench/CI legs can arm faults without code
     * changes); configure()/reset() override it afterwards.
     */
    static FaultInjector &global();

    /** Replace the configuration and reseed the draw stream. */
    void configure(const Config &cfg);

    /** Disarm every fault (equivalent to configure({})). */
    void reset() { configure(Config{}); }

    /** Point-in-time copy of the active configuration. */
    Config config() const;

    /**
     * ILP-solve hook: sleeps ilpStallMs, then throws FaultInjected
     * with probability ilpThrowProb. No-op when disarmed.
     */
    void onIlpSolve();

  private:
    FaultInjector();

    bool draw(double prob) SMART_EXCLUDES(mu_);

    mutable Mutex mu_;
    Config cfg_ SMART_GUARDED_BY(mu_);
    Rng rng_ SMART_GUARDED_BY(mu_);
    std::atomic<bool> armed_{false}; //!< Fast path: no faults configured.
};

} // namespace smart

#endif // SMART_COMMON_FAULTINJECT_HH
