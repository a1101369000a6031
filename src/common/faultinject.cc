#include "common/faultinject.hh"

#include <chrono>
#include <cstdlib>
#include <thread>

namespace smart
{

namespace
{

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const double d = std::strtod(v, &end);
    return end && *end == '\0' ? d : fallback;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const unsigned long long u = std::strtoull(v, &end, 0);
    return end && *end == '\0' ? static_cast<std::uint64_t>(u)
                               : fallback;
}

FaultInjector::Config
envConfig()
{
    FaultInjector::Config cfg;
    cfg.ilpThrowProb = envDouble("SMART_FAULT_ILP_THROW", 0.0);
    cfg.ilpStallMs = envDouble("SMART_FAULT_ILP_STALL_MS", 0.0);
    cfg.seed = envU64("SMART_FAULT_SEED", 0x5eed);
    return cfg;
}

} // namespace

FaultInjector::FaultInjector()
    : cfg_(envConfig()), rng_(cfg_.seed)
{
    // memory_order: relaxed — armed_ is a monotonic hint; hooks that
    // read it stale merely take (or skip) the slow path one call late,
    // and the mutex orders every config read that actually matters.
    armed_.store(cfg_.any(), std::memory_order_relaxed);
}

FaultInjector &
FaultInjector::global()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::configure(const Config &cfg)
{
    LockGuard lock(mu_);
    cfg_ = cfg;
    rng_ = Rng(cfg.seed);
    // memory_order: relaxed — see the constructor; armed_ is advisory.
    armed_.store(cfg_.any(), std::memory_order_relaxed);
}

FaultInjector::Config
FaultInjector::config() const
{
    LockGuard lock(mu_);
    return cfg_;
}

bool
FaultInjector::draw(double prob)
{
    if (prob <= 0.0)
        return false;
    if (prob >= 1.0)
        return true;
    LockGuard lock(mu_);
    return rng_.uniform() < prob;
}

void
FaultInjector::onIlpSolve()
{
    // memory_order: relaxed — pure fast-path hint; a stale read only
    // defers the armed transition by one call (config reads lock mu_).
    if (!armed_.load(std::memory_order_relaxed))
        return;
    double stall_ms;
    double throw_prob;
    {
        LockGuard lock(mu_);
        stall_ms = cfg_.ilpStallMs;
        throw_prob = cfg_.ilpThrowProb;
    }
    if (stall_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(stall_ms));
    }
    if (draw(throw_prob))
        throw FaultInjected("injected ILP solver fault");
}

} // namespace smart
