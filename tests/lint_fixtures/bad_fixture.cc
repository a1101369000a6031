// Lint self-test fixture: every project-lint rule must fire at least
// once on this file (scripts/lint_smart.py --self-test). Never built.

#include <atomic>
#include <iostream>
#include <mutex>

void
bad()
{
    int *p = new int(3);
    delete p;

    std::cout << "flushy" << std::endl;

    std::atomic<int> x{0};
    (void)x.load(std::memory_order_relaxed);

    std::mutex mu;
    (void)mu;

    double latencyPs = 7.0; // raw unit double: should be Picoseconds
    (void)latencyPs;
}

// The derivation is written up in NO_SUCH_DESIGN.md (a dangling doc).

void escape() SMART_NO_THREAD_SAFETY_ANALYSIS;
