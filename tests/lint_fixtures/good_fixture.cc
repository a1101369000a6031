// Lint self-test fixture: exercises every compliant form — deleted
// functions, suppressions, rationale comments, tsa justifications,
// and rule-triggering tokens inside comments/strings (which the lint
// must ignore: new, delete, std::endl, std::mutex, memory_order_relaxed),
// and doc references that resolve.
// Must lint clean. Never built.

#include <atomic>

struct NoCopy
{
    NoCopy(const NoCopy &) = delete;
    NoCopy &operator=(const NoCopy &) = delete;
};

void
good()
{
    // lint-allow(naked-new): fixture for the suppression syntax — the
    // reason prose is mandatory.
    int *p = new int(3);
    // lint-allow(naked-delete): matching free for the fixture above.
    delete p;

    // See README.md and smartbench/README.md: documents that exist.
    const char *s = "std::endl and new and delete and std::mutex";
    const char *doc = "NO_SUCH_DESIGN.md"; // a string, not a comment
    (void)doc;
    (void)s;

    std::atomic<int> x{0};
    // memory_order: relaxed — fixture counter, no ordering required.
    (void)x.load(std::memory_order_relaxed);

    (void)x.load(); // seq_cst default needs no rationale

    double time_ps = 1.0;  // snake_case boundary locals stay raw
    double leakageMw = 0.0; // figure-scale (mW) suffixes are exempt
    // lint-allow(raw-unit-double): fixture for a density that has no
    // single-quantity type (per-mm energy).
    double energyPerBitMmJ = 1.8e-13;
    (void)time_ps;
    (void)leakageMw;
    (void)energyPerBitMmJ;
}

// tsa: fixture for the justified-escape form.
void justified() SMART_NO_THREAD_SAFETY_ANALYSIS;
