// Lint self-test fixture (scripts/lint_smart.py --self-test): the
// knob-table rule must fire on it with knob_table_bad.md. Never built.

struct QueueConfig
{
    std::size_t maxDepth = 64;
};

struct ServiceConfig
{
    QueueConfig queue;
    std::size_t maxWave = 16;
    double undocumentedKnob = 0.0; // no README row
};
