// Lint self-test fixture (scripts/lint_smart.py --self-test): its
// config structs match knob_table_good.md row for row. Never built.

struct QueueConfig
{
    std::size_t maxDepth = 64; // a comment; with } and { in it
    AdmissionPolicy policy = AdmissionPolicy::Reject;
};

struct ServiceConfig
{
    QueueConfig queue;
    /** Block comment; holding a fake member: int ghost; */
    std::chrono::milliseconds linger{0};
    std::map<std::string, TenantSlo> tenantSlo;
    static constexpr int kNotAKnob = 3;
    using Alias = int;
    bool enabled() const { return linger.count() > 0; }
    int twice(int x) const;
    double sloP95Ms =
        0.0;
};
