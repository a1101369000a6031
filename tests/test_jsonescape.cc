/**
 * @file
 * Regression tests for metric-report JSON emission under hostile
 * tenant tags: common/jsonreport.hh's jsonEscape +
 * writeFlatMetricsJson must emit parseable JSON for any
 * client-controlled string, and serve::metricSafeTag must keep
 * distinct hostile tags from colliding onto one metric name.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "common/jsonreport.hh"
#include "serve/metrics.hh"
#include "serve/service.hh"

namespace
{

using namespace smart;

/** Minimal JSON validator (grammar only; see test_tracespan.cc). */
bool
jsonValid(const std::string &s)
{
    struct P
    {
        const std::string &s;
        std::size_t pos = 0;

        char peek() const { return pos < s.size() ? s[pos] : '\0'; }
        void ws()
        {
            while (pos < s.size() &&
                   (s[pos] == ' ' || s[pos] == '\t' ||
                    s[pos] == '\n' || s[pos] == '\r'))
                ++pos;
        }
        bool lit(const char *l)
        {
            for (; *l; ++l, ++pos)
                if (pos >= s.size() || s[pos] != *l)
                    return false;
            return true;
        }
        bool digits()
        {
            const std::size_t start = pos;
            while (pos < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[pos])))
                ++pos;
            return pos > start;
        }
        bool number()
        {
            if (peek() == '-')
                ++pos;
            if (!digits())
                return false;
            if (peek() == '.') {
                ++pos;
                if (!digits())
                    return false;
            }
            if (peek() == 'e' || peek() == 'E') {
                ++pos;
                if (peek() == '+' || peek() == '-')
                    ++pos;
                if (!digits())
                    return false;
            }
            return true;
        }
        bool str()
        {
            if (peek() != '"')
                return false;
            ++pos;
            while (pos < s.size()) {
                const char c = s[pos];
                if (c == '"') {
                    ++pos;
                    return true;
                }
                if (static_cast<unsigned char>(c) < 0x20)
                    return false;
                if (c == '\\') {
                    ++pos;
                    if (pos >= s.size())
                        return false;
                    const char e = s[pos];
                    if (e == 'u') {
                        for (int i = 1; i <= 4; ++i)
                            if (pos + i >= s.size() ||
                                !std::isxdigit(
                                    static_cast<unsigned char>(
                                        s[pos + i])))
                                return false;
                        pos += 4;
                    } else if (e != '"' && e != '\\' && e != '/' &&
                               e != 'b' && e != 'f' && e != 'n' &&
                               e != 'r' && e != 't') {
                        return false;
                    }
                }
                ++pos;
            }
            return false;
        }
        bool value()
        {
            switch (peek()) {
              case '{': {
                ++pos;
                ws();
                if (peek() == '}') {
                    ++pos;
                    return true;
                }
                while (true) {
                    ws();
                    if (!str())
                        return false;
                    ws();
                    if (peek() != ':')
                        return false;
                    ++pos;
                    ws();
                    if (!value())
                        return false;
                    ws();
                    if (peek() == ',') {
                        ++pos;
                        continue;
                    }
                    if (peek() == '}') {
                        ++pos;
                        return true;
                    }
                    return false;
                }
              }
              case '[': {
                ++pos;
                ws();
                if (peek() == ']') {
                    ++pos;
                    return true;
                }
                while (true) {
                    ws();
                    if (!value())
                        return false;
                    ws();
                    if (peek() == ',') {
                        ++pos;
                        continue;
                    }
                    if (peek() == ']') {
                        ++pos;
                        return true;
                    }
                    return false;
                }
              }
              case '"':
                return str();
              case 't':
                return lit("true");
              case 'f':
                return lit("false");
              case 'n':
                return lit("null");
              default:
                return number();
            }
        }
    } p{s};
    p.ws();
    if (!p.value())
        return false;
    p.ws();
    return p.pos == s.size();
}

// A tag exercising every escape class: quote, backslash, the named
// control escapes, a raw low control byte, and a key/value separator.
const std::string kHostileTag =
    "evil\"tag\\with\b\f\n\r\t\x01: inject\", \"x\": 1e99";

TEST(JsonEscape, EscapesEveryHostileByteClass)
{
    const std::string out = jsonEscape(kHostileTag);
    EXPECT_NE(out.find("\\\""), std::string::npos);
    EXPECT_NE(out.find("\\\\"), std::string::npos);
    EXPECT_NE(out.find("\\b"), std::string::npos);
    EXPECT_NE(out.find("\\f"), std::string::npos);
    EXPECT_NE(out.find("\\n"), std::string::npos);
    EXPECT_NE(out.find("\\r"), std::string::npos);
    EXPECT_NE(out.find("\\t"), std::string::npos);
    EXPECT_NE(out.find("\\u0001"), std::string::npos);
    // No raw control bytes or bare quotes survive.
    for (unsigned char c : out)
        EXPECT_GE(c, 0x20u);
    const std::string quoted = "\"" + out + "\"";
    EXPECT_TRUE(jsonValid(quoted)) << quoted;
}

TEST(JsonEscape, PassesCleanStringsThroughUnchanged)
{
    const std::string clean = "serve_replay_warm_ms";
    EXPECT_EQ(jsonEscape(clean), clean);
}

TEST(JsonEscape, FlatReportWithHostileKeysAndBenchNameParses)
{
    std::vector<std::pair<std::string, double>> metrics = {
        {"plain_metric", 1.0},
        {"tenant_" + kHostileTag + "_completed", 3.0},
        {std::string("nul\0byte", 8), 4.0},
    };
    std::ostringstream os;
    writeFlatMetricsJson(os, "bench\"name\n" + kHostileTag, metrics);
    const std::string json = os.str();
    EXPECT_TRUE(jsonValid(json)) << json;
    // The hostile tag could not smuggle a fake "x" metric in: the
    // injected quote is escaped, so the report has exactly the three
    // metric keys (count the key/value separators inside "metrics").
    EXPECT_NE(json.find("\\\", \\\"x\\\": 1e99"), std::string::npos);
}

TEST(MetricSafeTag, SanitizesAndDisambiguatesHostileTags)
{
    // Clean tags pass through untouched (stable metric names).
    EXPECT_EQ(serve::metricSafeTag("tenant-a_1"), "tenant-a_1");

    // Hostile bytes map to '_' and gain a digest suffix.
    const std::string a = serve::metricSafeTag("a.b");
    const std::string b = serve::metricSafeTag("a:b");
    EXPECT_NE(a, b) << "distinct hostile tags must not collide";
    for (const auto &safe : {a, b}) {
        for (char c : safe) {
            const bool ok = (c >= 'a' && c <= 'z') ||
                            (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '_' ||
                            c == '-';
            EXPECT_TRUE(ok) << safe;
        }
    }

    // Idempotent on its own output: a sanitized name is already safe.
    EXPECT_EQ(serve::metricSafeTag(a), a);
}

TEST(MetricSafeTag, SnapshotWithHostileTenantTagsEmitsValidJson)
{
    serve::MetricsSnapshot snap;
    snap.submitted = 2;
    snap.tenantSlo.push_back({kHostileTag, 1, 0.5, 0.9, 0, 10.0, 0});
    snap.tenantSlo.push_back({"normal", 2, 0.4, 0.8, 1, 10.0, 1});
    snap.stages.push_back({"queue_wait", 4, 0.5, 1.5});

    const std::string json = snap.toJson("hostile_tag_bench");
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("tenant_normal_slo_violated_windows"),
              std::string::npos);
    EXPECT_NE(json.find("stage_queue_wait_p95_ms"),
              std::string::npos);
}

} // namespace
