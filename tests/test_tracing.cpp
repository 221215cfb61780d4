/**
 * @file
 * Tests for the Chrome-trace logger and the RenderSystem trace export.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>

#include "core/render_system.h"
#include "obs/json_view.h"
#include "sim/tracing.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

TEST(TraceLog, StartsEmpty)
{
    TraceLog log;
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(log.size(), 0u);
    // Even an empty log serializes to a valid JSON array.
    EXPECT_EQ(log.to_json().substr(0, 1), "[");
}

TEST(TraceLog, DurationEventsSerialized)
{
    TraceLog log;
    log.duration("ui thread", "frame 0", 1_ms, 3_ms);
    const std::string json = log.to_json();
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"frame 0\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":2000.000"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("ui thread"), std::string::npos);
}

TEST(TraceLog, InstantAndCounterEvents)
{
    TraceLog log;
    log.instant("display", "FRAME DROP", 5_ms);
    log.counter("queued buffers", 5_ms, 3.0);
    const std::string json = log.to_json();
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("FRAME DROP"), std::string::npos);
    EXPECT_NE(json.find("\"value\":3"), std::string::npos);
}

TEST(TraceLog, EscapesSpecialCharacters)
{
    TraceLog log;
    log.instant("t", "a\"b\\c", 0);
    const std::string json = log.to_json();
    EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

TEST(TraceLog, EscapesControlCharacters)
{
    TraceLog log;
    log.instant("t", "tab\there", 0);
    log.instant("t", "cr\rlf\n", 1);
    log.instant("t", std::string("nul\x01" "bel\x07", 8), 2);
    const std::string json = log.to_json();
    EXPECT_NE(json.find("tab\\there"), std::string::npos);
    EXPECT_NE(json.find("cr\\rlf\\n"), std::string::npos);
    EXPECT_NE(json.find("nul\\u0001bel\\u0007"), std::string::npos);
    // No raw control byte may survive into the serialized text.
    for (char c : json)
        EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
            << "raw control byte " << int(c) << " in JSON output";
}

namespace {

/**
 * Minimal JSON validity checker (RFC 8259 subset, no unicode decoding):
 * enough to prove the exported trace parses, which raw control bytes or
 * bad escapes would break.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool valid()
    {
        skip_ws();
        if (!value())
            return false;
        skip_ws();
        return pos_ == s_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skip_ws();
        if (peek() == '}')
            return ++pos_, true;
        for (;;) {
            skip_ws();
            if (!string())
                return false;
            skip_ws();
            if (peek() != ':')
                return false;
            ++pos_;
            skip_ws();
            if (!value())
                return false;
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}')
                return ++pos_, true;
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skip_ws();
        if (peek() == ']')
            return ++pos_, true;
        for (;;) {
            skip_ws();
            if (!value())
                return false;
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']')
                return ++pos_, true;
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const unsigned char c = (unsigned char)s_[pos_];
            if (c == '"')
                return ++pos_, true;
            if (c < 0x20)
                return false; // raw control byte: invalid JSON
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() || !std::isxdigit(
                                (unsigned char)s_[pos_]))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit((unsigned char)s_[pos_]) ||
                std::strchr(".eE+-", s_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void skip_ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

TEST(TraceLog, ControlCharacterNamesRoundTripAsValidJson)
{
    TraceLog log;
    log.duration("ui\tthread", "frame\n0", 0, 1_ms);
    log.instant("t\r2", std::string("x\x02y", 3), 2_ms);
    log.counter("depth\b", 3_ms, 4.0);
    EXPECT_TRUE(JsonChecker(log.to_json()).valid());
}

TEST(TraceLog, ExportedRunTraceIsValidJson)
{
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    Scenario sc("json check");
    sc.animate(200_ms, std::make_shared<ConstantCostModel>(1_ms, 3_ms));
    RenderSystem sys(cfg, sc);
    sys.run();
    TraceLog log;
    sys.export_trace(log);
    ASSERT_FALSE(log.empty());
    EXPECT_TRUE(JsonChecker(log.to_json()).valid());
}

TEST(TraceLog, SaveWritesFile)
{
    TraceLog log;
    log.duration("t", "work", 0, 1_ms);
    const std::string path = ::testing::TempDir() + "/dvs_trace.json";
    ASSERT_TRUE(log.save(path));
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceLog, ClearResets)
{
    TraceLog log;
    log.instant("t", "e", 0);
    EXPECT_EQ(log.size(), 1u);
    log.clear();
    EXPECT_TRUE(log.empty());
}

TEST(TraceExport, RunExportsAllLanes)
{
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{1_ms, 5_ms}, FrameCost{2_ms, 40_ms}, 20, 10);
    Scenario sc("t");
    sc.animate(400_ms, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kVsync;
    RenderSystem sys(cfg, sc);
    sys.run();

    TraceLog log;
    sys.export_trace(log);
    EXPECT_GT(log.size(), 40u); // frames x lanes + refreshes

    const std::string json = log.to_json();
    EXPECT_NE(json.find("ui thread"), std::string::npos);
    EXPECT_NE(json.find("render thread"), std::string::npos);
    EXPECT_NE(json.find("buffer queue"), std::string::npos);
    EXPECT_NE(json.find("FRAME DROP"), std::string::npos);

    // The queue-depth counter follows the run (rebuilt from the frame
    // records), not the queue's state after it ended.
    std::string error;
    const JsonValue events = JsonValue::parse(json, &error);
    ASSERT_TRUE(events.is_array()) << error;
    std::set<double> depths;
    for (const JsonValue &ev : events.items()) {
        if (ev.string_at("ph") == "C" &&
            ev.string_at("name") == "queued buffers")
            depths.insert(ev.at("args").number_at("value"));
    }
    EXPECT_GT(depths.size(), 1u);
}

TEST(TraceExport, PreRenderedFramesLabelled)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    Scenario sc("t");
    sc.animate(300_ms, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, sc);
    sys.run();

    TraceLog log;
    sys.export_trace(log);
    EXPECT_NE(log.to_json().find("(pre)"), std::string::npos);
}

TEST(TraceLog, EventCapCountsDroppedEvents)
{
    TraceLog log;
    log.set_event_cap(3);
    for (int i = 0; i < 5; ++i)
        log.instant("t", "e", Time(i) * 1_ms);
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(log.dropped_events(), 2u);
    // The kept prefix still serializes; the overflow never made it in.
    EXPECT_NE(log.to_json().find("\"ph\":\"i\""), std::string::npos);
    log.clear();
    EXPECT_EQ(log.dropped_events(), 0u);
}

TEST(TraceLog, SaveReportsUnwritablePath)
{
    TraceLog log;
    log.instant("t", "e", 0);
    EXPECT_FALSE(log.save("/nonexistent-dir-dvs-xyz/trace.json"));
}

TEST(TraceLog, FlowEventsSerialized)
{
    TraceLog log;
    log.flow_begin("ui thread", "frame 0", 1_ms, 7);
    log.flow_step("render thread", "frame 0", 2_ms, 7);
    log.flow_end("display", "frame 0", 3_ms, 7);
    const std::string json = log.to_json();
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("\"id\":7"), std::string::npos);
    // Terminating flows bind to the enclosing slice.
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}
