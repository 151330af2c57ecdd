#include "obs/events.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/json.hpp"
#include "obs/session.hpp"

namespace rltherm::obs {
namespace {

Event decisionEvent() {
  return Event{.name = "manager.epoch.decide",
               .simTime = 330.0,
               .fields = {
                   field("state", std::int64_t{7}),
                   field("reward", 0.25),
                   field("mapping", "spread"),
                   field("frozen", false),
               }};
}

// The JSONL schema is public surface: "event" and "t" first, then the fields
// in emission order, one object per line. A byte-exact golden keeps the
// format honest for downstream jq/pandas consumers.
TEST(JsonlEventSinkTest, GoldenLine) {
  std::ostringstream out;
  JsonlEventSink sink(out);
  sink.record(decisionEvent());
  EXPECT_EQ(out.str(),
            "{\"event\":\"manager.epoch.decide\",\"t\":330,"
            "\"state\":7,\"reward\":0.25,\"mapping\":\"spread\",\"frozen\":false}\n");
  EXPECT_EQ(sink.eventCount(), 1u);
}

TEST(JsonlEventSinkTest, OneLinePerEvent) {
  std::ostringstream out;
  JsonlEventSink sink(out);
  sink.record(decisionEvent());
  sink.record(Event{.name = "runner.run.finish", .simTime = 12.5, .fields = {}});
  const std::string text = out.str();
  std::size_t newlines = 0;
  for (const char c : text) {
    if (c == '\n') ++newlines;
  }
  EXPECT_EQ(newlines, 2u);
  EXPECT_EQ(sink.eventCount(), 2u);
  EXPECT_NE(text.find("{\"event\":\"runner.run.finish\",\"t\":12.5}\n"),
            std::string::npos);
}

TEST(JsonlEventSinkTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream out;
  JsonlEventSink sink(out);
  sink.record(Event{.name = "a.b",
                    .simTime = 0.0,
                    .fields = {field("x", std::numeric_limits<double>::quiet_NaN()),
                               field("y", std::numeric_limits<double>::infinity())}});
  EXPECT_EQ(out.str(), "{\"event\":\"a.b\",\"t\":0,\"x\":null,\"y\":null}\n");
}

TEST(JsonlEventSinkTest, StringsAreEscaped) {
  std::ostringstream out;
  JsonlEventSink sink(out);
  sink.record(Event{.name = "a.b",
                    .simTime = 0.0,
                    .fields = {field("msg", "say \"hi\"\n")}});
  EXPECT_EQ(out.str(), "{\"event\":\"a.b\",\"t\":0,\"msg\":\"say \\\"hi\\\"\\n\"}\n");
}

TEST(EventTest, FindReturnsFirstMatchOrNull) {
  const Event event = decisionEvent();
  const EventField* f = event.find("reward");
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(std::get<double>(f->value), 0.25);
  EXPECT_EQ(event.find("missing"), nullptr);
}

TEST(CollectingEventSinkTest, CountsByName) {
  CollectingEventSink sink;
  sink.record(decisionEvent());
  sink.record(decisionEvent());
  sink.record(Event{.name = "workload.app.start", .simTime = 1.0, .fields = {}});
  EXPECT_EQ(sink.countOf("manager.epoch.decide"), 2u);
  EXPECT_EQ(sink.countOf("workload.app.start"), 1u);
  EXPECT_EQ(sink.countOf("nope"), 0u);
}

TEST(SessionTest, EmitIsDroppedWithoutASession) {
  ASSERT_EQ(events(), nullptr);
  emit(decisionEvent());  // must be a safe no-op
}

TEST(SessionTest, ScopedSessionInstallsAndRestores) {
  CollectingEventSink sink;
  Session session;
  session.events = &sink;
  {
    ScopedSession guard(session);
    ASSERT_EQ(events(), &sink);
    emit(decisionEvent());
    // Nested session shadows, then restores.
    CollectingEventSink inner;
    Session innerSession;
    innerSession.events = &inner;
    {
      ScopedSession innerGuard(innerSession);
      EXPECT_EQ(events(), &inner);
    }
    EXPECT_EQ(events(), &sink);
  }
  EXPECT_EQ(events(), nullptr);
  EXPECT_EQ(sink.countOf("manager.epoch.decide"), 1u);
}

}  // namespace
}  // namespace rltherm::obs
