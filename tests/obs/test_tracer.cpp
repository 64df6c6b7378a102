// Unit tests for obs::Tracer — spans, instants, clock domains, flush.
#include <gtest/gtest.h>

#include "obs/trace.h"

namespace swdual::obs {
namespace {

TEST(Tracer, SpanRecordsWallEventWithArgs) {
  Tracer tracer;
  {
    Span span = tracer.span("work", "test", 3);
    span.arg("answer", 42.0);
  }
  const std::vector<TraceEvent> events = tracer.flush();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& event = events[0];
  EXPECT_EQ(event.name, "work");
  EXPECT_EQ(event.category, "test");
  EXPECT_EQ(event.track, 3u);
  EXPECT_EQ(event.clock, Clock::kWall);
  EXPECT_EQ(event.phase, TraceEvent::Phase::kComplete);
  EXPECT_GE(event.end, event.start);
  EXPECT_DOUBLE_EQ(event.arg("answer"), 42.0);
  EXPECT_DOUBLE_EQ(event.arg("missing", -1.0), -1.0);
}

TEST(Tracer, VirtualIntervalEmitsSecondEvent) {
  Tracer tracer;
  {
    Span span = tracer.span("task", "test", 1);
    span.virtual_interval(2.5, 4.0);
  }
  const auto events = tracer.flush();
  ASSERT_EQ(events.size(), 2u);
  std::size_t virtual_count = 0;
  for (const TraceEvent& event : events) {
    EXPECT_EQ(event.name, "task");
    if (event.clock == Clock::kVirtual) {
      ++virtual_count;
      EXPECT_DOUBLE_EQ(event.start, 2.5);
      EXPECT_DOUBLE_EQ(event.end, 4.0);
    }
  }
  EXPECT_EQ(virtual_count, 1u);
}

TEST(Tracer, InstantEventHasZeroDuration) {
  Tracer tracer;
  tracer.instant("ping", "test", 7, {{"x", 1.0}});
  const auto events = tracer.flush();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kInstant);
  EXPECT_DOUBLE_EQ(events[0].duration(), 0.0);
  EXPECT_DOUBLE_EQ(events[0].arg("x"), 1.0);
}

TEST(Tracer, FlushDrainsExactlyOnceAndOrdersBySeq) {
  Tracer tracer;
  for (int i = 0; i < 10; ++i) {
    tracer.instant("e" + std::to_string(i), "test", 0);
  }
  const auto events = tracer.flush();
  ASSERT_EQ(events.size(), 10u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "e" + std::to_string(i));
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
    }
  }
  EXPECT_TRUE(tracer.flush().empty());  // second flush: nothing left
}

TEST(Tracer, InertSpanIsSafeEverywhere) {
  Span span;  // no tracer attached
  span.arg("ignored", 1.0);
  span.virtual_interval(0.0, 1.0);
  span.finish();
  span.finish();  // idempotent
}

TEST(Tracer, MovedFromSpanDoesNotDoubleRecord) {
  Tracer tracer;
  {
    Span outer;
    {
      Span inner = tracer.span("moved", "test", 0);
      outer = std::move(inner);
    }  // inner's destructor must be a no-op now
  }
  EXPECT_EQ(tracer.flush().size(), 1u);
}

TEST(Tracer, SpansFromTwoTracersStaySeparate) {
  Tracer a;
  Tracer b;
  a.instant("a", "test", 0);
  b.instant("b", "test", 0);
  a.instant("a2", "test", 0);
  const auto from_a = a.flush();
  const auto from_b = b.flush();
  ASSERT_EQ(from_a.size(), 2u);
  ASSERT_EQ(from_b.size(), 1u);
  EXPECT_EQ(from_b[0].name, "b");
}

TEST(Tracer, NowIsMonotone) {
  Tracer tracer;
  const double t0 = tracer.now();
  const double t1 = tracer.now();
  EXPECT_GE(t1, t0);
}

}  // namespace
}  // namespace swdual::obs
