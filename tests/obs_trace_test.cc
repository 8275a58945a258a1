// Trace-span correctness: the serialized output is valid Chrome
// trace-event JSON (parsed, not grepped), pool tasks show up on worker
// tracks, a disabled tracer records nothing, and ring wrap-around drops
// the oldest events while counting the drops. Tests in this file share
// the process-global trace registry; each one starts with StartTracing()
// (which clears all rings) so earlier tests cannot leak events in.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "json_test_util.h"
#include "util/thread_pool.h"

namespace spammass::obs {
namespace {

using testutil::JsonParser;
using testutil::JsonValue;

/// Parses the current trace and returns the root value.
JsonValue ParseTrace() {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(JsonParser::Parse(SerializeChromeTrace(), &root, &error))
      << error;
  return root;
}

/// Complete ("ph":"X") events with the given name.
std::vector<JsonValue> EventsNamed(const JsonValue& root,
                                   const std::string& name) {
  std::vector<JsonValue> matches;
  for (const JsonValue& event : root["traceEvents"].array) {
    if (event["ph"].string == "X" && event["name"].string == name) {
      matches.push_back(event);
    }
  }
  return matches;
}

TEST(ObsTraceTest, SerializesValidChromeTraceJson) {
  StartTracing();
  {
    SPAMMASS_TRACE_SPAN("test.outer", "answer", 42, "label",
                        "a \"quoted\" value");
    SPAMMASS_TRACE_SPAN("test.inner", "ratio", 0.5);
  }
  StopTracing();

  const JsonValue root = ParseTrace();
  EXPECT_EQ(root["displayTimeUnit"].string, "ms");
  ASSERT_TRUE(root["traceEvents"].is_array());

  const auto outer = EventsNamed(root, "test.outer");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0]["cat"].string, "spammass");
  EXPECT_EQ(outer[0]["pid"].number, 1);
  EXPECT_GT(outer[0]["tid"].number, 0);
  EXPECT_GE(outer[0]["ts"].number, 0);
  EXPECT_GE(outer[0]["dur"].number, 0);
  EXPECT_EQ(outer[0]["args"]["answer"].number, 42);
  EXPECT_EQ(outer[0]["args"]["label"].string, "a \"quoted\" value");

  const auto inner = EventsNamed(root, "test.inner");
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0]["args"]["ratio"].number, 0.5);
  // The inner span closed before the outer one and nests inside it.
  EXPECT_LE(outer[0]["ts"].number, inner[0]["ts"].number);

  // Every ring contributes a thread_name metadata event for its track.
  std::set<double> named_tids;
  for (const JsonValue& event : root["traceEvents"].array) {
    if (event["ph"].string == "M") {
      EXPECT_EQ(event["name"].string, "thread_name");
      EXPECT_FALSE(event["args"]["name"].string.empty());
      named_tids.insert(event["tid"].number);
    }
  }
  EXPECT_TRUE(named_tids.count(outer[0]["tid"].number));
}

TEST(ObsTraceTest, PoolTasksAppearOnNamedWorkerTracks) {
  StartTracing();
  {
    util::ThreadPool pool(2);
    pool.ParallelForChunked(64, 8,
                            [](uint64_t, uint64_t, uint64_t) {});
    pool.Wait();
  }
  StopTracing();

  const JsonValue root = ParseTrace();
  const auto tasks = EventsNamed(root, "pool_task");
  // ParallelForChunked bundles its chunks into one queue task per worker.
  ASSERT_EQ(tasks.size(), 2u);
  std::set<double> task_tids;
  for (const JsonValue& task : tasks) task_tids.insert(task["tid"].number);

  // Worker threads were named by the telemetry hooks.
  std::set<double> worker_tids;
  for (const JsonValue& event : root["traceEvents"].array) {
    if (event["ph"].string == "M" &&
        event["args"]["name"].string.rfind("pool-worker-", 0) == 0) {
      worker_tids.insert(event["tid"].number);
    }
  }
  for (double tid : task_tids) {
    EXPECT_TRUE(worker_tids.count(tid))
        << "pool_task on unnamed track " << tid;
  }
}

TEST(ObsTraceTest, DisabledTracingRecordsNothing) {
  StartTracing();  // clear rings
  StopTracing();
  {
    SPAMMASS_TRACE_SPAN("test.should_not_appear");
    util::ThreadPool pool(2);
    pool.ParallelForChunked(32, 8, [](uint64_t, uint64_t, uint64_t) {});
    pool.Wait();
  }
  const JsonValue root = ParseTrace();
  size_t complete_events = 0;
  for (const JsonValue& event : root["traceEvents"].array) {
    complete_events += event["ph"].string == "X";
  }
  EXPECT_EQ(complete_events, 0u);
  EXPECT_EQ(DroppedEventCount(), 0u);
}

TEST(ObsTraceTest, RingWrapDropsOldestAndCountsThem) {
  StartTracing();
  constexpr uint32_t kExtra = 100;
  for (uint32_t i = 0; i < kRingCapacity + kExtra; ++i) {
    SPAMMASS_TRACE_SPAN("test.wrap", "i", i);
  }
  StopTracing();

  EXPECT_EQ(DroppedEventCount(), kExtra);
  const JsonValue root = ParseTrace();
  const auto events = EventsNamed(root, "test.wrap");
  ASSERT_EQ(events.size(), kRingCapacity);
  // The oldest kExtra events were overwritten: the surviving window is
  // [kExtra, kRingCapacity + kExtra), serialized oldest-first.
  EXPECT_EQ(events.front()["args"]["i"].number, kExtra);
  EXPECT_EQ(events.back()["args"]["i"].number, kRingCapacity + kExtra - 1);
}

TEST(ObsTraceTest, WriteTraceFileCreatesParentDirectories) {
  StartTracing();
  { SPAMMASS_TRACE_SPAN("test.file"); }
  StopTracing();
  const std::string path =
      testing::TempDir() + "/obs_trace_test/nested/trace.json";
  ASSERT_TRUE(WriteTraceFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
}

}  // namespace
}  // namespace spammass::obs
