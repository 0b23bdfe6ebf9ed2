// obslab tests: registry escaping + scrape monotonicity, flight-recorder
// ring semantics and snapshot JSON validity (including mid-dispatch), the
// SLO watchdog's burn/alarm/re-arm state machine on a hand-driven clock,
// the sampling profiler, and the kAdminMetrics wire roundtrip against a
// live netfront server.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/technology.h"
#include "src/graftd/clock.h"
#include "src/graftd/dispatcher.h"
#include "src/grafts/factory.h"
#include "src/grafts/minnow_grafts.h"
#include "src/minnow/vm.h"
#include "src/netfront/client.h"
#include "src/netfront/server.h"
#include "src/netfront/wire.h"
#include "src/obslab/flight_recorder.h"
#include "src/obslab/plane.h"
#include "src/obslab/profiler.h"
#include "src/obslab/registry.h"
#include "src/obslab/slo.h"
#include "src/tracelab/trace.h"

namespace {

using obslab::FlightRecorder;
using obslab::MetricsRegistry;
using obslab::Plane;
using obslab::Profiler;
using obslab::SloWatchdog;

// Structural JSON validity: quote/escape-aware brace and bracket balance,
// and no raw control characters inside strings. The CI obs-smoke job runs
// the real `python3 -m json.tool` over snapshot files; this is the
// in-process equivalent for bodies built under concurrency.
bool JsonBalanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
        continue;
      }
      if (c == '\\') {
        escaped = true;
        continue;
      }
      if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character breaks every JSON parser
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') {
          return false;
        }
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') {
          return false;
        }
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

// First value of the named series in a Prometheus text exposition.
double MetricValue(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#' || line.compare(0, name.size(), name) != 0) {
      continue;
    }
    if (line.size() > name.size() && line[name.size()] != '{' && line[name.size()] != ' ') {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space != std::string::npos) {
      return std::strtod(line.c_str() + space + 1, nullptr);
    }
  }
  return -1.0;
}

// --- registry ---

TEST(Registry, SanitizesHostileMetricNames) {
  EXPECT_EQ(MetricsRegistry::SanitizeName("good_name:ok9"), "good_name:ok9");
  EXPECT_EQ(MetricsRegistry::SanitizeName("evil name\n{}"), "evil_name___");
  // A leading digit is not a legal name-start character.
  EXPECT_EQ(MetricsRegistry::SanitizeName("9lives"), "_lives");
  EXPECT_EQ(MetricsRegistry::SanitizeName(""), "_");
  // UTF-8 is sanitized byte-wise: two bytes of e-acute become two '_'.
  EXPECT_EQ(MetricsRegistry::SanitizeName("h\xC3\xA9llo"), "h__llo");
}

TEST(Registry, EscapesHostileLabelValues) {
  MetricsRegistry registry;
  obslab::Counter counter = registry.RegisterCounter(
      "bad name", obslab::Labels{{"tenant", "evil\"quote\\slash\nnewline"}});
  counter.Add(3);
  const std::string text = registry.PrometheusText();
  // Name sanitized, label value escaped per the Prometheus text format:
  // backslash, double-quote and newline become two-character escapes.
  EXPECT_NE(text.find("bad_name{tenant=\"evil\\\"quote\\\\slash\\nnewline\"} 3"),
            std::string::npos)
      << text;
  // The JSON exposition must survive the same bytes.
  EXPECT_TRUE(JsonBalanced(registry.Json()));
}

TEST(Registry, HistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  obslab::Histogram histogram = registry.RegisterHistogram("lat_ns", {}, "latency");
  histogram.Record(1);        // bit width 1 -> le="1"
  histogram.Record(1000);     // bit width 10 -> le="1023"
  histogram.Record(1000000);  // bit width 20 -> le="1048575"
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("lat_ns_bucket{le=\"1\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_ns_bucket{le=\"1023\"} 2"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_ns_bucket{le=\"1048575\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_ns_sum 1001001"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_ns_count 3"), std::string::npos) << text;
}

TEST(Registry, ReRegistrationSharesTheCell) {
  MetricsRegistry registry;
  obslab::Counter a = registry.RegisterCounter("shared_total");
  obslab::Counter b = registry.RegisterCounter("shared_total");
  a.Add(2);
  b.Add(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
}

TEST(Registry, CountersMonotonicUnderConcurrentScrape) {
  MetricsRegistry registry;
  obslab::Counter counter = registry.RegisterCounter("spin_total");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      counter.Add(1);
    }
  });
  double last = -1.0;
  for (int i = 0; i < 200; ++i) {
    const double v = MetricValue(registry.PrometheusText(), "spin_total");
    EXPECT_GE(v, last) << "counter went backwards across scrapes";
    last = v;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GE(MetricValue(registry.PrometheusText(), "spin_total"), last);
}

// --- flight recorder ---

TEST(FlightRecorder, RingOverwritesOldestAndSkipsNothingRecent) {
  FlightRecorder::Options options;
  options.ring_size = 8;
  FlightRecorder recorder(options);
  for (std::uint32_t i = 0; i < 20; ++i) {
    recorder.RecordOutcome(/*graft=*/i, /*status=*/0, /*elapsed_ns=*/i);
  }
  EXPECT_EQ(recorder.outcomes_recorded(), 20u);
  const std::vector<FlightRecorder::Outcome> recent = recorder.RecentOutcomes();
  ASSERT_EQ(recent.size(), 8u);
  // Oldest-first, and only the most recent ring_size outcomes survive.
  EXPECT_EQ(recent.front().elapsed_ns, 12u);
  EXPECT_EQ(recent.back().elapsed_ns, 19u);
}

TEST(FlightRecorder, SnapshotJsonIsValidAndNamesTheTrigger) {
  FlightRecorder::Options options;
  options.ring_size = 16;
  FlightRecorder recorder(options);
  for (std::uint32_t i = 0; i < 10; ++i) {
    recorder.RecordOutcome(0, /*status=*/i % 4, 1000 + i);
  }
  const std::string body = recorder.SnapshotJson("unit_test", 7);
  EXPECT_TRUE(JsonBalanced(body)) << body;
  EXPECT_NE(body.find("\"event\":\"unit_test\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"outcomes\""), std::string::npos);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
}

TEST(FlightRecorder, RateLimitsAndCapsSnapshots) {
  graftd::FakeClock clock;
  clock.Advance(std::chrono::seconds(10));  // away from the epoch
  FlightRecorder::Options options;
  options.dir = ::testing::TempDir();
  options.min_interval_ns = 1'000'000'000;
  options.max_snapshots = 2;
  options.clock = &clock;
  FlightRecorder recorder(options);
  recorder.RecordOutcome(0, 0, 1);

  EXPECT_FALSE(recorder.Trigger("first").empty());
  EXPECT_EQ(recorder.snapshots_written(), 1u);
  // Inside the interval: suppressed, not written.
  EXPECT_TRUE(recorder.Trigger("too_soon").empty());
  EXPECT_EQ(recorder.snapshots_written(), 1u);
  EXPECT_EQ(recorder.snapshots_suppressed(), 1u);

  clock.Advance(std::chrono::seconds(2));
  EXPECT_FALSE(recorder.Trigger("second").empty());
  EXPECT_EQ(recorder.snapshots_written(), 2u);

  // Past max_snapshots: capped regardless of spacing.
  clock.Advance(std::chrono::seconds(2));
  EXPECT_TRUE(recorder.Trigger("over_cap").empty());
  EXPECT_EQ(recorder.snapshots_written(), 2u);
  EXPECT_EQ(recorder.snapshots_suppressed(), 2u);
}

// --- SLO watchdog ---

TEST(SloWatchdog, BurnStreakAlarmsOnceAndReArmsAfterHealthyWindow) {
  SloWatchdog::Options options;
  options.window_ns = 1000;
  options.burn_windows = 2;
  options.min_samples = 4;
  SloWatchdog slo(options);
  slo.AddTenant(0, "t0", /*slo_p99_us=*/10.0);
  std::atomic<int> alarms{0};
  slo.set_alarm_hook([&](const std::string& tenant, double p99_us) {
    EXPECT_EQ(tenant, "t0");
    EXPECT_GT(p99_us, 10.0);
    alarms.fetch_add(1);
  });

  const auto feed = [&](std::uint64_t elapsed_ns, int n) {
    for (int i = 0; i < n; ++i) {
      slo.Record(0, elapsed_ns);
    }
  };

  slo.Evaluate(1000);  // first sight: opens the window, scores nothing
  feed(1'000'000, 10);  // 1ms service time against a 10us target: burning
  slo.Evaluate(2001);
  EXPECT_EQ(slo.burn(0), 1u);
  EXPECT_EQ(alarms.load(), 0);

  feed(1'000'000, 10);
  slo.Evaluate(3002);
  EXPECT_EQ(slo.burn(0), 2u);
  EXPECT_EQ(alarms.load(), 1);  // streak reached burn_windows

  feed(1'000'000, 10);
  slo.Evaluate(4003);
  EXPECT_EQ(slo.burn(0), 3u);
  EXPECT_EQ(alarms.load(), 1);  // latched: one alarm per episode

  // A window with too few samples neither burns nor heals.
  feed(1'000'000, 2);
  slo.Evaluate(5004);
  EXPECT_EQ(slo.burn(0), 3u);

  feed(100, 10);  // ~0.1us: healthy, resets the streak and re-arms
  slo.Evaluate(6005);
  EXPECT_EQ(slo.burn(0), 0u);

  feed(1'000'000, 10);
  slo.Evaluate(7006);
  feed(1'000'000, 10);
  slo.Evaluate(8007);
  EXPECT_EQ(alarms.load(), 2);  // a fresh sustained episode alarms again
  EXPECT_EQ(slo.alarms(), 2u);
}

TEST(SloWatchdog, ExportsBurnGaugeThroughRegistry) {
  MetricsRegistry registry;
  SloWatchdog::Options options;
  options.window_ns = 1000;
  options.min_samples = 1;
  SloWatchdog slo(options);
  slo.AddTenant(0, "alpha", 10.0);
  slo.RegisterWith(registry);
  slo.Evaluate(1000);
  for (int i = 0; i < 8; ++i) {
    slo.Record(0, 5'000'000);
  }
  slo.Evaluate(2001);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("graftlab_slo_burn{tenant=\"alpha\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("graftlab_slo_target_p99_us{tenant=\"alpha\"} 10"), std::string::npos);
  EXPECT_GT(MetricValue(text, "graftlab_slo_p99_us"), 10.0);
}

// --- profiler ---

TEST(Profiler, AttributesSamplesToTheStampedSlot) {
  Profiler profiler;
  profiler.SetGraftName(0, "md5");
  ASSERT_TRUE(profiler.Start());
  // One profiler per process: a second Start must refuse.
  Profiler second;
  EXPECT_FALSE(second.Start());

  // Burn CPU inside a {graft 1, body} slot until SIGPROF lands. 97Hz means
  // a sample every ~10ms of CPU; give it a generous bound for loaded CI.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  volatile std::uint64_t sink = 0;
  {
    const tracelab::ScopedProfSlot slot(1, tracelab::ProfStage::kBody);
    while (profiler.samples() == 0 && std::chrono::steady_clock::now() < deadline) {
      for (int i = 0; i < 100000; ++i) {
        sink = sink * 6364136223846793005ull + 1442695040888963407ull;
      }
    }
  }
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  ASSERT_GT(profiler.samples(), 0u);
  const std::string folded = profiler.FoldedStacks();
  EXPECT_NE(folded.find("graftlab;md5;body "), std::string::npos) << folded;

  // With the first profiler stopped, another may start.
  ASSERT_TRUE(second.Start());
  second.Stop();
}

// The profiler sees inside the JIT: samples that land in jitted md5 resolve
// to {function, bytecode pc}, and md5's hot loop is `rounds`.
TEST(Profiler, ResolvesSamplesInsideJittedCode) {
  grafts::MinnowConfig config;
  config.fuse = true;
  config.elide = true;
  config.jit = true;
  grafts::MinnowMd5Graft graft(config);
  if (graft.vm().dispatch() != minnow::DispatchMode::kJit) {
    GTEST_SKIP() << "no JIT in this build";
  }
  Profiler::Options options;
  options.hz = 1000;
  Profiler profiler(options);
  profiler.SetGraftName(0, "md5");
  ASSERT_TRUE(profiler.Start());
  std::vector<std::uint8_t> data(64 * 1024, 0x5A);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::string folded;
  {
    const tracelab::ScopedProfSlot slot(1, tracelab::ProfStage::kBody);
    while (std::chrono::steady_clock::now() < deadline) {
      graft.Consume(data.data(), data.size());
      folded = profiler.FoldedStacks();
      if (folded.find(";minnow:rounds@") != std::string::npos) {
        break;
      }
    }
  }
  profiler.Stop();
  EXPECT_NE(folded.find("graftlab;md5;body;minnow:rounds@"), std::string::npos) << folded;
  EXPECT_EQ(profiler.jit_overflow(), 0u);
}

// --- plane over a live dispatcher ---

graftd::StreamGraftFactory Md5Factory() {
  return [](envs::PreemptToken* preempt) {
    return grafts::CreateMd5Graft(core::Technology::kC, preempt);
  };
}

TEST(Plane, MidDispatchSnapshotsAndScrapesAreValid) {
  graftd::DispatcherOptions dopts;
  dopts.workers = 2;
  dopts.queue_capacity = 512;
  graftd::Dispatcher dispatcher(dopts);
  const graftd::GraftId id = dispatcher.RegisterStreamGraft("md5", Md5Factory());
  Plane plane;
  plane.Attach(dispatcher);

  std::vector<std::uint8_t> data(4096, 0x5A);
  std::thread producer([&] {
    for (int i = 0; i < 200; ++i) {
      graftd::Invocation invocation;
      invocation.graft = id;
      invocation.data = streamk::Bytes(data.data(), data.size());
      invocation.chunk = 1024;
      dispatcher.Submit(std::move(invocation));
    }
  });
  // Snapshots and scrapes taken while workers are mid-flight must be
  // structurally valid: the ring's seqlock skips torn slots, the registry
  // reads relaxed cells.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(JsonBalanced(plane.recorder().SnapshotJson("mid_dispatch", 0)));
    EXPECT_TRUE(JsonBalanced(plane.Exposition(obslab::kFormatJson)));
  }
  producer.join();
  dispatcher.Drain();

  EXPECT_EQ(plane.recorder().outcomes_recorded(), 200u);
  const std::string text = plane.Exposition(obslab::kFormatPrometheus);
  EXPECT_EQ(MetricValue(text, "graftlab_graft_invocations_total"), 200.0) << text;
  EXPECT_EQ(MetricValue(text, "graftlab_obs_enabled"), 1.0);
  // Disabled, the hooks go quiet but scraping still works.
  plane.SetEnabled(false);
  {
    graftd::Invocation invocation;
    invocation.graft = id;
    invocation.data = streamk::Bytes(data.data(), data.size());
    invocation.chunk = 1024;
    dispatcher.Submit(std::move(invocation));
  }
  dispatcher.Drain();
  EXPECT_EQ(plane.recorder().outcomes_recorded(), 200u);
  EXPECT_EQ(MetricValue(plane.Exposition(obslab::kFormatPrometheus), "graftlab_obs_enabled"),
            0.0);
}

// --- kAdminMetrics over the wire ---

TEST(AdminScrape, ServesAdminTenantAndDeniesOthers) {
  graftd::DispatcherOptions dopts;
  dopts.workers = 1;
  graftd::Dispatcher dispatcher(dopts);
  dispatcher.RegisterStreamGraft("md5", Md5Factory());
  Plane plane;
  plane.Attach(dispatcher);

  netfront::ServerOptions sopts;
  sopts.io_threads = 1;
  sopts.tenants.resize(2);
  sopts.tenants[1].name = "admin";
  sopts.tenants[1].admin = true;
  // Starve the admin tenant's token bucket (rate 0.001/s -> burst of one
  // millitoken): scrapes are answered before quota, so they must still
  // work precisely when the admission path would shed.
  sopts.tenants[1].rate_per_sec = 0.001;
  sopts.admin_metrics = [&plane](std::uint8_t format) { return plane.Exposition(format); };
  netfront::Server server(dispatcher, sopts);
  plane.AddNetfrontCollector(
      [&server](graftd::NetfrontSection& section) { server.FillTelemetry(section); });
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  netfront::ClientOptions admin_opts;
  admin_opts.port = server.port();
  admin_opts.tenant = 1;
  netfront::Client admin(admin_opts);
  std::string text;
  ASSERT_TRUE(admin.AdminScrape(obslab::kFormatPrometheus, text));
  EXPECT_NE(text.find("graftlab_graft_invocations_total"), std::string::npos) << text;
  EXPECT_NE(text.find("graftlab_tenant_accepted_total{tenant=\"admin\"}"), std::string::npos);
  EXPECT_EQ(MetricValue(text, "graftlab_net_connections_active"), 1.0);

  std::string json;
  ASSERT_TRUE(admin.AdminScrape(obslab::kFormatJson, json));
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);

  // Scrapes count scrapes: the second one sees the first.
  std::string again;
  ASSERT_TRUE(admin.AdminScrape(obslab::kFormatPrometheus, again));
  EXPECT_GT(MetricValue(again, "graftlab_scrapes_total"),
            MetricValue(text, "graftlab_scrapes_total") - 1.0);

  // A non-admin tenant gets kAdminDenied.
  netfront::ClientOptions plain_opts;
  plain_opts.port = server.port();
  plain_opts.tenant = 0;
  netfront::Client plain(plain_opts);
  std::string denied;
  EXPECT_FALSE(plain.AdminScrape(obslab::kFormatPrometheus, denied));

  server.Stop();
}

TEST(AdminScrape, DeniedWhenNoPlaneIsWired) {
  graftd::DispatcherOptions dopts;
  dopts.workers = 1;
  graftd::Dispatcher dispatcher(dopts);
  dispatcher.RegisterStreamGraft("md5", Md5Factory());
  netfront::ServerOptions sopts;
  sopts.io_threads = 1;
  sopts.tenants.resize(1);
  sopts.tenants[0].admin = true;  // admin tenant, but no admin_metrics seam
  netfront::Server server(dispatcher, sopts);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  netfront::ClientOptions copts;
  copts.port = server.port();
  copts.tenant = 0;
  netfront::Client client(copts);
  std::string out;
  EXPECT_FALSE(client.AdminScrape(obslab::kFormatPrometheus, out));
  server.Stop();
}

TEST(AdminWire, RequestAndReplyFramesRoundtrip) {
  std::vector<std::uint8_t> wire;
  netfront::AppendAdminRequest(wire, /*tenant=*/7, /*request_id=*/42, obslab::kFormatJson);
  const std::string body = "graftlab_scrapes_total 1\n";
  netfront::AppendAdminMetrics(wire, 7, 42,
                               reinterpret_cast<const std::uint8_t*>(body.data()),
                               body.size());
  netfront::FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  netfront::FrameDecoder::Frame frame;
  ASSERT_EQ(decoder.Next(frame), netfront::FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.header.type, netfront::FrameType::kAdminMetrics);
  EXPECT_EQ(frame.header.tenant, 7u);
  EXPECT_EQ(frame.header.request_id, 42u);
  ASSERT_EQ(frame.payload.size(), 1u);
  EXPECT_EQ(frame.payload[0], obslab::kFormatJson);
  ASSERT_EQ(decoder.Next(frame), netfront::FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.header.type, netfront::FrameType::kAdminMetrics);
  EXPECT_EQ(std::string(frame.payload.begin(), frame.payload.end()), body);
  EXPECT_EQ(decoder.Next(frame), netfront::FrameDecoder::Result::kNeedMore);
}

}  // namespace
