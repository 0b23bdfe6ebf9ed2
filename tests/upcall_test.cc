// Tests for the upcall machinery: the engine's handoff semantics, the
// synthetic upcall's calibration, and the Table 1 signal benchmark.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>

#include "src/stats/harness.h"
#include "src/upcall/process_upcall.h"
#include "src/upcall/signal_bench.h"
#include "src/upcall/upcall_engine.h"

namespace {

TEST(UpcallEngine, DeliversArgumentsAndReplies) {
  upcall::UpcallEngine engine([](std::uint64_t arg) { return arg * 2 + 1; });
  EXPECT_EQ(engine.Upcall(0), 1u);
  EXPECT_EQ(engine.Upcall(21), 43u);
  EXPECT_EQ(engine.upcalls(), 2u);
}

TEST(UpcallEngine, HandlerRunsOnServerThread) {
  const auto caller = std::this_thread::get_id();
  std::thread::id server;
  upcall::UpcallEngine engine([&](std::uint64_t arg) {
    server = std::this_thread::get_id();
    return arg;
  });
  engine.Upcall(1);
  EXPECT_NE(server, caller);
}

TEST(UpcallEngine, ManySequentialUpcallsAreStable) {
  std::uint64_t sum = 0;
  upcall::UpcallEngine engine([&](std::uint64_t arg) {
    sum += arg;
    return sum;
  });
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    expect += i;
    ASSERT_EQ(engine.Upcall(i), expect);
  }
}

TEST(UpcallEngine, MeasureRoundTripIsPositive) {
  upcall::UpcallEngine engine([](std::uint64_t arg) { return arg; });
  const auto rt = engine.MeasureRoundTrip(/*runs=*/3, /*iters_per_run=*/500);
  EXPECT_GT(rt.mean_us, 0.0);
  EXPECT_LT(rt.mean_us, 10000.0);  // sanity: not milliseconds
}

TEST(UpcallEngine, DestructorJoinsCleanly) {
  for (int i = 0; i < 20; ++i) {
    upcall::UpcallEngine engine([](std::uint64_t arg) { return arg; });
    engine.Upcall(i);
  }  // each destruction must not hang or crash
}

TEST(SyntheticUpcall, ScalesWithRequestedCost) {
  upcall::SyntheticUpcall synthetic;

  // Best of 50 single invocations per cost, the costs interleaved: a
  // preemption inflates one sample, not the figure, and a slow stretch of
  // the CPU hits every cost alike.
  const double costs_us[3] = {0.0, 10.0, 40.0};
  double best_us[3];
  std::fill(std::begin(best_us), std::end(best_us), std::numeric_limits<double>::infinity());
  for (int i = 0; i < 50; ++i) {
    for (int c = 0; c < 3; ++c) {
      stats::Timer timer;
      synthetic.Invoke(costs_us[c]);
      best_us[c] = std::min(best_us[c], timer.ElapsedUs());
    }
  }

  EXPECT_LT(best_us[0], 1.0);  // free upcall burns nothing
  const double t10 = best_us[1];
  const double t40 = best_us[2];
  // Calibration happens once at construction, so absolute values drift with
  // CPU frequency; the property that matters is monotonic, roughly linear
  // scaling.
  EXPECT_GT(t10, 1.0);
  EXPECT_GT(t40, t10 * 2.0);
}

TEST(ProcessUpcall, DeliversArgumentsAcrossProcesses) {
  upcall::ProcessUpcallEngine engine([](std::uint64_t arg) { return arg * 3 + 1; });
  EXPECT_EQ(engine.Upcall(0), 1u);
  EXPECT_EQ(engine.Upcall(10), 31u);
  EXPECT_EQ(engine.upcalls(), 2u);
}

TEST(ProcessUpcall, ServerStateIsIsolated) {
  // Handler state mutates in the *server process*; the client's copy of the
  // captured variable must not change — the isolation the paper's
  // user-level servers exist to provide.
  std::uint64_t client_copy = 0;
  upcall::ProcessUpcallEngine engine([&client_copy](std::uint64_t arg) {
    client_copy += arg;       // runs in the child: invisible here
    return client_copy;       // server-side accumulator
  });
  EXPECT_EQ(engine.Upcall(5), 5u);
  EXPECT_EQ(engine.Upcall(7), 12u);  // server remembers
  EXPECT_EQ(client_copy, 0u);        // client never sees it
}

TEST(ProcessUpcall, ManySequentialUpcalls) {
  upcall::ProcessUpcallEngine engine([](std::uint64_t arg) { return arg ^ 0xFF; });
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(engine.Upcall(i), i ^ 0xFF);
  }
}

TEST(ProcessUpcall, DestructorReapsServer) {
  for (int i = 0; i < 10; ++i) {
    upcall::ProcessUpcallEngine engine([](std::uint64_t arg) { return arg; });
    engine.Upcall(1);
  }  // no zombie pileup (the suite would hang or fork-fail if leaked)
}

TEST(ProcessUpcall, RoundTripCostsMoreThanThreadHandoff) {
  upcall::ProcessUpcallEngine process_engine([](std::uint64_t arg) { return arg; });
  const auto rt = process_engine.MeasureRoundTrip(3, 300);
  EXPECT_GT(rt.mean_us, 0.5);  // two kernel crossings cannot be free
  EXPECT_LT(rt.mean_us, 20000.0);
}

TEST(SignalBench, ProducesPlausibleFigure) {
  // Best of 15 short passes per mode, the modes interleaved within each
  // pass: a preemption inflates one pass, not the figure, and a slow
  // stretch of the CPU hits both modes alike.
  constexpr std::size_t kRounds = 20;
  constexpr int kSignals = 20;  // the group MeasureSignalHandling posts
  upcall::SignalBenchResult result;
  result.handled_us = std::numeric_limits<double>::infinity();
  result.ignored_us = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 15; ++pass) {
    const auto one = upcall::MeasureSignalHandling(/*runs=*/1, kRounds);
    if (!one.ok) {
      GTEST_SKIP() << "signal benchmark unavailable in this environment";
    }
    result.handled_us = std::min(result.handled_us, one.handled_us);
    result.ignored_us = std::min(result.ignored_us, one.ignored_us);
  }
  result.per_signal_us =
      (result.handled_us - result.ignored_us) / static_cast<double>(kRounds * kSignals);
  // Handling must cost more than ignoring, and land in a sane range.
  EXPECT_GT(result.handled_us, result.ignored_us);
  EXPECT_GT(result.per_signal_us, 0.0);
  EXPECT_LT(result.per_signal_us, 1000.0);
}

}  // namespace
