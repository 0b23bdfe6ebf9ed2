// Sampling profiler: SIGPROF-driven attribution of CPU time to
// {graft, stage}.
//
// Start() arms ITIMER_PROF at `hz` (97 by default — prime, so sampling
// cannot phase-lock with millisecond-periodic work). The kernel delivers
// SIGPROF to whichever thread is burning CPU when the interval expires;
// the handler reads that thread's own tracelab::ProfSlot (a plain POD
// thread_local the dispatcher stamps around each invocation stage) and
// increments one cell of a preallocated atomic count matrix. Everything
// the handler touches is async-signal-safe: a TLS read, an index clamp,
// and one relaxed fetch_add — no locks, no allocation, no clock reads.
//
// Results export as a flame-ready folded-stacks family: each populated
// {graft, stage} cell becomes one `graftlab;<graft>;<stage> <count>` line
// (FoldedStacks) and one `graftlab_profile_samples_total` sample with
// graft/stage labels (RegisterWith). Samples landing outside any graft
// attribute to graft "-" stage "idle" — the harness/epoll/park share.
//
// The profiler sees inside jitted Minnow code. Native entry names the
// running minnow::Jit in a thread-local (minnow::Jit::Current); when the
// sampled PC lies in that Jit's code arena, the handler resolves it to
// {function, bytecode pc} (Jit::Resolve: binary searches, no allocation)
// and counts it in a preallocated open-addressed table keyed by {cell,
// function name, pc}, copying the name in so the table outlives the VM.
// Such a sample adds one `;minnow:<fn>@<pc>` frame under its cell's line.
// A sample whose 16-slot probe window is full counts as an overflow and
// stays on the cell's own line (a slot mid-claim is probed past, so a key
// may rarely own two slots; folded-stack tools sum them).
//
// One profiler may be active per process (the signal handler needs a
// global); Start() fails if another is running. Stop() disarms the timer
// and restores the previous SIGPROF disposition.

#ifndef GRAFTLAB_SRC_OBSLAB_PROFILER_H_
#define GRAFTLAB_SRC_OBSLAB_PROFILER_H_

#include <signal.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obslab/registry.h"
#include "src/tracelab/trace.h"

namespace obslab {

class Profiler {
 public:
  struct Options {
    int hz = 97;
    // Count matrix rows: graft tags 0..max_grafts (0 = outside any graft).
    std::size_t max_grafts = 64;
  };

  Profiler() : Profiler(Options{}) {}
  explicit Profiler(Options options);
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Names graft tag `id + 1` for exposition (unnamed tags render as
  // "graft<n>"). Call before or during profiling; not on the sample path.
  void SetGraftName(std::uint32_t graft_id, std::string name);

  bool Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  std::uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }
  // Samples inside jitted code the resolved-PC table had no room for.
  std::uint64_t jit_overflow() const { return jit_overflow_.load(std::memory_order_relaxed); }

  // Folded-stacks text: one "graftlab;<graft>;<stage> <count>" line per
  // populated cell (its samples outside jitted code), plus one
  // "graftlab;<graft>;<stage>;minnow:<fn>@<pc> <count>" line per resolved
  // jitted location — pipe into flamegraph.pl as-is.
  std::string FoldedStacks() const;

  // Exports graftlab_profile_samples_total{graft=...,stage=...} through
  // the registry (as a collector; the registry must outlive the profiler's
  // samples being scraped).
  void RegisterWith(MetricsRegistry& registry);

 private:
  static void Handler(int signo, siginfo_t* info, void* context);
  std::size_t CellIndex(std::uint32_t graft_tag, std::uint32_t stage) const;
  std::string GraftLabel(std::size_t row) const;
  std::string CellPrefix(std::size_t cell) const;
  // Counts a sample at a resolved jitted location; false when the table
  // has no slot for it.
  bool CountJit(std::size_t cell, const char* fn, std::uint32_t pc);

  // One resolved jitted location. `state` 0 = empty, 1 = being claimed,
  // 2 = keyed (the key fields are then immutable).
  static constexpr std::size_t kJitSlots = 1024;
  static constexpr std::size_t kJitNameMax = 48;
  struct JitSlot {
    std::atomic<std::uint32_t> state{0};
    std::uint32_t cell = 0;
    std::uint32_t pc = 0;
    char fn[kJitNameMax] = {};
    std::atomic<std::uint64_t> count{0};
  };

  const Options options_;
  // (max_grafts + 1) x kProfStages relaxed-atomic cells.
  std::vector<std::atomic<std::uint64_t>> cells_;
  std::vector<JitSlot> jit_slots_;
  std::atomic<std::uint64_t> jit_overflow_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<bool> running_{false};
  std::vector<std::string> names_;  // by graft id; grown under names_mu_
  mutable std::mutex names_mu_;
  bool timer_armed_ = false;
  struct SigactionState;
  std::unique_ptr<SigactionState> saved_;
};

}  // namespace obslab

#endif  // GRAFTLAB_SRC_OBSLAB_PROFILER_H_
