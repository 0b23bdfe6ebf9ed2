#include "src/obslab/profiler.h"

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <cstring>

#include "src/minnow/jit.h"

namespace obslab {

namespace {

// The handler's route to the active profiler. Only one may run at a time.
std::atomic<Profiler*> g_active_profiler{nullptr};

}  // namespace

struct Profiler::SigactionState {
  struct sigaction previous;
  struct itimerval previous_timer;
};

Profiler::Profiler(Options options)
    : options_(options),
      cells_((options.max_grafts + 1) * tracelab::kProfStages),
      jit_slots_(kJitSlots),
      saved_(std::make_unique<SigactionState>()) {}

Profiler::~Profiler() { Stop(); }

void Profiler::SetGraftName(std::uint32_t graft_id, std::string name) {
  std::lock_guard<std::mutex> lock(names_mu_);
  if (names_.size() <= graft_id) {
    names_.resize(graft_id + 1);
  }
  names_[graft_id] = std::move(name);
}

std::size_t Profiler::CellIndex(std::uint32_t graft_tag, std::uint32_t stage) const {
  // Tags beyond the matrix clamp into the last row rather than sampling
  // out of bounds; stages likewise.
  if (graft_tag > options_.max_grafts) {
    graft_tag = static_cast<std::uint32_t>(options_.max_grafts);
  }
  if (stage >= tracelab::kProfStages) {
    stage = 0;
  }
  return graft_tag * tracelab::kProfStages + stage;
}

namespace {

// The interrupted PC, where this target exposes it.
const void* SampledPc(void* context) {
#if defined(__x86_64__) && defined(__linux__)
  const auto* uc = static_cast<const ucontext_t*>(context);
  return reinterpret_cast<const void*>(uc->uc_mcontext.gregs[REG_RIP]);
#else
  (void)context;
  return nullptr;
#endif
}

bool SameName(const char* slot, const char* fn, std::size_t max) {
  for (std::size_t i = 0; i + 1 < max; ++i) {
    if (slot[i] != fn[i]) return false;
    if (fn[i] == '\0') return true;
  }
  return true;  // both truncated at max - 1
}

}  // namespace

bool Profiler::CountJit(std::size_t cell, const char* fn, std::uint32_t pc) {
  std::uint64_t h = cell * 0x9E3779B97F4A7C15ull ^ pc;
  for (const char* c = fn; *c != '\0'; ++c) {
    h = (h ^ static_cast<unsigned char>(*c)) * 0x100000001B3ull;
  }
  constexpr std::size_t kProbes = 16;
  for (std::size_t i = 0; i < kProbes; ++i) {
    JitSlot& slot = jit_slots_[(h + i) % kJitSlots];
    std::uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == 0 && slot.state.compare_exchange_strong(state, 1, std::memory_order_acquire)) {
      slot.cell = static_cast<std::uint32_t>(cell);
      slot.pc = pc;
      std::size_t n = 0;
      for (; n + 1 < kJitNameMax && fn[n] != '\0'; ++n) slot.fn[n] = fn[n];
      slot.fn[n] = '\0';
      slot.count.store(1, std::memory_order_relaxed);
      slot.state.store(2, std::memory_order_release);
      return true;
    }
    if (state == 2 && slot.cell == cell && slot.pc == pc && SameName(slot.fn, fn, kJitNameMax)) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void Profiler::Handler(int /*signo*/, siginfo_t* /*info*/, void* context) {
  Profiler* profiler = g_active_profiler.load(std::memory_order_acquire);
  if (profiler == nullptr) {
    return;
  }
  const tracelab::ProfSlot slot = tracelab::CurrentProfSlot();
  const std::size_t cell = profiler->CellIndex(slot.graft, slot.stage);
  profiler->cells_[cell].fetch_add(1, std::memory_order_relaxed);
  profiler->samples_.fetch_add(1, std::memory_order_relaxed);
  if (const minnow::Jit* jit = minnow::Jit::Current()) {
    const minnow::JitLocation where = jit->Resolve(SampledPc(context));
    const char* fn = where.fn >= 0 ? jit->FunctionName(where.fn) : nullptr;
    if (fn != nullptr &&
        !profiler->CountJit(cell, fn, static_cast<std::uint32_t>(where.pc))) {
      profiler->jit_overflow_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool Profiler::Start() {
  Profiler* expected = nullptr;
  if (!g_active_profiler.compare_exchange_strong(expected, this,
                                                 std::memory_order_acq_rel)) {
    return false;  // another profiler is live
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &Profiler::Handler;
  action.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, &saved_->previous) != 0) {
    g_active_profiler.store(nullptr, std::memory_order_release);
    return false;
  }
  const long interval_us = 1'000'000L / (options_.hz > 0 ? options_.hz : 97);
  struct itimerval timer;
  timer.it_interval.tv_sec = interval_us / 1'000'000L;
  timer.it_interval.tv_usec = interval_us % 1'000'000L;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, &saved_->previous_timer) != 0) {
    sigaction(SIGPROF, &saved_->previous, nullptr);
    g_active_profiler.store(nullptr, std::memory_order_release);
    return false;
  }
  timer_armed_ = true;
  running_.store(true, std::memory_order_release);
  return true;
}

void Profiler::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  if (timer_armed_) {
    setitimer(ITIMER_PROF, &saved_->previous_timer, nullptr);
    timer_armed_ = false;
  }
  sigaction(SIGPROF, &saved_->previous, nullptr);
  g_active_profiler.store(nullptr, std::memory_order_release);
}

std::string Profiler::GraftLabel(std::size_t row) const {
  if (row == 0) {
    return "-";
  }
  std::lock_guard<std::mutex> lock(names_mu_);
  const std::size_t id = row - 1;
  if (id < names_.size() && !names_[id].empty()) {
    return names_[id];
  }
  return "graft" + std::to_string(id);
}

std::string Profiler::CellPrefix(std::size_t cell) const {
  return "graftlab;" + GraftLabel(cell / tracelab::kProfStages) + ";" +
         tracelab::ProfStageName(static_cast<tracelab::ProfStage>(cell % tracelab::kProfStages));
}

std::string Profiler::FoldedStacks() const {
  // A cell's own line carries the samples none of its jitted lines took.
  std::vector<std::uint64_t> in_jit(cells_.size(), 0);
  std::string jit_lines;
  for (const JitSlot& slot : jit_slots_) {
    if (slot.state.load(std::memory_order_acquire) != 2) {
      continue;
    }
    const std::uint64_t count = slot.count.load(std::memory_order_relaxed);
    in_jit[slot.cell] += count;
    jit_lines += CellPrefix(slot.cell) + ";minnow:" + slot.fn + "@" + std::to_string(slot.pc) +
                 " " + std::to_string(count) + "\n";
  }
  std::string out;
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    const std::uint64_t count = cells_[cell].load(std::memory_order_relaxed);
    if (count > in_jit[cell]) {
      out += CellPrefix(cell) + " " + std::to_string(count - in_jit[cell]) + "\n";
    }
  }
  return out + jit_lines;
}

void Profiler::RegisterWith(MetricsRegistry& registry) {
  registry.AddCollector([this](std::vector<Sample>& out) {
    for (std::size_t row = 0; row <= options_.max_grafts; ++row) {
      for (std::size_t stage = 0; stage < tracelab::kProfStages; ++stage) {
        const std::uint64_t count =
            cells_[row * tracelab::kProfStages + stage].load(std::memory_order_relaxed);
        if (count == 0) {
          continue;
        }
        out.push_back(Sample{
            "graftlab_profile_samples_total",
            Labels{{"graft", GraftLabel(row)},
                   {"stage",
                    tracelab::ProfStageName(static_cast<tracelab::ProfStage>(stage))}},
            static_cast<double>(count), true});
      }
    }
    out.push_back(Sample{"graftlab_profile_jit_overflow_total", {},
                         static_cast<double>(jit_overflow_.load(std::memory_order_relaxed)),
                         true});
    out.push_back(Sample{"graftlab_profile_active", {},
                         running_.load(std::memory_order_relaxed) ? 1.0 : 0.0, false});
  });
}

}  // namespace obslab
