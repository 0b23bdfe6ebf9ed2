// GraftBench: the GraftLab benchmark binary (driven by graftbench/run.py).
//
// One invocation runs one workload, in two phases:
//
//   kernels — an in-process, single-thread closed loop over the paper's
//             three grafts (page eviction, MD5, logical disk) driven through
//             core::GraftHost on pre-built instances, one set per technology
//             row. Rows are sampled round-robin in short batches, so every
//             row sees the same box state, and each row's cost is divided by
//             native C's from the same rounds: the paper's normalized column.
//   served  — an open-loop generator over loopback TCP against a
//             netfront::Server (1 IO thread) fronting one md5 graft on a
//             2-worker graftd::Dispatcher. Requests are due on a seeded
//             Poisson schedule; the generator busy-polls, sends each request
//             at its due instant, and times it from that instant to its
//             verified reply. Two fixed rates (light, heavy) and a stepped
//             search for the highest rate whose p99 meets the limit.
//
// Every output is checked against an oracle that does not run through the
// code under test: md5::Sum digests for every MD5 result and every served
// reply, the rig's known victim for eviction, and native C's placements for
// the logical disk. A mismatch makes the process exit 1.
//
// --trace 1 adds the per-layer measurements: the benchmark times its own
// calls into each layer's public functions (graft factories, the minnow
// load pipeline, GraftHost, the wire codec, the socket round trip,
// Dispatcher::Snapshot, the admin scrape) and reads the dispatcher's
// service-time seam, in windows that alternate with untraced ones. Nothing
// inside src/ is instrumented. End-to-end figures come from --trace 0 runs.
//
// The last stdout line is one JSON object; run.py turns it into the
// benchmark's result line. Inputs are a pure function of --seed.

#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/graft_host.h"
#include "src/core/technology.h"
#include "src/graftd/dispatcher.h"
#include "src/grafts/factory.h"
#include "src/grafts/minnow_grafts.h"
#include "src/ldisk/logical_disk.h"
#include "src/md5/md5.h"
#include "src/minnow/compiler.h"
#include "src/minnow/elide.h"
#include "src/minnow/optimizer.h"
#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"
#include "src/netfront/client.h"
#include "src/netfront/server.h"
#include "src/netfront/wire.h"
#include "src/obslab/plane.h"
#include "src/vmsim/frame.h"

namespace {

// ---------------------------------------------------------------- basics

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// splitmix64: every generated input derives from the seed through this.
struct Rng {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }
};

std::vector<std::uint8_t> RandomBytes(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Highest percentile not above `want` that keeps at least ten samples
// beyond it (p99 needs >= 1000 samples).
double TailPercent(std::size_t n, double want) {
  if (n < 20) {
    return 50.0;
  }
  return std::min(want, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

// Exact nearest-rank percentile of nanosecond samples, in microseconds.
// Failed requests are stored as UINT64_MAX and read back as +inf: a request
// that never got a verified reply misses every latency limit.
double PercentileUs(std::vector<std::uint64_t>& v, double pct) {
  if (v.empty()) {
    return 0.0;
  }
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  const std::uint64_t ns = v[rank];
  return ns == std::numeric_limits<std::uint64_t>::max() ? std::numeric_limits<double>::infinity()
                                                         : static_cast<double>(ns) / 1e3;
}

// Size i of n spread evenly over [lo, hi]: the size mix is the same for
// every seed (only contents and order vary), so per-call overheads weigh
// the same in every run.
std::size_t Stratified(std::size_t lo, std::size_t hi, std::size_t i, std::size_t n) {
  return n <= 1 ? hi : lo + (hi - lo) * i / (n - 1);
}

std::uint64_t Fold(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * 0x100000001B3ull;
}

// Ordered name -> value list, printed as a JSON object.
using Metrics = std::vector<std::pair<std::string, double>>;

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonObject(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": " + JsonNumber(metrics[i].second);
  }
  return out + "}";
}

// ----------------------------------------------------------------- flags

// Shares of --seconds for the kernels phase and the two fixed-rate served
// phases; the max-rate search runs after them.
constexpr double kShareKernels = 0.5;
constexpr double kShareLight = 0.15;
constexpr double kShareHeavy = 0.15;
// Set-ups per run (setup_s is their median).
constexpr std::size_t kSetupReps = 9;
// Served figures are valid only while the generator sends on time: a phase
// whose send-lag p99 exceeds this is flagged invalid.
constexpr double kLagBoundUs = 1000;

// Workload constants come from graftbench/workloads.json via run.py; every
// one must be given.
struct Flags {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  // served graft: "c" (native C md5) or "jit" (Minnow md5, JIT + elision)
  std::string served_graft;
  bool obs = false;  // obslab plane attached and enabled, 1 Hz admin scrape
  std::string recorder_dir = ".";  // where flight-recorder snapshots land
  std::size_t payload_min = 0;
  std::size_t payload_max = 0;
  std::size_t kernel_md5_min = 0;
  std::size_t kernel_md5_max = 0;
  double light_rps = 0;
  double heavy_rps = 0;
  double search_start_rps = 0;
  double search_step = 0;
  double search_max_rps = 0;
  double search_step_s = 0;
  double p99_limit_us = 0;

  static Flags Parse(int argc, char** argv) {
    Flags f;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      const double num = std::strtod(val.c_str(), nullptr);
      if (key == "--workload") f.workload = val;
      else if (key == "--seed") f.seed = std::strtoull(val.c_str(), nullptr, 10);
      else if (key == "--seconds") f.seconds = num;
      else if (key == "--trace") f.trace = num != 0;
      else if (key == "--served-graft") f.served_graft = val;
      else if (key == "--obs") f.obs = num != 0;
      else if (key == "--recorder-dir") f.recorder_dir = val;
      else if (key == "--payload-min") f.payload_min = static_cast<std::size_t>(num);
      else if (key == "--payload-max") f.payload_max = static_cast<std::size_t>(num);
      else if (key == "--kernel-md5-min") f.kernel_md5_min = static_cast<std::size_t>(num);
      else if (key == "--kernel-md5-max") f.kernel_md5_max = static_cast<std::size_t>(num);
      else if (key == "--light-rps") f.light_rps = num;
      else if (key == "--heavy-rps") f.heavy_rps = num;
      else if (key == "--search-start-rps") f.search_start_rps = num;
      else if (key == "--search-step") f.search_step = num;
      else if (key == "--search-max-rps") f.search_max_rps = num;
      else if (key == "--search-step-s") f.search_step_s = num;
      else if (key == "--p99-limit-us") f.p99_limit_us = num;
      else throw std::invalid_argument("unknown flag " + key);
    }
    if (f.served_graft != "c" && f.served_graft != "jit") {
      throw std::invalid_argument("--served-graft must be c or jit");
    }
    if (f.payload_min == 0 || f.payload_max < f.payload_min || f.kernel_md5_min == 0 ||
        f.kernel_md5_max < f.kernel_md5_min || f.seconds <= 0 || f.light_rps <= 0 ||
        f.heavy_rps <= 0 || f.search_start_rps <= 0 || f.search_step <= 1.0 ||
        f.search_max_rps < f.search_start_rps || f.search_step_s <= 0 || f.p99_limit_us <= 0) {
      throw std::invalid_argument("missing or inconsistent workload flags");
    }
    return f;
  }
};

// Where the main thread is, for the run watchdog: the phase, and the open
// window's progress.
std::atomic<const char*> g_stage{"start"};
std::atomic<std::uint64_t> g_issued{0};
std::atomic<std::uint64_t> g_answered{0};
std::atomic<std::uint64_t> g_unsent{0};
std::atomic<std::uint64_t> g_windows{0};  // windows finished so far
std::atomic<std::uint64_t> g_lost{0};     // requests they lost

// Ends a run that overstays its time limit, so a stalled server cannot hang
// the benchmark: reports where the run stood and exits 4.
class Watchdog {
 public:
  explicit Watchdog(double limit_s)
      : thread_([this, limit_s] {
          std::unique_lock<std::mutex> lock(mu_);
          const auto limit = std::chrono::duration<double>(limit_s);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr,
                         "graftbench: run exceeded %.0f s in stage %s (%llu windows done, "
                         "%llu requests lost; open window: %llu issued, %llu answered, %llu "
                         "bytes unsent)\n",
                         limit_s, g_stage.load(),
                         static_cast<unsigned long long>(g_windows.load()),
                         static_cast<unsigned long long>(g_lost.load()),
                         static_cast<unsigned long long>(g_issued.load()),
                         static_cast<unsigned long long>(g_answered.load()),
                         static_cast<unsigned long long>(g_unsent.load()));
            std::_Exit(4);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;  // declared last: starts after the fields it reads
};

// Operations attempted, and those that failed (oracle mismatches, faults,
// sheds, refusals, lost replies). Mismatches also fail the whole run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
};

// --------------------------------------------------------- technology rows

struct TechRow {
  const char* key;
  core::Technology tech;
  bool jit;       // Minnow with MinnowConfig{jit, elide}
  bool e2e;       // an end-to-end cost_vs_c row (the rest are per-layer only)
  bool reduced;   // sampled at a reduced op count (Tcl)
};

constexpr TechRow kRows[] = {
    {"c", core::Technology::kC, false, true, false},
    {"modula3", core::Technology::kModula3, false, true, false},
    {"sfi", core::Technology::kSfi, false, true, false},
    {"java", core::Technology::kJava, false, true, false},
    {"jit", core::Technology::kJava, true, true, false},
    {"modula3_trap", core::Technology::kModula3Trap, false, false, false},
    {"sfi_full", core::Technology::kSfiFull, false, false, false},
    {"java_translated", core::Technology::kJavaTranslated, false, false, false},
    {"tcl", core::Technology::kTcl, false, false, true},
};

grafts::MinnowConfig JitConfig() {
  grafts::MinnowConfig config;
  config.jit = true;
  config.elide = true;
  return config;
}

// ------------------------------------------------------------ kernel inputs

constexpr int kHotList = 64;      // the paper's average hot-list length
constexpr int kHotAtHead = 2;     // hot frames the search must skip
constexpr int kColdFrames = 128;  // cold LRU chain behind them
// Instances per row, used in turn: a 64-node pointer chase and a JIT'd body
// both swing with where an instance lands in memory (one run measured a JIT
// logical disk at 2.4x its usual cost), so each run samples several
// layouts. Eviction instances are cheap and the most layout-sensitive.
constexpr int kEvictionInstances = 16;
constexpr int kInstances = 4;  // MD5 and logical disk
constexpr std::size_t kMd5Buffers = 16;
constexpr std::size_t kTclMd5Prefix = 1024;  // Tcl hashes a prefix, scaled by length
// A 16k-block logical disk: its maps fit in a core's L2, so the ratio
// measures the technologies rather than the host's shared last-level cache
// (with 64k blocks native C's per-write time swung 17-31 ns between runs).
constexpr std::uint64_t kLdiskBlocks = 1u << 14;
constexpr std::uint64_t kLdiskLogical = 1u << 12;
constexpr std::uint64_t kLdiskCapacity = kLdiskBlocks - 256;  // writes per instance
// Largest batch of one sample; at most half an ldisk instance's capacity.
constexpr double kMaxBatch = 8000;
constexpr double kSampleTargetNs = 250e3;

struct KernelInputs {
  std::vector<vmsim::PageId> hot_pages;
  std::vector<vmsim::Frame> frames;  // never resized after the queue links them
  vmsim::LruQueue queue;
  vmsim::PageId expected_victim = 0;

  std::vector<std::vector<std::uint8_t>> buffers;
  std::vector<md5::Digest> digests;
  std::vector<md5::Digest> prefix_digests;  // Tcl rows
  double mean_len = 0;
  double mean_prefix_len = 0;

  ldisk::Geometry geometry;
  std::vector<ldisk::BlockId> writes;      // 80/20 skewed logical blocks
  std::vector<ldisk::BlockId> placements;  // native C's answers, one per write
};

std::unique_ptr<KernelInputs> MakeKernelInputs(const Flags& flags) {
  auto in = std::make_unique<KernelInputs>();
  Rng rng{flags.seed ^ 0x6B65726E656Cull};

  // Eviction: 64 distinct hot pages; the LRU head holds two of them, then
  // 128 cold pages. The victim is the first cold frame.
  std::vector<vmsim::PageId> pages;
  while (pages.size() < kHotList + kColdFrames) {
    const vmsim::PageId page = 1 + rng.Below(1u << 24);
    if (std::find(pages.begin(), pages.end(), page) == pages.end()) {
      pages.push_back(page);
    }
  }
  in->hot_pages.assign(pages.begin(), pages.begin() + kHotList);
  in->frames.resize(kHotAtHead + kColdFrames);
  // Fixed hot-list positions (HotListAdd pushes at the front), so the
  // search length is the same for every seed.
  for (int i = 0; i < kHotAtHead; ++i) {
    in->frames[i].page = in->hot_pages[kHotList / 4 + i * kHotList / 2];
  }
  for (int i = 0; i < kColdFrames; ++i) {
    in->frames[kHotAtHead + i].page = pages[kHotList + i];
  }
  for (auto& frame : in->frames) {
    in->queue.PushMru(&frame);
  }
  in->expected_victim = in->frames[kHotAtHead].page;

  // MD5: seeded buffers, digests from md5::Sum.
  for (std::size_t i = 0; i < kMd5Buffers; ++i) {
    const std::size_t len = Stratified(flags.kernel_md5_min, flags.kernel_md5_max, i, kMd5Buffers);
    in->buffers.push_back(RandomBytes(rng, len));
    in->digests.push_back(md5::Sum(in->buffers.back()));
    const std::size_t prefix = std::min(len, kTclMd5Prefix);
    in->prefix_digests.push_back(md5::Sum({in->buffers.back().data(), prefix}));
    in->mean_len += static_cast<double>(len) / kMd5Buffers;
    in->mean_prefix_len += static_cast<double>(prefix) / kMd5Buffers;
  }

  // Logical disk: 80% of writes land on 20% of the logical blocks.
  in->geometry.num_blocks = kLdiskBlocks;
  const std::uint64_t hot_blocks = kLdiskLogical / 5;
  in->writes.resize(kLdiskCapacity);
  for (auto& w : in->writes) {
    w = rng.Below(10) < 8 ? rng.Below(hot_blocks)
                          : hot_blocks + rng.Below(kLdiskLogical - hot_blocks);
  }
  return in;
}

// ----------------------------------------------------------- kernel rows

enum GraftKind { kEvict = 0, kMd5 = 1, kLdisk = 2 };
constexpr const char* kGraftNames[] = {"evict", "md5", "ldisk"};

struct KernelRow {
  const TechRow* row = nullptr;
  std::vector<std::unique_ptr<core::PrioritizationGraft>> evict;
  std::vector<std::unique_ptr<core::StreamGraft>> md5;
  // A logical disk fills up (the log has no cleaner): each instance is
  // rebuilt, untimed, once its next batch would run past the write sequence.
  struct Ldisk {
    std::unique_ptr<core::BlackBoxGraft> graft;
    std::size_t pos = 0;  // writes already replayed
  };
  std::vector<Ldisk> ldisk;
  std::size_t evict_next = 0;
  std::size_t md5_turn = 0;  // next instance
  std::size_t md5_next = 0;  // next buffer
  std::size_t ldisk_turn = 0;
  std::size_t batch[3] = {1, 1, 1};
  std::vector<double> ns_per_op[3];
};

std::unique_ptr<core::PrioritizationGraft> MakeEviction(const TechRow& row,
                                                        envs::PreemptToken* preempt) {
  if (row.jit) {
    return std::make_unique<grafts::MinnowEvictionGraft>(JitConfig());
  }
  return grafts::CreateEvictionGraft(row.tech, preempt);
}

std::unique_ptr<core::StreamGraft> MakeMd5(const TechRow& row, envs::PreemptToken* preempt) {
  if (row.jit) {
    return std::make_unique<grafts::MinnowMd5Graft>(JitConfig());
  }
  return grafts::CreateMd5Graft(row.tech, preempt);
}

std::unique_ptr<core::BlackBoxGraft> MakeLdisk(const TechRow& row, const ldisk::Geometry& geometry,
                                               envs::PreemptToken* preempt) {
  if (row.jit) {
    return std::make_unique<grafts::MinnowLogicalDiskGraft>(geometry, JitConfig());
  }
  return grafts::CreateLogicalDiskGraft(row.tech, geometry, preempt);
}

void BuildKernelRow(KernelRow& k, const TechRow& row, const KernelInputs& in,
                    core::GraftHost& host) {
  k.row = &row;
  k.evict.clear();
  for (int i = 0; i < (row.reduced ? 1 : kEvictionInstances); ++i) {
    auto graft = MakeEviction(row, &host.preempt_token());
    for (vmsim::PageId page : in.hot_pages) {
      graft->HotListAdd(page);
    }
    k.evict.push_back(std::move(graft));
  }
  k.md5.clear();
  for (int i = 0; i < (row.reduced ? 1 : kInstances); ++i) {
    k.md5.push_back(MakeMd5(row, &host.preempt_token()));
  }
  k.ldisk.clear();
  for (int i = 0; i < (row.reduced ? 1 : kInstances); ++i) {
    k.ldisk.push_back({MakeLdisk(row, in.geometry, &host.preempt_token()), 0});
  }
}

// Runs `n` operations of one graft on one row through GraftHost and checks
// every result. Returns elapsed nanoseconds of the calls alone.
std::uint64_t RunKernelBatch(KernelRow& k, GraftKind kind, std::size_t n, const KernelInputs& in,
                             core::GraftHost& host, Tally& tally) {
  std::uint64_t elapsed = 0;
  switch (kind) {
    case kEvict: {
      core::PrioritizationGraft& graft = *k.evict[k.evict_next++ % k.evict.size()];
      const std::uint64_t t0 = NowNs();
      const auto result = host.RunEvictionGraft(graft, in.queue.head(), n);
      elapsed = NowNs() - t0;
      tally.attempted += n;
      if (!result.ok || result.lookups != n) {
        tally.failed += n - result.lookups;
      }
      if (result.lookups > 0 && result.last_victim_page != in.expected_victim) {
        ++tally.mismatches;
        ++tally.failed;
      }
      break;
    }
    case kMd5: {
      core::StreamGraft& graft = *k.md5[k.md5_turn++ % k.md5.size()];
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t b = k.md5_next++ % in.buffers.size();
        const auto& buf = in.buffers[b];
        const std::size_t len = k.row->reduced ? std::min(buf.size(), kTclMd5Prefix) : buf.size();
        const std::uint64_t t0 = NowNs();
        const auto result = host.RunStreamGraft(graft, {buf.data(), len}, 64u << 10);
        elapsed += NowNs() - t0;
        ++tally.attempted;
        const md5::Digest& want = k.row->reduced ? in.prefix_digests[b] : in.digests[b];
        if (!result.ok) {
          ++tally.failed;
        } else if (result.digest != want) {
          ++tally.mismatches;
          ++tally.failed;
        }
      }
      break;
    }
    case kLdisk: {
      KernelRow::Ldisk& disk = k.ldisk[k.ldisk_turn++ % k.ldisk.size()];
      if (disk.pos + n > in.writes.size()) {
        disk = {MakeLdisk(*k.row, in.geometry, &host.preempt_token()), 0};
      }
      const std::size_t pos = disk.pos;
      std::uint64_t got = 0;
      bool faulted = false;
      const std::uint64_t t0 = NowNs();
      try {
        for (std::size_t i = 0; i < n; ++i) {
          got = Fold(got, disk.graft->OnWrite(in.writes[pos + i]));
        }
      } catch (const std::exception&) {
        faulted = true;
      }
      elapsed = NowNs() - t0;
      disk.pos += n;
      tally.attempted += n;
      if (faulted) {
        tally.failed += n;
        break;
      }
      if (!in.placements.empty()) {
        std::uint64_t want = 0;
        for (std::size_t i = 0; i < n; ++i) {
          want = Fold(want, in.placements[pos + i]);
        }
        if (got != want) {
          ++tally.mismatches;
          ++tally.failed;
        }
      }
      break;
    }
  }
  return elapsed;
}

// Native C's placements for the whole write sequence: the ldisk oracle.
void ComputePlacements(KernelInputs& in) {
  auto graft = grafts::CreateLogicalDiskGraft(core::Technology::kC, in.geometry);
  in.placements.resize(in.writes.size());
  for (std::size_t i = 0; i < in.writes.size(); ++i) {
    in.placements[i] = graft->OnWrite(in.writes[i]);
  }
}

// ----------------------------------------------------------- served rig

struct Variant {
  std::vector<std::uint8_t> payload;
  md5::Digest digest;
};

struct ClientConn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  netfront::FrameDecoder decoder;
};

// The dispatcher's service-time seam (ServerOptions::obs_latency), recorded
// while `on`. Called on the single IO thread; read by the generator between
// windows.
struct ServiceRecorder {
  std::atomic<bool> on{false};
  std::mutex mu;
  std::vector<std::uint64_t> samples;  // guarded by mu
  std::vector<std::uint64_t> Take() {
    std::lock_guard<std::mutex> lock(mu);
    return std::exchange(samples, {});
  }
};

int ConnectLoopback(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

constexpr std::size_t kConns = 4;
constexpr std::uint16_t kAdminTenant = 1;

// Everything set_up builds: the kernel rows, and the served stack with its
// client connections. Members are torn down server-first.
struct Rig {
  core::GraftHost host;
  std::vector<KernelRow> kernels;
  ServiceRecorder service;
  std::unique_ptr<obslab::Plane> plane;
  std::unique_ptr<graftd::Dispatcher> dispatcher;
  std::unique_ptr<netfront::Server> server;
  std::unique_ptr<netfront::Client> admin;
  std::vector<ClientConn> conns;
  std::uint32_t wire_graft = 0;

  Rig() : host(HostOptions()) {}
  ~Rig() {
    for (ClientConn& conn : conns) {
      if (conn.fd >= 0) {
        close(conn.fd);
      }
    }
    admin.reset();
    server.reset();
    dispatcher.reset();
    plane.reset();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  static core::GraftHostOptions HostOptions() {
    core::GraftHostOptions options;
    options.disk_geometry.num_blocks = kLdiskBlocks;
    return options;
  }
};

// Thread placement for the served topology on a box with >= 4 CPUs: the
// netfront IO thread on CPU 1 and the two dispatcher workers on CPUs 2-3,
// each with a CPU of its own; the generator (main thread) stays free to run
// anywhere, which in practice is CPU 0. A thread inherits its creator's
// mask, so SetUp narrows the main thread's mask before each component
// spawns its threads and widens it again afterwards. Unpinned, the
// scheduler can stack the busy-polling generator on the CPU of a woken IO
// thread or worker: a millisecond-scale stall. (Pinning the generator to
// CPU 0 as well measured far worse: p50 over 1 ms.) With fewer CPUs nothing
// is pinned.
bool PinThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) >= 4 &&
         CPU_ISSET(0, &set) && CPU_ISSET(1, &set) && CPU_ISSET(2, &set) && CPU_ISSET(3, &set);
}

void PinTo(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu <= last; ++cpu) {
    CPU_SET(cpu, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Builds every graft instance and starts the served stack. `all_rows` adds
// the per-layer-only technology rows (traced runs); they are built after the
// timed part, so set-up time covers only what end-to-end metrics use.
std::unique_ptr<Rig> SetUp(const Flags& flags, const KernelInputs& in, bool all_rows,
                           double* setup_s) {
  const std::uint64_t t0 = NowNs();
  auto rig = std::make_unique<Rig>();
  for (const TechRow& row : kRows) {
    if (row.e2e) {
      rig->kernels.emplace_back();
      BuildKernelRow(rig->kernels.back(), row, in, rig->host);
    }
  }

  graftd::DispatcherOptions dopts;
  dopts.workers = 2;
  const bool jit = flags.served_graft == "jit";
  if (jit) {
    // The VM crossing with its per-invocation fuel and wall-clock budget.
    dopts.policy.default_budget = std::chrono::milliseconds(100);
    dopts.policy.fuel_budget = std::int64_t{1} << 40;
  }
  const bool pin = PinThreads();
  if (pin) {
    PinTo(2, 3);
  }
  rig->dispatcher = std::make_unique<graftd::Dispatcher>(dopts);
  const graftd::GraftId id = rig->dispatcher->RegisterStreamGraft(
      "md5", [jit](envs::PreemptToken* preempt) -> std::unique_ptr<core::StreamGraft> {
        if (jit) {
          return std::make_unique<grafts::MinnowMd5Graft>(JitConfig());
        }
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });

  netfront::ServerOptions sopts;
  sopts.io_threads = 1;
  // Traced served-small runs attach a disabled plane so the admin scrape is
  // measured on both workloads; untraced served-small runs have none.
  const bool want_plane = flags.obs || flags.trace;
  if (want_plane) {
    obslab::PlaneOptions popts;
    popts.recorder.dir = flags.recorder_dir;
    rig->plane = std::make_unique<obslab::Plane>(popts);
    rig->plane->SetEnabled(flags.obs);
    rig->plane->Attach(*rig->dispatcher);
    sopts.tenants.resize(2);
    sopts.tenants[kAdminTenant].name = "admin";
    sopts.tenants[kAdminTenant].admin = true;
    obslab::Plane* plane = rig->plane.get();
    sopts.admin_metrics = [plane](std::uint8_t format) { return plane->Exposition(format); };
    sopts.obs_event = [plane](const char* event) { plane->OnServerEvent(event); };
    for (std::size_t t = 0; t < sopts.tenants.size(); ++t) {
      plane->slo().AddTenant(t, sopts.tenants[t].name, sopts.tenants[t].slo_p99_us);
    }
    // The service-time seam feeds the plane's SLO windows and, in traced
    // runs, the benchmark's own record.
    ServiceRecorder* service = &rig->service;
    sopts.obs_latency = [plane, service](std::uint16_t tenant, std::uint64_t ns) {
      plane->OnTenantLatency(tenant, ns);
      if (service->on.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(service->mu);
        service->samples.push_back(ns);
      }
    };
  }
  rig->server = std::make_unique<netfront::Server>(*rig->dispatcher, sopts);
  rig->wire_graft = rig->server->ExposeGraft(id);
  if (rig->plane != nullptr) {
    netfront::Server* server = rig->server.get();
    rig->plane->AddNetfrontCollector(
        [server](graftd::NetfrontSection& section) { server->FillTelemetry(section); });
  }
  if (!rig->server->ListenTcp(0)) {
    throw std::runtime_error("ListenTcp failed");
  }
  if (pin) {
    PinTo(1, 1);
  }
  rig->server->Start();
  if (pin) {
    PinTo(0, 3);
  }
  rig->conns.resize(kConns);
  for (ClientConn& conn : rig->conns) {
    conn.fd = ConnectLoopback(rig->server->port());
    if (conn.fd < 0) {
      throw std::runtime_error("connect failed");
    }
    fcntl(conn.fd, F_SETFL, fcntl(conn.fd, F_GETFL, 0) | O_NONBLOCK);
  }
  if (want_plane) {
    netfront::ClientOptions aopts;
    aopts.port = rig->server->port();
    aopts.tenant = kAdminTenant;
    aopts.attempt_timeout = std::chrono::milliseconds(2000);
    rig->admin = std::make_unique<netfront::Client>(aopts);
  }
  *setup_s = static_cast<double>(NowNs() - t0) / 1e9;

  if (all_rows) {
    for (const TechRow& row : kRows) {
      if (!row.e2e) {
        rig->kernels.emplace_back();
        BuildKernelRow(rig->kernels.back(), row, in, rig->host);
      }
    }
  }
  return rig;
}

// ------------------------------------------------------------ kernels phase

// Returns the number of rounds sampled.
std::size_t RunKernels(Rig& rig, const KernelInputs& in, double budget_s, Tally& tally,
                       Metrics& e2e, Metrics& layers) {
  // Warm-up doubles as calibration: size each (row, graft) batch so one
  // sample takes about kSampleTargetNs.
  for (KernelRow& k : rig.kernels) {
    for (int g = 0; g < 3; ++g) {
      const GraftKind kind = static_cast<GraftKind>(g);
      std::size_t n = 1;
      double per_op = 0;
      for (int pass = 0; pass < 3; ++pass) {
        Tally scratch;
        const std::uint64_t ns = RunKernelBatch(k, kind, n, in, rig.host, scratch);
        tally.mismatches += scratch.mismatches;
        per_op = static_cast<double>(std::max<std::uint64_t>(ns, 1)) / static_cast<double>(n);
        n = static_cast<std::size_t>(std::clamp(kSampleTargetNs / per_op, 1.0, kMaxBatch));
      }
      if (k.row->reduced) {
        n = std::max<std::size_t>(1, n / 8);
      }
      k.batch[g] = n;
    }
  }

  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(budget_s * 1e9);
  std::size_t round = 0;
  while (NowNs() < deadline || round < 3) {
    for (int g = 0; g < 3; ++g) {
      const std::size_t rows = rig.kernels.size();
      for (std::size_t r = 0; r < rows; ++r) {
        KernelRow& k = rig.kernels[(r + round) % rows];
        if (k.row->reduced && round % 8 != 0) {
          continue;
        }
        const GraftKind kind = static_cast<GraftKind>(g);
        const std::uint64_t ns = RunKernelBatch(k, kind, k.batch[g], in, rig.host, tally);
        double per_op = static_cast<double>(ns) / static_cast<double>(k.batch[g]);
        if (kind == kMd5 && k.row->reduced) {
          per_op *= in.mean_len / in.mean_prefix_len;  // Tcl hashes a prefix
        }
        k.ns_per_op[g].push_back(per_op);
      }
    }
    ++round;
  }

  // A row's cost on one graft is the median over rounds of its time divided
  // by native C's time in the same round: pairing samples taken milliseconds
  // apart cancels the host's slower and faster stretches.
  const KernelRow& c = rig.kernels.front();
  for (const KernelRow& k : rig.kernels) {
    double log_sum = 0;
    for (int g = 0; g < 3; ++g) {
      layers.emplace_back(std::string("grafts.") + kGraftNames[g] + "." + k.row->key + ".ns_per_op",
                          Median(k.ns_per_op[g]));
      if (k.row->e2e) {
        std::vector<double> ratios;
        for (std::size_t r = 0; r < k.ns_per_op[g].size(); ++r) {
          ratios.push_back(k.ns_per_op[g][r] / c.ns_per_op[g][r]);
        }
        log_sum += std::log(Median(ratios));
      }
    }
    if (k.row->e2e && k.row != c.row) {
      e2e.emplace_back(std::string("cost_vs_c.") + k.row->key, std::exp(log_sum / 3.0));
    }
  }
  return round;
}

// Per-layer kernel figures only traced runs report: the minnow load
// pipeline, SFI load, JIT counters, and the GraftHost crossing.
void RunKernelLayers(Rig& rig, const KernelInputs& in, Tally& tally, Metrics& layers) {
  constexpr int kReps = 7;
  std::vector<double> compile, verify, fuse, elide, jit, sfi;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t t0 = NowNs();
    minnow::Program program = minnow::Compile(grafts::MinnowMd5Source());
    compile.push_back(static_cast<double>(NowNs() - t0) / 1e3);

    minnow::Program verified = program;
    t0 = NowNs();
    minnow::VerifyProgram(verified);
    verify.push_back(static_cast<double>(NowNs() - t0) / 1e3);

    t0 = NowNs();
    minnow::FuseSuperinstructions(program);
    fuse.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    minnow::VerifyProgram(program);

    t0 = NowNs();
    minnow::ElideChecks(program);
    elide.push_back(static_cast<double>(NowNs() - t0) / 1e3);

    // JIT share of VM construction: the same certified program with and
    // without DispatchMode::kJit.
    minnow::VmOptions interp;
    interp.elide_checks = true;
    minnow::VmOptions native = interp;
    native.dispatch = minnow::DispatchMode::kJit;
    t0 = NowNs();
    { minnow::VM vm(program, interp); }
    const std::uint64_t interp_ns = NowNs() - t0;
    t0 = NowNs();
    { minnow::VM vm(program, native); }
    const std::uint64_t native_ns = NowNs() - t0;
    jit.push_back((static_cast<double>(native_ns) - static_cast<double>(interp_ns)) / 1e3);

    t0 = NowNs();
    { auto graft = grafts::CreateMd5Graft(core::Technology::kSfi, &rig.host.preempt_token()); }
    sfi.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  layers.emplace_back("minnow.load_us.compile", Median(compile));
  layers.emplace_back("minnow.load_us.verify", Median(verify));
  layers.emplace_back("minnow.load_us.fuse", Median(fuse));
  layers.emplace_back("minnow.load_us.elide", Median(elide));
  layers.emplace_back("minnow.load_us.jit", Median(jit));
  layers.emplace_back("sfi.load_us", Median(sfi));

  const KernelRow* jit_row = nullptr;
  const KernelRow* c_row = nullptr;
  for (const KernelRow& k : rig.kernels) {
    if (k.row->jit) jit_row = &k;
    if (std::strcmp(k.row->key, "c") == 0) c_row = &k;
  }
  std::uint64_t code_bytes = 0, deopts = 0, bailouts = 0, elided = 0;
  for (const auto& [name, count] : jit_row->md5.front()->ExecutionProfile()) {
    if (name == "jit_bytes") code_bytes = count;
    if (name == "jit_deopts") deopts = count;
    if (name == "jit_bailouts") bailouts = count;
    if (name == "checks_elided") elided = count;
  }
  layers.emplace_back("minnow.jit.code_bytes", static_cast<double>(code_bytes));
  layers.emplace_back("minnow.jit.deopts", static_cast<double>(deopts));
  layers.emplace_back("minnow.jit.bailouts", static_cast<double>(bailouts));
  layers.emplace_back("minnow.elide.checks_elided", static_cast<double>(elided));

  // Crossing: RunStreamGraft on a 64 B input minus a direct Consume+Finish
  // on the same instance, in alternating batches; the median of the paired
  // differences. Both paths are checked against md5::Sum.
  const std::vector<std::uint8_t>& first = in.buffers.front();
  const std::vector<std::uint8_t> small(first.begin(),
                                        first.begin() + std::min<std::size_t>(64, first.size()));
  const md5::Digest want = md5::Sum(small);
  for (const KernelRow* k : {c_row, jit_row}) {
    constexpr int kBatch = 200;
    std::vector<double> crossing;
    for (int rep = 0; rep < 60; ++rep) {
      std::uint64_t t0 = NowNs();
      for (int i = 0; i < kBatch; ++i) {
        const auto result = rig.host.RunStreamGraft(*k->md5.front(), small, 64u << 10);
        tally.mismatches += !result.ok || result.digest != want;
      }
      const std::uint64_t hosted = NowNs() - t0;
      t0 = NowNs();
      for (int i = 0; i < kBatch; ++i) {
        k->md5.front()->Consume(small.data(), small.size());
        tally.mismatches += k->md5.front()->Finish() != want;
      }
      const std::uint64_t direct = NowNs() - t0;
      crossing.push_back((static_cast<double>(hosted) - static_cast<double>(direct)) / kBatch);
    }
    layers.emplace_back(std::string("core.host.crossing_ns.") + k->row->key, Median(crossing));
  }
}

// ------------------------------------------------------------ served phase

struct WindowResult {
  std::uint64_t sent = 0;  // requests scheduled
  std::uint64_t errors = 0;  // shed/refused/faulted replies
  std::uint64_t lost = 0;    // no reply within the grace window
  std::uint64_t mismatches = 0;
  std::vector<std::uint64_t> latency_ns;  // every request; failures = UINT64_MAX
  std::vector<std::uint64_t> lag_ns;      // send instant - due instant
  std::uint64_t encode_ns = 0, encodes = 0, decode_ns = 0, decodes = 0;
};

class Generator {
 public:
  Generator(Rig& rig, const Flags& flags)
      : rig_(rig), rng_{flags.seed ^ 0x6C6F616467656Eull} {
    constexpr std::size_t kVariants = 64;
    for (std::size_t v = 0; v < kVariants; ++v) {
      Variant variant;
      const std::size_t len = Stratified(flags.payload_min, flags.payload_max, v, kVariants);
      variant.payload = RandomBytes(rng_, len);
      variant.digest = md5::Sum(variant.payload);
      variants_.push_back(std::move(variant));
    }
  }

  // One open-loop window: `rate` requests/s with Poisson arrivals for
  // `seconds`, then up to `grace_s` for the last replies.
  WindowResult Run(double rate, double seconds, bool traced, double grace_s = 1.0) {
    WindowResult w;
    const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
    std::vector<std::uint64_t> due(n);
    std::vector<std::uint16_t> variant(n);
    std::vector<std::uint8_t> state(n, 0);
    const std::uint64_t start = NowNs() + 200'000;
    double t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng_.Unit()) / rate;
      due[i] = start + static_cast<std::uint64_t>(t * 1e9);
      variant[i] = static_cast<std::uint16_t>(rng_.Below(variants_.size()));
    }
    const std::uint64_t base = next_id_;
    next_id_ += n;
    w.latency_ns.assign(n, std::numeric_limits<std::uint64_t>::max());
    w.lag_ns.resize(n);

    const std::uint64_t give_up = due[n - 1] + static_cast<std::uint64_t>(grace_s * 1e9);
    std::size_t issued = 0, done = 0;
    netfront::FrameDecoder::Frame frame;
    while (done < n) {
      std::uint64_t now = NowNs();
      const std::size_t first = issued;
      while (issued < n && due[issued] <= now) {
        ClientConn& conn = rig_.conns[issued % rig_.conns.size()];
        const Variant& v = variants_[variant[issued]];
        const std::uint64_t e0 = traced ? NowNs() : 0;
        netfront::AppendRequest(conn.out, 0, rig_.wire_graft, base + issued, v.payload.data(),
                                v.payload.size());
        if (traced) {
          w.encode_ns += NowNs() - e0;
          ++w.encodes;
        }
        ++issued;
      }
      if (issued > first) {
        for (ClientConn& conn : rig_.conns) {
          Flush(conn);
        }
        const std::uint64_t sent_at = NowNs();
        for (std::size_t i = first; i < issued; ++i) {
          w.lag_ns[i] = sent_at - due[i];
        }
      } else {
        for (ClientConn& conn : rig_.conns) {
          if (conn.out_pos < conn.out.size()) {
            Flush(conn);
          }
        }
      }

      // A bounded number of reads per connection per pass, so a peer that
      // never stops sending cannot keep the loop from its deadline check.
      for (ClientConn& conn : rig_.conns) {
        for (int reads = 0; reads < 8; ++reads) {
          const ssize_t got = recv(conn.fd, rx_, sizeof(rx_), MSG_DONTWAIT);
          if (got < 0 && errno == EINTR) {
            continue;
          }
          if (got <= 0) {
            if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
              throw std::runtime_error("served connection closed");
            }
            break;
          }
          const std::uint64_t recv_ns = NowNs();
          conn.decoder.Feed(rx_, static_cast<std::size_t>(got));
          for (;;) {
            const std::uint64_t d0 = traced ? NowNs() : 0;
            const auto result = conn.decoder.Next(frame);
            if (result != netfront::FrameDecoder::Result::kFrame) {
              if (result == netfront::FrameDecoder::Result::kError) {
                throw std::runtime_error("reply stream poisoned: " + conn.decoder.error());
              }
              break;
            }
            if (traced) {
              w.decode_ns += NowNs() - d0;
              ++w.decodes;
            }
            const std::uint64_t id = frame.header.request_id;
            if (id < base) {
              continue;  // a reply an earlier window already counted as lost
            }
            const std::uint64_t i = id - base;
            if (i >= n || state[i] != 0) {
              ++w.mismatches;
              continue;
            }
            state[i] = 1;
            ++done;
            if (frame.header.type == netfront::FrameType::kResponse) {
              const md5::Digest& want = variants_[variant[i]].digest;
              if (frame.payload.size() == 8 &&
                  std::memcmp(frame.payload.data(), want.data(), 8) == 0) {
                w.latency_ns[i] = recv_ns - due[i];
              } else {
                ++w.mismatches;
              }
            } else {
              ++w.errors;
            }
          }
        }
      }
      std::uint64_t unsent = 0;
      for (const ClientConn& conn : rig_.conns) {
        unsent += conn.out.size() - conn.out_pos;
      }
      g_unsent.store(unsent, std::memory_order_relaxed);
      g_issued.store(issued, std::memory_order_relaxed);
      g_answered.store(done, std::memory_order_relaxed);
      if (NowNs() > give_up) {
        w.lost = n - done;  // unanswered, or never even sent
        break;
      }
    }
    w.sent = n;
    g_windows.fetch_add(1, std::memory_order_relaxed);
    g_lost.fetch_add(w.lost, std::memory_order_relaxed);
    return w;
  }

 private:
  void Flush(ClientConn& conn) {
    while (conn.out_pos < conn.out.size()) {
      const ssize_t wrote = send(conn.fd, conn.out.data() + conn.out_pos,
                                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (wrote < 0 && errno == EINTR) {
        continue;
      }
      if (wrote <= 0) {
        if (wrote < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
        }
        break;  // socket buffer full: the open loop keeps queueing locally
      }
      conn.out_pos += static_cast<std::size_t>(wrote);
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
    } else if (conn.out_pos > (1u << 20)) {
      conn.out.erase(conn.out.begin(),
                     conn.out.begin() + static_cast<std::ptrdiff_t>(conn.out_pos));
      conn.out_pos = 0;
    }
  }

  Rig& rig_;
  Rng rng_;
  std::vector<Variant> variants_;
  std::uint64_t next_id_ = 1;
  std::uint8_t rx_[64 << 10];
};

void Account(const WindowResult& w, Tally& tally) {
  tally.attempted += w.sent;
  tally.failed += w.errors + w.lost + w.mismatches;
  tally.mismatches += w.mismatches;
}

// Cumulative dispatcher + netfront counters, for per-phase deltas.
struct Counters {
  double decoded = 0, wakeups = 0, submit_batches = 0, submit_total = 0, read_pauses = 0,
         shed_overload = 0, parks = 0, spin_wakeups = 0, inline_hits = 0, producer_waits = 0,
         preempts = 0;
};

Counters ReadCounters(Rig& rig) {
  graftd::TelemetrySnapshot snap = rig.dispatcher->Snapshot();
  rig.server->FillTelemetry(snap.netfront);
  Counters c;
  for (const auto& io : snap.netfront.io_threads) {
    c.decoded += static_cast<double>(io.decoded_frames);
    c.wakeups += static_cast<double>(io.wakeups);
    c.submit_batches += static_cast<double>(io.submit_sizes.batches);
    c.submit_total += static_cast<double>(io.submit_sizes.total);
  }
  c.read_pauses = static_cast<double>(snap.netfront.read_pauses);
  for (const auto& t : snap.netfront.tenants) {
    c.shed_overload += static_cast<double>(t.shed_overload);
  }
  for (const auto& w : snap.dispatch.workers) {
    c.parks += static_cast<double>(w.parks);
    c.spin_wakeups += static_cast<double>(w.spin_wakeups);
    c.producer_waits += static_cast<double>(w.producer_waits);
  }
  c.inline_hits = static_cast<double>(snap.dispatch.inline_hits);
  for (const auto& row : snap.grafts) {
    c.preempts += static_cast<double>(row.counters.preempts);
  }
  return c;
}

// 1 Hz admin scrapes over the wire, on their own thread.
class Scraper {
 public:
  explicit Scraper(netfront::Client* client) : client_(client) {
    if (client_ != nullptr) {
      thread_ = std::thread([this] { Loop(); });
    }
  }
  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  // Valid after Stop().
  const std::vector<double>& scrape_us() const { return scrape_us_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::size_t last_bytes() const { return last_bytes_; }

 private:
  void Loop() {
    std::uint64_t next = NowNs();
    while (!stop_.load()) {
      if (NowNs() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      next += 1'000'000'000ull;
      std::string body;
      const std::uint64_t t0 = NowNs();
      const bool ok = client_->AdminScrape(obslab::kFormatPrometheus, body);
      const std::uint64_t t1 = NowNs();
      ++attempted_;
      if (ok && body.find("graftlab_graft_invocations_total") != std::string::npos) {
        scrape_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
        last_bytes_ = body.size();
      } else {
        ++failed_;
      }
    }
  }

  netfront::Client* client_;
  std::atomic<bool> stop_{false};
  std::vector<double> scrape_us_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t last_bytes_ = 0;
  std::thread thread_;  // declared last: joins before the fields it writes die
};

// Bare in-process TCP ping-pong (32 B each way): an echo thread blocked in
// recv, the client busy-polling like the generator.
class EchoProbe {
 public:
  EchoProbe() {
    const int listener = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listener < 0 || bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(listener, 1) != 0 ||
        getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      if (listener >= 0) close(listener);
      throw std::runtime_error("rtt listener failed");
    }
    echo_ = std::thread([listener] {
      const int fd = accept(listener, nullptr, nullptr);
      close(listener);
      if (fd < 0) return;
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      char buf[32];
      for (;;) {
        const ssize_t got = recv(fd, buf, sizeof(buf), 0);
        if (got <= 0 || send(fd, buf, static_cast<std::size_t>(got), MSG_NOSIGNAL) != got) break;
      }
      close(fd);
    });
    fd_ = ConnectLoopback(ntohs(addr.sin_port));
    if (fd_ < 0) {
      shutdown(listener, SHUT_RDWR);
      echo_.join();
      throw std::runtime_error("rtt connect failed");
    }
  }
  ~EchoProbe() {
    close(fd_);  // the echo thread sees EOF and exits
    echo_.join();
  }
  EchoProbe(const EchoProbe&) = delete;
  EchoProbe& operator=(const EchoProbe&) = delete;

  // Median round trip of `iters` ping-pongs, in microseconds.
  double MedianRttUs(int iters) {
    std::vector<double> rtt;
    char buf[32] = {};
    for (int i = 0; i < iters; ++i) {
      const std::uint64_t t0 = NowNs();
      if (send(fd_, buf, sizeof(buf), MSG_NOSIGNAL) != static_cast<ssize_t>(sizeof(buf))) {
        throw std::runtime_error("rtt send failed");
      }
      std::size_t have = 0;
      while (have < sizeof(buf)) {
        const ssize_t got = recv(fd_, buf + have, sizeof(buf) - have, MSG_DONTWAIT);
        if (got > 0) {
          have += static_cast<std::size_t>(got);
        } else if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
          throw std::runtime_error("rtt recv failed");
        }
      }
      rtt.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    return Median(rtt);
  }

 private:
  int fd_ = -1;
  std::thread echo_;
};

// A fixed-rate phase, summarized over its windows: the median of per-window
// p50s and of per-window tails, so one burst of host scheduling stalls moves
// one window, not the phase. Each window holds >= kWindowSamples requests,
// so its p99 has at least ten samples beyond it.
constexpr double kWindowSamples = 1000;

struct PhaseSummary {
  double p50_us = 0;
  double tail_us = 0;
  double tail_pct = 99;  // lowest per-window tail percentile used
  double lag_p99_us = 0;
  std::size_t samples = 0;
  std::size_t windows = 0;
};

// Window tail: p99, or the highest percentile with ten samples beyond it.
double WindowTailUs(std::vector<std::uint64_t> latency, double* pct = nullptr) {
  const double p = TailPercent(latency.size(), 99.0);
  if (pct != nullptr) {
    *pct = p;
  }
  return PercentileUs(latency, p);
}

PhaseSummary Summarize(const std::vector<WindowResult>& windows) {
  PhaseSummary s;
  std::vector<double> p50, tail;
  std::vector<std::uint64_t> lag;
  for (const WindowResult& w : windows) {
    std::vector<std::uint64_t> latency = w.latency_ns;
    p50.push_back(PercentileUs(latency, 50.0));
    double pct = 99;
    tail.push_back(WindowTailUs(w.latency_ns, &pct));
    s.tail_pct = std::min(s.tail_pct, pct);
    s.samples += w.latency_ns.size();
    lag.insert(lag.end(), w.lag_ns.begin(), w.lag_ns.end());
  }
  s.windows = windows.size();
  s.p50_us = Median(p50);
  s.tail_us = Median(tail);
  s.lag_p99_us = PercentileUs(lag, TailPercent(lag.size(), 99.0));
  return s;
}

// Stepped search: climb a geometric ladder until a step misses the p99
// limit or falls behind (lost replies, sheds, generator lag), re-measure the
// bracketing pair twice more, and interpolate the limit crossing in log-log
// space between the pair's median tails. A step's tail is the median of
// three consecutive slices of its window.
double SearchMaxRate(const Flags& flags, Generator& gen, Tally& tally, std::string& log) {
  const double limit = flags.p99_limit_us;
  const double ceiling = 100.0 * limit;  // stands in for "fell behind"
  auto measure = [&](double rate) {
    WindowResult w = gen.Run(rate, flags.search_step_s, false, 0.5);
    // Probes past the limit may shed by design: only mismatches count
    // against the run.
    tally.mismatches += w.mismatches;
    std::vector<double> tails;
    const std::size_t slice = w.latency_ns.size() / 3;
    for (std::size_t k = 0; k < 3; ++k) {
      const auto begin = w.latency_ns.begin() + static_cast<std::ptrdiff_t>(k * slice);
      const auto end = k == 2 ? w.latency_ns.end() : begin + static_cast<std::ptrdiff_t>(slice);
      tails.push_back(WindowTailUs({begin, end}));
    }
    const double lag = Summarize({w}).lag_p99_us;
    double tail = Median(tails);
    if (w.lost > 0 || w.errors > 0 || lag > kLagBoundUs || !std::isfinite(tail)) {
      tail = ceiling;
    }
    tail = std::min(tail, ceiling);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  step %9.0f req/s: tail %9.1f us, lag p99 %7.1f us, %llu shed, %llu lost\n",
                  rate, tail, lag, static_cast<unsigned long long>(w.errors),
                  static_cast<unsigned long long>(w.lost));
    log += line;
    return tail;
  };
  double pass_rate = 0, fail_rate = 0;
  std::vector<double> pass_tail, fail_tail;
  for (double rate = flags.search_start_rps; rate <= flags.search_max_rps * 1.0001;
       rate *= flags.search_step) {
    const double tail = measure(rate);
    if (tail <= limit) {
      pass_rate = rate;
      pass_tail = {tail};
    } else {
      fail_rate = rate;
      fail_tail = {tail};
      break;
    }
  }
  if (fail_rate == 0) {
    return pass_rate;  // never fell over: the ladder's top
  }
  if (pass_rate == 0) {
    pass_rate = fail_rate / flags.search_step;
    pass_tail.push_back(measure(pass_rate));
  }
  for (int rep = 0; rep < 2; ++rep) {
    pass_tail.push_back(measure(pass_rate));
    fail_tail.push_back(measure(fail_rate));
  }
  const double x0 = std::log(pass_rate), x1 = std::log(fail_rate);
  const double y0 = std::log(Median(pass_tail)), y1 = std::log(Median(fail_tail));
  double x = y1 > y0 ? x0 + (std::log(limit) - y0) * (x1 - x0) / (y1 - y0) : x0;
  x = std::clamp(x, x0 - std::log(flags.search_step), x1);
  return std::exp(x);
}

struct ServedResult {
  PhaseSummary light, heavy;
  double max_rate = 0;
};

ServedResult RunServed(const Flags& flags, Rig& rig, Tally& tally, Metrics& layers) {
  Generator gen(rig, flags);
  Scraper scraper(rig.admin.get());
  ServedResult result;

  g_stage = "served warm-up";
  // Warm-up, outside every timed window.
  for (const double rate : {flags.light_rps, flags.heavy_rps}) {
    const WindowResult w = gen.Run(rate, 0.3, false);
    tally.mismatches += w.mismatches;
  }
  EchoProbe probe;
  const double rtt_us = flags.trace ? probe.MedianRttUs(3000) : 0.0;

  auto phase = [&](const char* name, double rate, double seconds, PhaseSummary& out) {
    const std::size_t windows = static_cast<std::size_t>(
        std::clamp(std::floor(rate * seconds / kWindowSamples), 2.0, 32.0));
    const double window_s = seconds / static_cast<double>(windows);
    std::vector<WindowResult> measured, untraced;
    std::vector<std::uint64_t> service;
    const Counters before = flags.trace ? ReadCounters(rig) : Counters{};
    for (std::size_t i = 0; i < windows; ++i) {
      // Traced runs alternate traced and untraced windows; the difference
      // of their medians is the tracing overhead.
      const bool traced = flags.trace && i % 2 == 0;
      rig.service.on.store(traced);
      WindowResult w = gen.Run(rate, window_s, traced);
      rig.service.on.store(false);
      Account(w, tally);
      if (traced) {
        std::vector<std::uint64_t> s = rig.service.Take();
        service.insert(service.end(), s.begin(), s.end());
      }
      (flags.trace && !traced ? untraced : measured).push_back(std::move(w));
    }
    out = Summarize(measured);
    if (!flags.trace) {
      return;
    }
    const Counters after = ReadCounters(rig);
    const std::string sfx = std::string(".") + name;
    double requests = 0, enc_ns = 0, encs = 0, dec_ns = 0, decs = 0;
    for (const auto* set : {&measured, &untraced}) {
      for (const WindowResult& w : *set) {
        requests += static_cast<double>(w.sent);
        enc_ns += static_cast<double>(w.encode_ns);
        encs += static_cast<double>(w.encodes);
        dec_ns += static_cast<double>(w.decode_ns);
        decs += static_cast<double>(w.decodes);
      }
    }
    const PhaseSummary plain = Summarize(untraced);
    const double service_p50 = PercentileUs(service, 50.0);
    const double service_p99 = PercentileUs(service, TailPercent(service.size(), 99.0));
    const double per_k = 1000.0 / std::max(1.0, requests);
    auto delta = [&](double Counters::*f) { return after.*f - before.*f; };
    const double spins = delta(&Counters::spin_wakeups);
    // The client view from the untraced windows, under the end-to-end names.
    layers.emplace_back("p50_us" + sfx, plain.p50_us);
    layers.emplace_back("p99_us" + sfx, plain.tail_us);
    layers.emplace_back("client.p50_us" + sfx, out.p50_us);
    layers.emplace_back("graftd.service_us.p50" + sfx, service_p50);
    layers.emplace_back("graftd.service_us.p99" + sfx, service_p99);
    layers.emplace_back("netfront.residual_us.p50" + sfx, out.p50_us - service_p50 - rtt_us);
    layers.emplace_back("trace.overhead_us.p50" + sfx, out.p50_us - plain.p50_us);
    layers.emplace_back("loadgen.send_lag_p99_us" + sfx, out.lag_p99_us);
    layers.emplace_back("netfront.frames_per_wakeup" + sfx,
                        delta(&Counters::decoded) / std::max(1.0, delta(&Counters::wakeups)));
    layers.emplace_back("netfront.submit_batch_mean" + sfx,
                        delta(&Counters::submit_total) /
                            std::max(1.0, delta(&Counters::submit_batches)));
    layers.emplace_back("netfront.read_pauses" + sfx, delta(&Counters::read_pauses) * per_k);
    layers.emplace_back("netfront.shed_overload" + sfx, delta(&Counters::shed_overload) * per_k);
    layers.emplace_back("graftd.parks" + sfx, delta(&Counters::parks) * per_k);
    layers.emplace_back("graftd.spin_wakeup_frac" + sfx,
                        spins / std::max(1.0, spins + delta(&Counters::parks)));
    layers.emplace_back("graftd.inline_hit_frac" + sfx,
                        delta(&Counters::inline_hits) / std::max(1.0, requests));
    layers.emplace_back("graftd.producer_waits" + sfx, delta(&Counters::producer_waits) * per_k);
    layers.emplace_back("graftd.preempts" + sfx, delta(&Counters::preempts) * per_k);
    if (std::strcmp(name, "heavy") == 0) {
      layers.emplace_back("netfront.wire.encode_ns", enc_ns / std::max(1.0, encs));
      layers.emplace_back("netfront.wire.decode_ns", dec_ns / std::max(1.0, decs));
    }
  };

  g_stage = "served light";
  phase("light", flags.light_rps, flags.seconds * kShareLight, result.light);
  g_stage = "served heavy";
  phase("heavy", flags.heavy_rps, flags.seconds * kShareHeavy, result.heavy);
  g_stage = "served max-rate search";
  std::string log;
  result.max_rate = SearchMaxRate(flags, gen, tally, log);
  std::printf("max-rate search (p99 limit %.0f us):\n%s", flags.p99_limit_us, log.c_str());

  scraper.Stop();
  tally.attempted += scraper.attempted();
  tally.failed += scraper.failed();
  if (flags.trace) {
    layers.emplace_back("max_rate_rps", result.max_rate);
    layers.emplace_back("net.loopback_rtt_us", rtt_us);
    const std::uint64_t t0 = NowNs();
    (void)ReadCounters(rig);
    layers.emplace_back("graftd.snapshot_us", static_cast<double>(NowNs() - t0) / 1e3);
    layers.emplace_back("obslab.scrape_us", Median(scraper.scrape_us()));
    layers.emplace_back("obslab.exposition_bytes", static_cast<double>(scraper.last_bytes()));
  }
  return result;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const Watchdog watchdog(2 * flags.seconds + 60);
  g_stage = "set-up";
  const std::unique_ptr<KernelInputs> inputs = MakeKernelInputs(flags);
  ComputePlacements(*inputs);

  // Set-up, several times; the median is setup_s. The last rig is kept.
  std::vector<double> setup_times;
  std::unique_ptr<Rig> rig;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    double s = 0;
    rig = SetUp(flags, *inputs, flags.trace && rep + 1 == kSetupReps, &s);
    setup_times.push_back(s);
  }

  Tally tally;
  Metrics e2e, layers;
  g_stage = "kernels";
  const std::size_t rounds =
      RunKernels(*rig, *inputs, flags.seconds * kShareKernels, tally, e2e, layers);
  if (flags.trace) {
    g_stage = "kernel layers";
    RunKernelLayers(*rig, *inputs, tally, layers);
  }
  const ServedResult served = RunServed(flags, *rig, tally, layers);
  g_stage = "teardown";
  rig.reset();

  e2e.emplace_back("p50_us.light", served.light.p50_us);
  e2e.emplace_back("p99_us.light", served.light.tail_us);
  e2e.emplace_back("p50_us.heavy", served.heavy.p50_us);
  e2e.emplace_back("p99_us.heavy", served.heavy.tail_us);
  e2e.emplace_back("max_rate_rps", served.max_rate);
  e2e.emplace_back("setup_s", Median(setup_times));
  e2e.emplace_back("failed_frac", tally.attempted == 0
                                      ? 0.0
                                      : static_cast<double>(tally.failed) /
                                            static_cast<double>(tally.attempted));

  const Metrics info = {
      {"samples.light", static_cast<double>(served.light.samples)},
      {"samples.heavy", static_cast<double>(served.heavy.samples)},
      {"windows.light", static_cast<double>(served.light.windows)},
      {"windows.heavy", static_cast<double>(served.heavy.windows)},
      {"tail_pct.light", served.light.tail_pct},
      {"tail_pct.heavy", served.heavy.tail_pct},
      {"lag_p99_us.light", served.light.lag_p99_us},
      {"lag_p99_us.heavy", served.heavy.lag_p99_us},
      {"setup_reps", static_cast<double>(setup_times.size())},
      {"kernel_rounds", static_cast<double>(rounds)},
      {"lag_bound_us", kLagBoundUs},
  };
  const bool correct = tally.mismatches == 0;
  std::printf("{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"mismatches\": %llu, \"e2e\": %s, \"layers\": %s, \"info\": %s}\n",
              flags.workload.c_str(), correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.mismatches), JsonObject(e2e).c_str(),
              JsonObject(layers).c_str(), JsonObject(info).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "graftbench: %s\n", error.what());
    return 2;
  }
}
