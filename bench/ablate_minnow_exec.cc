// Ablation A1 — Minnow execution engines, dispatch loops, and fusion.
//
// The paper (§4.3, §6) expects runtime code generation to carry Java from
// ~30-100x slower than C toward compiled speed. Minnow runs the *same
// verified bytecode* two ways: the stack interpreter (a token-threaded
// computed-goto hot loop and superinstruction fusion) and the load-time
// template JIT (minnow/jit.h), which is the Java/translated row.
//
// Three ablations (A1b, the load-time fold/thread optimizer, was retired
// with the optimizer itself; see EXPERIMENTS.md):
//   A1a  interpreter vs Java/translated (the JIT, checks kept) vs native C
//        (all three grafts)
//   A1c  the interpreter's own axes: switch vs threaded dispatch, with and
//        without superinstruction fusion — the gate is >= 1.5x on the
//        MD5-stream graft for (threaded + fused) over the plain switch loop,
//        as the median of per-round ratios with the configs interleaved
//   A1d  the load-time template JIT (verify-then-compile, minnow/jit.h) vs
//        the best interpreter row — the gate is >= 5x on the MD5-stream
//        graft over (threaded + fused) with identical digests, plus a
//        normalized-cost table against SFI on all three grafts (the paper's
//        "compiled Java lands within striking distance of SFI" claim), and
//        two per-call rows: an empty call (what entering an extension costs)
//        and one logical-disk OnWrite on a pre-built graft (the paper's
//        per-block overhead, without the workload generator the ldisk
//        workload row also times)
//
// A final section prints the opcode and opcode-pair frequency profile the
// fusion set was selected from (the same counters graftd telemetry exports).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/graft_measures.h"
#include "src/core/technology.h"
#include "src/grafts/factory.h"
#include "src/grafts/minnow_grafts.h"
#include "src/ldisk/logical_disk.h"
#include "src/minnow/compiler.h"
#include "src/minnow/vm.h"
#include "src/sfi/jump_table.h"
#include "src/stats/harness.h"
#include "src/stats/running_stats.h"
#include "src/vmsim/frame.h"

namespace {

using core::Technology;

// Best-pass time to fingerprint `bytes` through a MinnowMd5Graft built with
// `config`; folds the digest into *checksum so configurations can be
// cross-checked in the JSON report. The minimum over passes is the
// least-interference estimate — this box's clock dips make per-config means
// swing ~1.6x, which would dominate the cross-config ratios the section
// gates on.
double MeasureConfigMd5Us(const grafts::MinnowConfig& config, std::size_t runs,
                          std::size_t bytes, std::uint64_t* checksum) {
  constexpr std::size_t kChunk = 64u << 10;
  std::vector<std::uint8_t> data(bytes);
  std::mt19937_64 rng(1996);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }
  stats::RunningStats per_pass_us;
  for (std::size_t run = 0; run < runs; ++run) {
    grafts::MinnowMd5Graft graft(config);
    stats::SpinWarmup();
    for (int pass = 0; pass < 2; ++pass) {  // warm pass, then measured pass
      stats::Timer timer;
      for (std::size_t off = 0; off < data.size(); off += kChunk) {
        graft.Consume(data.data() + off, std::min(kChunk, data.size() - off));
      }
      md5::Digest digest = graft.Finish();
      stats::DoNotOptimize(digest);
      if (pass == 1) {
        per_pass_us.Add(timer.ElapsedUs());
        if (checksum != nullptr) {
          *checksum = bench::Checksum(digest.data(), digest.size());
        }
      }
    }
  }
  return per_pass_us.min();
}

// Mean time of one ChooseVictim call (64-entry hot list, cold candidate)
// for a MinnowEvictionGraft built with `config`.
double MeasureConfigEvictionUs(const grafts::MinnowConfig& config, std::size_t runs) {
  std::vector<vmsim::Frame> frames(bench::kHotListSize + 64);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = 100000 + i;  // never hot
    queue.PushMru(&frames[i]);
  }
  stats::RunningStats per_call_us;
  for (std::size_t run = 0; run < runs; ++run) {
    grafts::MinnowEvictionGraft graft(config);
    for (int p = 1; p <= bench::kHotListSize; ++p) {
      graft.HotListAdd(static_cast<vmsim::PageId>(p));
    }
    const auto measurement = stats::MeasureAutoScaled(3, 5000.0, [&](std::size_t iters) {
      vmsim::Frame* sink = nullptr;
      for (std::size_t i = 0; i < iters; ++i) {
        sink = graft.ChooseVictim(queue.head());
      }
      stats::DoNotOptimize(sink);
    });
    per_call_us.Add(measurement.mean_us());
  }
  return per_call_us.mean();
}

// Mean time to replay `writes` skewed block writes through a
// MinnowLogicalDiskGraft built with `config` (fresh graft per run: the log
// starts empty, as in the paper).
double MeasureConfigLdiskUs(const grafts::MinnowConfig& config, std::size_t runs,
                            std::uint64_t writes) {
  ldisk::Geometry geometry;
  geometry.num_blocks = writes;
  stats::RunningStats per_run_us;
  for (std::size_t run = 0; run < runs; ++run) {
    grafts::MinnowLogicalDiskGraft graft(geometry, config);
    stats::SpinWarmup();
    stats::Timer timer;
    const auto replay =
        ldisk::ReplayWorkload(graft, geometry, writes, /*seed=*/80204, /*validate=*/false);
    stats::DoNotOptimize(replay.writes);
    per_run_us.Add(timer.ElapsedUs());
  }
  return per_run_us.min();  // best pass, as in MeasureConfigMd5Us
}

// Per-write cost of OnWrite on a pre-built graft, best of `runs`. The
// logical block stream is drawn before the clock starts and the graft is
// built (ld_init run) outside it, so the row is the call and its body.
template <typename MakeGraft>
double MeasureLdiskPerWriteNs(const MakeGraft& make, std::size_t runs, std::uint64_t writes) {
  ldisk::Geometry geometry;
  geometry.num_blocks = writes;
  ldisk::SkewedWorkload workload(geometry, /*seed=*/80204);
  std::vector<ldisk::BlockId> blocks(writes);
  for (auto& block : blocks) {
    block = workload.Next();
  }
  double best_ns = 1e300;
  for (std::size_t run = 0; run < runs; ++run) {
    const auto graft = make(geometry);
    stats::SpinWarmup();
    stats::Timer timer;
    ldisk::BlockId sink = 0;
    for (const ldisk::BlockId block : blocks) {
      sink ^= graft->OnWrite(block);
    }
    stats::DoNotOptimize(sink);
    best_ns = std::min(best_ns, timer.ElapsedUs() * 1e3 / static_cast<double>(writes));
  }
  return best_ns;
}

// Per-call cost of entering `fn id(x: int) -> int { return x; }` through
// VM::CallIndex, on the threaded interpreter or the JIT — the extension
// entry alone, with a body of two instructions.
double MeasureEmptyCallNs(bool jit, std::size_t runs) {
  minnow::VmOptions options;
  options.dispatch = jit ? minnow::DispatchMode::kJit : minnow::DispatchMode::kThreaded;
  minnow::VM vm(minnow::Compile("fn id(x: int) -> int { return x; }"), options);
  vm.RunInit();
  const int id = vm.FunctionIndex("id");
  const auto measurement = stats::MeasureAutoScaled(runs, 5000.0, [&](std::size_t iters) {
    std::int64_t sink = 0;
    for (std::size_t i = 0; i < iters; ++i) {
      const minnow::Value arg = minnow::Value::Int(static_cast<std::int64_t>(i));
      sink += vm.CallIndex(id, std::span<const minnow::Value>(&arg, 1)).AsInt();
    }
    stats::DoNotOptimize(sink);
  });
  return measurement.mean_us() * 1e3;
}

// SFI's control-flow crossing for the same empty function: one masked
// indirect call through the sandbox jump table.
[[gnu::noinline]] std::int64_t SfiIdentity(std::int64_t x) { return x; }

double MeasureSfiEmptyCallNs(std::size_t runs) {
  sfi::JumpTable<std::int64_t, std::int64_t> table(
      4, +[](std::int64_t) -> std::int64_t { return -1; });
  std::size_t id = table.Register(&SfiIdentity);
  const auto measurement = stats::MeasureAutoScaled(runs, 5000.0, [&](std::size_t iters) {
    std::int64_t sink = 0;
    for (std::size_t i = 0; i < iters; ++i) {
      stats::DoNotOptimize(id);
      sink += table.Call(id, static_cast<std::int64_t>(i));
    }
    stats::DoNotOptimize(sink);
  });
  return measurement.mean_us() * 1e3;
}

grafts::MinnowConfig InterpConfig(bool threaded, bool fuse) {
  grafts::MinnowConfig config;
  config.fuse = fuse;
  config.dispatch = threaded ? minnow::DispatchMode::kThreaded : minnow::DispatchMode::kSwitch;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::Parse(argc, argv);
  bench::PrintHeader("Ablation A1: Minnow engines, dispatch loops, fusion",
                     "paper §4.3 / §6 ('compiled Java')");
  bench::JsonReport report("ablate_minnow_exec");

  const std::size_t runs = options.full ? 20 : 6;
  const std::size_t md5_bytes = options.full ? (256u << 10) : (64u << 10);
  const std::uint64_t writes = options.full ? 65536 : 16384;

  // --- A1a: interpreter vs Java/translated (the JIT, checks kept) vs native ---
  bench::PrintSection("A1a: interpreter vs load-time compilation (Java/translated)");
  struct Row {
    const char* name;
    double interp_us;
    double translated_us;
    double native_us;
  };
  Row rows[] = {
      {"eviction (per call)", bench::MeasureEvictionUs(Technology::kJava, runs),
       bench::MeasureEvictionUs(Technology::kJavaTranslated, runs), bench::MeasureEvictionUs(Technology::kC, runs)},
      {"md5 (per buffer)", bench::MeasureMd5Us(Technology::kJava, runs, md5_bytes),
       bench::MeasureMd5Us(Technology::kJavaTranslated, runs, md5_bytes),
       bench::MeasureMd5Us(Technology::kC, runs, md5_bytes)},
      {"ldisk (per workload)", bench::MeasureLdiskUs(Technology::kJava, runs, writes),
       bench::MeasureLdiskUs(Technology::kJavaTranslated, runs, writes),
       bench::MeasureLdiskUs(Technology::kC, runs, writes)},
  };

  std::printf("%-22s %14s %14s %12s %10s %18s\n", "graft", "interpreter", "translated",
              "native C", "speedup", "remaining gap vs C");
  for (const Row& row : rows) {
    std::printf("%-22s %12.2fus %12.2fus %10.2fus %9.2fx %17.1fx\n", row.name, row.interp_us,
                row.translated_us, row.native_us, row.interp_us / row.translated_us,
                row.translated_us / row.native_us);
  }
  report.AddUs("md5/interpreter", runs, rows[1].interp_us, bench::Md5Checksum(Technology::kJava));
  report.AddUs("md5/translated", runs, rows[1].translated_us,
               bench::Md5Checksum(Technology::kJavaTranslated));
  report.AddUs("md5/native_c", runs, rows[1].native_us, bench::Md5Checksum(Technology::kC));

  // --- A1c: dispatch loop and fusion, the interpreter's own axes ---
  bench::PrintSection("A1c: switch vs threaded dispatch x superinstruction fusion");
  if (!minnow::VM::ThreadedDispatchAvailable()) {
    std::printf("threaded dispatch NOT COMPILED IN (built with -DGRAFTLAB_THREADED_DISPATCH=OFF\n");
    std::printf("or a non-GNU compiler); 'threaded' rows below fall back to the switch loop.\n");
  }
  struct Config {
    const char* name;
    bool threaded;
    bool fuse;
  };
  const Config configs[] = {
      {"switch, raw bytecode", false, false},
      {"switch + fusion", false, true},
      {"threaded, raw bytecode", true, false},
      {"threaded + fusion", true, true},
  };
  // The four configs run interleaved, one pass each per round, so a clock
  // dip hits every config of that round alike, and the gate takes the
  // median of the per-round switch / threaded+fused ratios. The table keeps
  // each config's best md5 pass and mean eviction call over all rounds.
  stats::RunningStats md5_stats[4];
  stats::RunningStats evict_stats[4];
  std::uint64_t md5_checksum[4];
  std::vector<double> md5_ratios;
  std::vector<double> evict_ratios;
  for (std::size_t round = 0; round < runs; ++round) {
    double md5_round[4];
    double evict_round[4];
    for (int i = 0; i < 4; ++i) {
      const auto config = InterpConfig(configs[i].threaded, configs[i].fuse);
      md5_round[i] = MeasureConfigMd5Us(config, 1, md5_bytes, &md5_checksum[i]);
      evict_round[i] = MeasureConfigEvictionUs(config, 1);
      md5_stats[i].Add(md5_round[i]);
      evict_stats[i].Add(evict_round[i]);
    }
    md5_ratios.push_back(md5_round[0] / md5_round[3]);
    evict_ratios.push_back(evict_round[0] / evict_round[3]);
  }
  double md5_us[4];
  double evict_us[4];
  for (int i = 0; i < 4; ++i) {
    md5_us[i] = md5_stats[i].min();
    evict_us[i] = evict_stats[i].mean();
  }
  std::printf("%-24s %14s %10s %14s %10s\n", "configuration", "md5", "speedup", "eviction",
              "speedup");
  for (int i = 0; i < 4; ++i) {
    std::printf("%-24s %12.2fus %9.2fx %12.3fus %9.2fx\n", configs[i].name, md5_us[i],
                md5_us[0] / md5_us[i], evict_us[i], evict_us[0] / evict_us[i]);
    const std::string slug = std::string(configs[i].threaded ? "threaded" : "switch") +
                             (configs[i].fuse ? "_fused" : "_raw");
    report.AddUs("md5_dispatch/" + slug, runs, md5_us[i], md5_checksum[i]);
    report.AddUs("eviction_dispatch/" + slug, runs, evict_us[i], 0);
  }
  const bool checksums_agree = md5_checksum[0] == md5_checksum[1] &&
                               md5_checksum[0] == md5_checksum[2] &&
                               md5_checksum[0] == md5_checksum[3];
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  };
  const double md5_speedup = median(md5_ratios);
  const double evict_speedup = median(evict_ratios);
  std::printf("\ndigests identical across configurations: %s\n",
              checksums_agree ? "yes" : "NO (BUG)");
  std::printf("threaded+fusion vs switch baseline (median of %zu interleaved rounds): "
              "md5 %.2fx, eviction %.2fx -> %s (target >= 1.5x on md5)\n",
              runs, md5_speedup, evict_speedup, md5_speedup >= 1.5 ? "PASS" : "FAIL");

  // --- A1d: the load-time template JIT vs the best interpreter row ---
  bench::PrintSection("A1d: verify-then-compile template JIT");
  bench::JsonReport jit_report("minnow_jit");
  bool jit_gate_ok = true;
  if (!minnow::VM::JitDispatchAvailable()) {
    std::printf("JIT NOT COMPILED IN (built with -DGRAFTLAB_JIT=OFF or a non-x86-64/non-GNU\n");
    std::printf("target); DispatchMode::kJit degrades to the interpreter and the >= 5x gate\n");
    std::printf("is skipped.\n");
  } else {
    // The JIT row reuses the check-elision certificate (minnow/elide.h): sites
    // the load-time proof certifies compile to the unchecked `.nc` forms, so
    // the native code carries only the checks the proof could not discharge.
    grafts::MinnowConfig jit_config = InterpConfig(/*threaded=*/true, /*fuse=*/true);
    jit_config.jit = true;
    jit_config.elide = true;
    std::uint64_t jit_md5_checksum = 0;
    const double jit_md5_us = MeasureConfigMd5Us(jit_config, runs, md5_bytes, &jit_md5_checksum);
    const double jit_evict_us = MeasureConfigEvictionUs(jit_config, runs);
    const double jit_ldisk_us = MeasureConfigLdiskUs(jit_config, runs, writes);
    const double interp_ldisk_us =
        MeasureConfigLdiskUs(InterpConfig(/*threaded=*/true, /*fuse=*/true), runs, writes);
    const double sfi_md5_us = bench::MeasureMd5Us(Technology::kSfi, runs, md5_bytes);
    const double sfi_evict_us = bench::MeasureEvictionUs(Technology::kSfi, runs);
    const double sfi_ldisk_us = bench::MeasureLdiskUs(Technology::kSfi, runs, writes);

    struct JitRow {
      const char* name;
      const char* slug;
      double interp_us;
      double jit_us;
      double sfi_us;
    };
    const JitRow jit_rows[] = {
        {"eviction (per call)", "eviction", evict_us[3], jit_evict_us, sfi_evict_us},
        {"md5 (per buffer)", "md5", md5_us[3], jit_md5_us, sfi_md5_us},
        {"ldisk (per workload)", "ldisk", interp_ldisk_us, jit_ldisk_us, sfi_ldisk_us},
    };
    std::printf("%-22s %15s %12s %9s %12s %12s\n", "graft", "interp (best)", "jit", "speedup",
                "sfi", "jit cost/sfi");
    for (const JitRow& row : jit_rows) {
      std::printf("%-22s %13.2fus %10.2fus %8.2fx %10.2fus %11.2fx\n", row.name, row.interp_us,
                  row.jit_us, row.interp_us / row.jit_us, row.sfi_us, row.jit_us / row.sfi_us);
      jit_report.AddUs(std::string(row.slug) + "/interp_threaded_fused", runs, row.interp_us, 0);
      jit_report.AddUs(std::string(row.slug) + "/jit", runs, row.jit_us, 0);
      jit_report.AddUs(std::string(row.slug) + "/sfi", runs, row.sfi_us, 0);
    }
    // Row 0 of the md5 measurements above carries the digest checksum; repeat
    // it with the real checksums so scripts can diff jit against the
    // interpreter and SFI rows without rerunning.
    jit_report.AddUs("md5/jit_checksummed", runs, jit_md5_us, jit_md5_checksum);
    jit_report.AddUs("md5/interp_checksummed", runs, md5_us[3], md5_checksum[3]);
    jit_report.AddUs("md5/sfi_checksummed", runs, sfi_md5_us,
                     bench::Md5Checksum(Technology::kSfi));

    // Compiled-footprint evidence: what the arena holds for the MD5 graft.
    {
      grafts::MinnowMd5Graft probe(jit_config);
      if (const minnow::JitStats* stats = probe.vm().jit_stats()) {
        std::printf("\nmd5 graft arena: %llu functions compiled, %llu bytes of code, "
                    "%llu bailouts\n",
                    static_cast<unsigned long long>(stats->compiled_fns),
                    static_cast<unsigned long long>(stats->bytes),
                    static_cast<unsigned long long>(stats->bailouts));
      }
    }

    const double jit_speedup = md5_us[3] / jit_md5_us;
    const bool jit_digest_ok = jit_md5_checksum == md5_checksum[3];
    jit_gate_ok = jit_speedup >= 5.0 && jit_digest_ok;
    std::printf("digest identical to interpreter: %s\n", jit_digest_ok ? "yes" : "NO (BUG)");
    std::printf("jit vs threaded+fusion on md5: %.2fx -> %s (target >= 5x)\n", jit_speedup,
                jit_gate_ok ? "PASS" : "FAIL");
    std::printf("normalized cost vs SFI: md5 %.2fx, eviction %.2fx, ldisk %.2fx "
                "(paper target: within 2-5x)\n",
                jit_md5_us / sfi_md5_us, jit_evict_us / sfi_evict_us,
                jit_ldisk_us / sfi_ldisk_us);

    // Per-call rows. The ldisk row above times ReplayWorkload whole, whose
    // workload generator dilutes the graft's share; these isolate entry.
    const auto minnow_ldisk = [](const grafts::MinnowConfig& config) {
      return [config](const ldisk::Geometry& geometry) {
        return std::make_unique<grafts::MinnowLogicalDiskGraft>(geometry, config);
      };
    };
    const auto native_ldisk = [](Technology technology) {
      return [technology](const ldisk::Geometry& geometry) {
        return grafts::CreateLogicalDiskGraft(technology, geometry);
      };
    };
    const double call_interp_ns = MeasureEmptyCallNs(/*jit=*/false, runs);
    const double call_jit_ns = MeasureEmptyCallNs(/*jit=*/true, runs);
    const double call_sfi_ns = MeasureSfiEmptyCallNs(runs);
    const auto interp_config = InterpConfig(/*threaded=*/true, /*fuse=*/true);
    const double write_interp_ns =
        MeasureLdiskPerWriteNs(minnow_ldisk(interp_config), runs, writes);
    const double write_jit_ns = MeasureLdiskPerWriteNs(minnow_ldisk(jit_config), runs, writes);
    const double write_sfi_ns =
        MeasureLdiskPerWriteNs(native_ldisk(Technology::kSfi), runs, writes);
    const double write_c_ns = MeasureLdiskPerWriteNs(native_ldisk(Technology::kC), runs, writes);
    std::printf("\n%-22s %15s %12s %12s %12s %12s\n", "per call", "interp (best)", "jit", "sfi",
                "c", "jit cost/sfi");
    std::printf("%-22s %13.1fns %10.1fns %10.1fns %12s %11.2fx\n", "empty call",
                call_interp_ns, call_jit_ns, call_sfi_ns, "-", call_jit_ns / call_sfi_ns);
    std::printf("%-22s %13.1fns %10.1fns %10.1fns %10.1fns %11.2fx\n", "ldisk OnWrite, per write",
                write_interp_ns, write_jit_ns, write_sfi_ns, write_c_ns,
                write_jit_ns / write_sfi_ns);
    std::printf("jit entry vs interpreter entry (empty call): %.2fx\n",
                call_jit_ns / call_interp_ns);
    jit_report.Add("call_empty/interp_threaded_fused", runs, call_interp_ns, 0);
    jit_report.Add("call_empty/jit", runs, call_jit_ns, 0);
    jit_report.Add("call_empty/sfi", runs, call_sfi_ns, 0);
    jit_report.Add("ldisk_write/interp_threaded_fused", runs, write_interp_ns, 0);
    jit_report.Add("ldisk_write/jit", runs, write_jit_ns, 0);
    jit_report.Add("ldisk_write/sfi", runs, write_sfi_ns, 0);
    jit_report.Add("ldisk_write/c", runs, write_c_ns, 0);
  }
  jit_report.Write();

  // --- Opcode frequency profile (the fusion-set evidence) ---
  bench::PrintSection("Opcode profile, MD5 graft (raw bytecode, profiled run)");
  {
    auto config = InterpConfig(false, false);
    config.profile_opcodes = true;
    grafts::MinnowMd5Graft graft(config);
    std::vector<std::uint8_t> probe(16u << 10, 0x55);
    graft.Consume(probe.data(), probe.size());
    md5::Digest digest = graft.Finish();
    stats::DoNotOptimize(digest);
    std::printf("top opcodes:\n");
    std::size_t shown = 0;
    for (const auto& [name, count] : graft.vm().OpcodeCounts()) {
      if (++shown > 10) break;
      std::printf("  %-16s %12llu\n", name.c_str(), static_cast<unsigned long long>(count));
    }
    std::printf("top adjacent pairs (fusion candidates):\n");
    for (const auto& [name, count] : graft.vm().OpcodePairCounts(10)) {
      std::printf("  %-28s %12llu\n", name.c_str(), static_cast<unsigned long long>(count));
    }
  }
  std::printf("\nSee tests/conformance_test.cc (the dispatch x fusion x elision\n");
  std::printf("matrix) and tests/minnow_dispatch_fuzz_test.cc for the differential-\n");
  std::printf("correctness evidence behind every row above.\n");
  report.Write();
  return (md5_speedup >= 1.5 && checksums_agree && jit_gate_ok) ? 0 : 1;
}
