// The Minnow baseline JIT: verify-then-compile, interpreter as the oracle.
//
// A load-time template JIT in the eBPF mold. Bytecode that has passed the
// verifier (and optionally the check-elision pass) is compiled function by
// function into an mmap'd W^X code arena: the arena is mapped writable while
// templates are stitched, then flipped to read+execute before the first
// instruction runs, so at no point is memory both writable and executable.
//
// Per-opcode templates reproduce the exact semantics of vm_dispatch.inc.
// Every slot keeps a static address — the verifier proves a unique operand
// depth per pc, so operand d of a function with L locals lives at
// [locals_base + 8*(L+d)] and no stack-pointer register exists in compiled
// code — but values reach those slots lazily. Within a basic block the
// compiler tracks where each operand lives (register, immediate, local
// alias, flags) and the hottest locals of a loop live in registers for the
// whole function; slots are written at block ends, before helper and
// native calls, and by exit stubs. Safety checks are inlined (null,
// element kind, bounds, divide); at sites the elision certificate proved
// safe the `.nc` opcode forms are emitted natively with no check
// instructions.
//
// Fuel is charged ahead per region: one compare at each loop head, call
// return, and entry covers the longest run to the next such point, and
// the retired-instruction ledger is derived from the same register. Edges
// and side exits carry static corrections so the ledgers an observer can
// read (fuel(), instructions_retired()) are bit-identical to an
// interpreted run.
//
// Deoptimization is the safety net. Any condition the native code does not
// handle — a trap check firing, fuel too low for the next block, an opcode
// the compile filter denied, a callee that failed to compile — side-exits
// through a stub that first writes back its own deopt map (every value the
// frame memory lacks at that point), then reconstructs the interpreter
// frame (sp_ committed from the static depth, frame->pc set to the faulting
// instruction, ledgers corrected) and unwinds the whole native call chain
// back to the runner, which resumes the interpreter on the same frame
// stack — byte-identical to the frame an interpreted run would have there.
// Trapping instructions are re-executed by the interpreter so the trap
// message, the unwind path, and the ledgers come from the same code an
// interpreted run uses. Host calls and allocations run through helpers that
// commit VM state first; exceptions a helper observes are captured and
// rethrown from the runner (native frames carry no unwind tables, so C++
// exceptions must never cross them).
//
// Portability: x86-64 SysV only, behind the GRAFTLAB_JIT CMake option. Other
// targets (and GRAFTLAB_JIT=OFF builds) compile this header and jit.cc but
// Jit::Available() returns false and VmOptions::dispatch = kJit silently
// falls back to the interpreter, mirroring the kThreaded fallback.

#ifndef GRAFTLAB_SRC_MINNOW_JIT_H_
#define GRAFTLAB_SRC_MINNOW_JIT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/minnow/bytecode.h"
#include "src/minnow/heap.h"

namespace minnow {

class VM;

// Counters exported through ExecutionProfile -> graftd telemetry -> obslab.
struct JitStats {
  std::uint64_t compiled_fns = 0;  // functions fully compiled to native code
  std::uint64_t bytes = 0;         // native bytes emitted into the arena
  std::uint64_t deopts = 0;        // runtime side exits to the interpreter
  std::uint64_t bailouts = 0;      // functions that stayed interpreted
};

// Where a native PC inside the code arena came from: the compiled function
// and the bytecode instruction its code was emitted for (code spliced from
// a callee resolves to the caller's kCall). fn == -1 outside compiled code.
struct JitLocation {
  int fn = -1;
  std::size_t pc = 0;
};

// Status codes native code returns to the runner (and between compiled
// frames). Values are fixed: they are baked into emitted code. Helpers
// return 0 for "continue in native code".
enum : std::uint32_t {
  kJitFrameReturned = 1,  // callee frame returned to a compiled caller
  kJitEntryReturned = 2,  // the entry frame returned; result in JitCtx::ret_bits
  kJitDeopt = 3,          // interpreter must resume at frames[nframes-1]
  kJitException = 4,      // a helper captured an exception; runner rethrows
};

// The view of VM state native code works through. One instance lives on the
// runner's C++ stack per entry (so host-call reentry nests naturally); the
// pointer travels in a callee-saved register. Helpers sync the authoritative
// VM fields from this struct before doing interpreter-equivalent work and
// sync back after. Standard-layout: offsets are baked into emitted code.
struct JitCtx {
  VM* vm = nullptr;
  Value* stack = nullptr;
  Value* globals = nullptr;
  void* frames = nullptr;  // VM::Frame*
  std::uint64_t nframes = 0;
  std::uint64_t sp = 0;
  std::int64_t fuel = 0;
  std::uint64_t retired = 0;
  std::uint64_t entry_frames = 0;
  std::uint64_t ret_bits = 0;  // entry frame's return value
};

// Per-VM compiled code. Built once at load time by the VM constructor when
// VmOptions::dispatch resolves to kJit; immutable afterwards (the stats
// deopt counter aside).
class Jit {
 public:
  // True when this build can emit and run native code (x86-64 + mmap +
  // GRAFTLAB_JIT=ON). Everything else makes Compile() return null.
  static bool Available();

  // Verifies and compiles `vm`'s program per vm's VmOptions (jit_* fields).
  // Returns null — leaving the VM on the interpreter — when unavailable,
  // when verification fails, or when nothing compiled.
  static std::unique_ptr<Jit> Compile(VM& vm);

  // The order functions are compiled in: functions containing opcode pairs
  // hot in `pair_profile` first (PR 3's fusion telemetry, reused to aim the
  // arena at the hot path), then by static back-edge count, then by index.
  // Exposed for tests and tools.
  static std::vector<int> CompilationOrder(
      const Program& program,
      const std::vector<std::pair<std::string, std::uint64_t>>& pair_profile);

  ~Jit();
  Jit(const Jit&) = delete;
  Jit& operator=(const Jit&) = delete;

  bool compiled(int fn_index) const {
    return fn_index >= 0 && static_cast<std::size_t>(fn_index) < compiled_.size() &&
           compiled_[static_cast<std::size_t>(fn_index)];
  }

  // Runs the compiled body of `fn_index` (which must be compiled) on the
  // VM's current top frame, from pc 0. Returns one of the status codes
  // above; `ctx` must already mirror the VM.
  std::uint32_t Enter(JitCtx& ctx, int fn_index) const;

  // Maps a native PC (a profiler sample, a fault address) back to bytecode.
  // Safe from a signal handler: no allocation, no locks.
  JitLocation Resolve(const void* native_pc) const;

  const JitStats& stats() const { return stats_; }
  void CountDeopt() { ++stats_.deopts; }

 private:
  Jit() = default;

  // Out-of-line work compiled code calls into (SysV: ctx in rdi, operands in
  // rsi/rdx). Results travel in rax:rdx — status 0 means continue natively.
  struct HelperResult {
    std::uint64_t status;
    std::uint64_t value;
  };
  static HelperResult HelpNewStruct(JitCtx* ctx, std::uint64_t struct_idx);
  static HelperResult HelpNewArray(JitCtx* ctx, std::uint64_t elem, std::uint64_t length);
  static HelperResult HelpCallHost(JitCtx* ctx, std::uint64_t import_idx);
  static std::uint64_t HelpPushFrame(JitCtx* ctx, std::uint64_t fn_idx);

  struct Impl;

  // Per compiled function, in arena order: its native extent and the
  // native-offset -> bytecode-pc table the compiler recorded (ascending).
  struct UnitMap {
    std::uintptr_t start;
    std::size_t size;
    int fn;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pcs;
  };
  std::vector<UnitMap> units_;
  std::vector<bool> compiled_;
  // Per-function native entry (or the shared deopt trampoline). kCall sites
  // load through this table, so compilation order never matters.
  std::vector<const void*> entries_;
  std::uint8_t* arena_ = nullptr;
  std::size_t arena_size_ = 0;
  JitStats stats_;
};

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_JIT_H_
