// The Minnow virtual machine: a bytecode interpreter with a garbage-collected
// heap, host-call bridge, and fuel-based preemption.
//
// This is the paper's "Java" technology: verified bytecode executed by an
// in-kernel interpreter. Every array access is bounds-checked, every
// reference dereference null-checked, division and shift inputs validated —
// the VM is the safety boundary, so nothing the bytecode does can corrupt
// the host. Fuel gives the kernel the preemption guarantee of §4: each
// instruction costs one unit, and exhaustion raises a Trap the kernel
// catches like any other extension fault.
//
// The hot loop is built once (vm_dispatch.inc) and compiled into two
// dispatchers sharing every opcode body: a token-threaded computed-goto loop
// (GCC/Clang, behind the GRAFTLAB_THREADED_DISPATCH CMake option) and a
// portable switch loop. Which one runs is chosen per VM via
// VmOptions::dispatch, so a single binary can differentially test and
// benchmark both. Frames and the operand stack live in one envs::Arena
// allocation made at construction — calls never touch the allocator.
//
// DispatchMode::kJit is the paper's "runtime code generation" future-work
// variant: the same verified Program compiled to native code at load time
// (jit.h), with this interpreter as its deopt target.

#ifndef GRAFTLAB_SRC_MINNOW_VM_H_
#define GRAFTLAB_SRC_MINNOW_VM_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/envs/arena.h"
#include "src/minnow/bytecode.h"
#include "src/minnow/heap.h"

namespace minnow {

class VM;
class Jit;
struct JitStats;

// One activation record: the function, its resume pc, and where its locals
// start in the operand stack.
struct Frame {
  const FunctionCode* fn;
  std::size_t pc;
  std::size_t base;  // locals start in ExecState::stack
};

// The VM's execution state, in one place. The interpreter loops and native
// code (jit.h) both work on this struct in place — native code holds its
// address in a register and reads and writes the fields at fixed offsets —
// so entering or leaving compiled code copies nothing. Standard-layout:
// the offsets are baked into emitted code.
struct ExecState {
  VM* vm = nullptr;
  Value* stack = nullptr;    // VmOptions::stack_slots entries
  Value* globals = nullptr;  // one per Program global
  Frame* frames = nullptr;
  std::uint64_t nframes = 0;
  std::uint64_t sp = 0;  // first free stack slot
  std::int64_t fuel = -1;
  std::uint64_t retired = 0;
  // Per entry, set by the runner: a frame push at or past this count trips
  // the call-depth limit (min(entry frames + max_call_depth, capacity)).
  std::uint64_t frame_limit = 0;
};

// A kernel function exposed to extension code. Receives the argument slots;
// must return a Value (ignored for void imports).
using HostFn = std::function<Value(VM&, std::span<const Value>)>;

// How the interpreter's inner loop dispatches opcodes. kDefault resolves to
// kThreaded when the build supports computed goto, else kSwitch; asking for
// kThreaded in a switch-only build silently falls back (the two loops are
// semantically identical — that equivalence is what tests/
// minnow_dispatch_fuzz_test.cc enforces). kJit additionally compiles verified
// functions to native code at load time (jit.h); anything the JIT cannot or
// chooses not to handle deoptimizes back to the interpreter, and builds
// without JIT support (non-x86-64, GRAFTLAB_JIT=OFF) fall back the same way
// kThreaded does.
enum class DispatchMode {
  kDefault,
  kSwitch,
  kThreaded,
  kJit,
};

struct VmOptions {
  std::size_t stack_slots = 16 * 1024;   // operand + locals, all frames
  std::size_t heap_limit = 64u << 20;    // extension memory cap
  std::int64_t fuel = -1;                // instructions allowed; -1 = unlimited
  std::size_t max_call_depth = 256;
  DispatchMode dispatch = DispatchMode::kDefault;
  bool profile_opcodes = false;  // count retired opcodes and adjacent pairs
  // Run elide.h's check-elision pass at load time: accesses whose safety
  // checks the abstract interpreter proves dead execute as unchecked opcode
  // variants. A certified program refuses Call before RunInit and host-side
  // SetGlobal — both would invalidate the proof's global invariants.
  bool elide_checks = false;
  // --- kJit tuning (ignored by the interpreter dispatchers) ---
  // Functions longer than this stay interpreted (compile-time bound).
  std::size_t jit_max_fn_insns = 16384;
  // Total native-code budget; functions are compiled in index order, and
  // one that no longer fits stays interpreted.
  std::size_t jit_arena_max = 8u << 20;
  // When set, opcodes the filter rejects are compiled as unconditional deopt
  // exits instead of native templates. Exists to force the deopt machinery in
  // tests; production leaves it empty.
  std::function<bool(Op)> jit_compile_filter;
};

class VM : public Heap::RootProvider {
 public:
  explicit VM(Program program, const VmOptions& options = VmOptions{});
  ~VM() override;  // out of line: jit.h stays a vm.cc implementation detail
  // Native code and the heap hold pointers into this object.
  VM(const VM&) = delete;
  VM& operator=(const VM&) = delete;

  // Binds a host import by name. Every import must be bound before Run/Call;
  // unbound imports trap on first use.
  void BindHost(const std::string& name, HostFn fn);

  // Runs the synthesized @init function (global initializers). Call once
  // after binding hosts.
  void RunInit();

  // Calls a function by name. Throws Trap on runtime faults and
  // std::invalid_argument for unknown names / arity mismatches.
  Value Call(const std::string& name, std::span<const Value> args) {
    return CallIndex(FunctionIndex(name), args);
  }
  Value Call(const std::string& name, std::initializer_list<Value> args) {
    return Call(name, std::span<const Value>(args.begin(), args.size()));
  }
  // The same call on an index FunctionIndex resolved once: hosts resolve
  // their entry points at load so hot calls skip Call's name scan.
  Value CallIndex(int fn_index, std::span<const Value> args);
  // Throws std::invalid_argument for unknown names.
  int FunctionIndex(const std::string& name) const;

  // --- fuel / preemption ---
  void SetFuel(std::int64_t fuel) { st_.fuel = fuel; }
  std::int64_t fuel() const { return st_.fuel; }

  // --- host-side heap helpers ---
  Object* NewByteArray(std::span<const std::uint8_t> data);
  Object* NewIntArray(std::span<const std::int64_t> data);
  Object* NewU32Array(std::size_t length);

  // Pins keep host-held objects alive across collections.
  void Pin(Object* object) { pinned_.push_back(object); }
  void UnpinAll() { pinned_.clear(); }

  Heap& heap() { return heap_; }
  const Program& program() const { return program_; }

  // Reads a global by name (host-side inspection, e.g. in tests), or by the
  // index GlobalIndex resolved once (throws std::invalid_argument for
  // unknown names).
  Value GetGlobal(const std::string& name) const { return GetGlobal(GlobalIndex(name)); }
  Value GetGlobal(int index) const { return globals_.at(static_cast<std::size_t>(index)); }
  int GlobalIndex(const std::string& name) const;
  void SetGlobal(const std::string& name, Value value);

  // Heap::RootProvider: globals (precise) + stack (conservative) + pins.
  void EnumerateRoots(Heap& heap) override;

  // Statistics.
  std::uint64_t instructions_retired() const { return st_.retired; }
  // The execution state (stack depth, frame count, ledgers), read-only:
  // after a call returns or traps it is back at the caller's.
  const ExecState& exec_state() const { return st_; }

  // True when this build carries the computed-goto loop.
  static bool ThreadedDispatchAvailable();
  // True when this build can compile bytecode to native code (jit.h).
  static bool JitDispatchAvailable();
  // The dispatcher this VM actually runs (kDefault already resolved; kJit
  // only when native code was actually built).
  DispatchMode dispatch() const {
    if (jit_ != nullptr) {
      return DispatchMode::kJit;
    }
    return threaded_ ? DispatchMode::kThreaded : DispatchMode::kSwitch;
  }
  // Compilation/deopt counters; null unless dispatch() == kJit.
  const JitStats* jit_stats() const;
  // The compiled code (Jit::Resolve maps its PCs to bytecode); null unless
  // dispatch() == kJit.
  const Jit* jit() const { return jit_.get(); }

  // --- opcode profiling (VmOptions::profile_opcodes) ---
  bool profiling() const { return op_counts_ != nullptr; }
  // Retired-count per opcode name, descending. Empty unless profiling.
  std::vector<std::pair<std::string, std::uint64_t>> OpcodeCounts() const;
  // Adjacent-pair counts ("load.local>add.i"), descending — the data the
  // superinstruction fusion set is chosen from. Empty unless profiling.
  std::vector<std::pair<std::string, std::uint64_t>> OpcodePairCounts(std::size_t top_n = 16) const;

 private:
  friend class Jit;  // the JIT compiles against — and deopts into — VM state

  // CallIndex's refusals (range, arity, RunInit), off its fast path.
  [[noreturn, gnu::cold, gnu::noinline]] void RefuseCall(int fn_index, std::size_t nargs) const;
  // Pushes the arguments and runs the entry: natively when compiled (the
  // native prologue pushes the frame), else in the interpreter.
  Value Execute(int fn_index, std::span<const Value> args);
  // Interprets the entry, after pushing `callee`'s frame when non-null;
  // unwinds to the entry state on a trap.
  Value Interpret(const FunctionCode* callee, std::size_t entry_sp, std::size_t entry_frames);
  // Every native return but a plain one: a captured exception, a failed
  // frame check, or a deopt the interpreter finishes on the frame state
  // native code reconstructed.
  [[gnu::noinline]] Value FinishJit(int fn_index, std::uint64_t status, std::size_t entry_sp,
                                    std::size_t entry_frames);
  Value RunSwitch(std::size_t entry_frames);
  Value RunThreaded(std::size_t entry_frames);
  // Moves the top num_params stack slots into a fresh callee frame.
  void PushFrame(const FunctionCode& fn, std::size_t entry_frames);
  void MaybeCollect(std::size_t incoming_bytes);

  Program program_;
  VmOptions options_;
  Heap heap_;
  envs::Arena arena_;  // backs the stack, the frames, and the profile tables
  std::size_t stack_slots_ = 0;
  std::size_t frame_capacity_ = 0;
  std::vector<HostFn> hosts_;  // by import index
  std::vector<Value> globals_;  // storage behind st_.globals; never resized
  std::vector<Object*> pinned_;
  ExecState st_;
  bool init_ran_ = false;
  bool threaded_ = false;
  // Native code (null unless kJit compiled something) and the exception a
  // JIT helper captured for the runner to rethrow — C++ exceptions must
  // never unwind through native frames.
  std::unique_ptr<Jit> jit_;
  std::exception_ptr jit_pending_;
  // Profile tables (arena-backed, null unless profiling): op_counts_[op] and
  // pair_counts_[prev * kNumOps + op], with row kNumOps as the no-predecessor
  // sentinel.
  std::uint64_t* op_counts_ = nullptr;
  std::uint64_t* pair_counts_ = nullptr;
};

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_VM_H_
