#include "src/grafts/minnow_grafts.h"

#include <cmath>
#include <cstring>

#include "src/core/technology.h"
#include "src/minnow/compiler.h"
#include "src/minnow/optimizer.h"
#include "src/minnow/verifier.h"

namespace grafts {

namespace {

using minnow::HostDecl;
using minnow::Type;
using minnow::TypeKind;
using minnow::Value;

// RFC 1321 round constants, computed as the RFC defines them:
// T[i] = floor(2^32 * |sin(i + 1)|).
std::int64_t SineConstant(int i) {
  return static_cast<std::int64_t>(std::floor(4294967296.0 * std::fabs(std::sin(i + 1.0))));
}

constexpr int kShiftTable[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

constexpr char kEvictionSource[] = R"minnow(
// VM page-eviction graft (paper section 3.1), in Minnow.
struct Node { page: int; next: Node; }
var head: Node;

fn hot_add(page: int) {
  var n: Node = new Node();
  n.page = page;
  n.next = head;
  head = n;
}

fn hot_remove(page: int) {
  var prev: Node = null;
  var cur: Node = head;
  while (cur != null) {
    if (cur.page == page) {
      if (prev == null) { head = cur.next; } else { prev.next = cur.next; }
      return;
    }
    prev = cur;
    cur = cur.next;
  }
}

fn hot_clear() { head = null; }

fn is_hot(page: int) -> bool {
  var cur: Node = head;
  while (cur != null) {
    if (cur.page == page) { return true; }
    cur = cur.next;
  }
  return false;
}

// Returns the LRU-chain position of the chosen victim. Position 0 is the
// kernel's candidate; the chain beyond it is read via the lru_page upcall.
fn choose(candidate_page: int) -> int {
  if (!is_hot(candidate_page)) { return 0; }
  var pos: int = 1;
  while (true) {
    var page: int = lru_page(pos);
    if (page < 0) { return 0; }
    if (!is_hot(page)) { return pos; }
    pos = pos + 1;
  }
  return 0;
}
)minnow";

constexpr char kMd5Source[] = R"minnow(
// RFC 1321 MD5 (paper section 3.2), in Minnow.
var state: u32[] = new u32[4];
var xbuf: u32[] = new u32[16];
var buffer: byte[] = new byte[64];
var digest: byte[] = new byte[16];
var kt: u32[] = new u32[64];
var ks: int[] = new int[64];
var buffered: int = 0;
var total: int = 0;

fn set_const(i: int, t: int, s: int) {
  kt[i] = u32(t);
  ks[i] = s;
}

fn md5_init() {
  state[0] = u32(0x67452301);
  state[1] = u32(0xefcdab89);
  state[2] = u32(0x98badcfe);
  state[3] = u32(0x10325476);
  buffered = 0;
  total = 0;
}

fn rotl(v: u32, n: int) -> u32 {
  if (n == 0) { return v; }
  return (v << n) | (v >> (32 - n));
}

fn word_index(i: int) -> int {
  if (i < 16) { return i; }
  if (i < 32) { return (5 * i + 1) % 16; }
  if (i < 48) { return (3 * i + 5) % 16; }
  return (7 * i) % 16;
}

fn rounds() {
  var a: u32 = state[0];
  var b: u32 = state[1];
  var c: u32 = state[2];
  var d: u32 = state[3];
  for (var i: int = 0; i < 64; i = i + 1) {
    var f: u32 = u32(0);
    if (i < 16) {
      f = (b & c) | (~b & d);
    } else if (i < 32) {
      f = (d & b) | (~d & c);
    } else if (i < 48) {
      f = b ^ c ^ d;
    } else {
      f = c ^ (b | ~d);
    }
    var temp: u32 = d;
    d = c;
    c = b;
    var sum: u32 = a + f + xbuf[word_index(i)] + kt[i];
    b = b + rotl(sum, ks[i]);
    a = temp;
  }
  state[0] = state[0] + a;
  state[1] = state[1] + b;
  state[2] = state[2] + c;
  state[3] = state[3] + d;
}

fn decode_buffer() {
  for (var k: int = 0; k < 16; k = k + 1) {
    xbuf[k] = u32(buffer[k * 4])
        | (u32(buffer[k * 4 + 1]) << 8)
        | (u32(buffer[k * 4 + 2]) << 16)
        | (u32(buffer[k * 4 + 3]) << 24);
  }
}

fn md5_update(data: byte[], len: int) {
  total = total + len;
  var off: int = 0;
  if (buffered > 0) {
    while (buffered < 64 && off < len) {
      buffer[buffered] = data[off];
      buffered = buffered + 1;
      off = off + 1;
    }
    if (buffered == 64) {
      decode_buffer();
      rounds();
      buffered = 0;
    }
  }
  while (off + 64 <= len) {
    for (var k: int = 0; k < 16; k = k + 1) {
      xbuf[k] = u32(data[off + k * 4])
          | (u32(data[off + k * 4 + 1]) << 8)
          | (u32(data[off + k * 4 + 2]) << 16)
          | (u32(data[off + k * 4 + 3]) << 24);
    }
    rounds();
    off = off + 64;
  }
  while (off < len) {
    buffer[buffered] = data[off];
    buffered = buffered + 1;
    off = off + 1;
  }
}

fn md5_final() {
  var bits: int = total * 8;
  buffer[buffered] = 128;
  buffered = buffered + 1;
  if (buffered > 56) {
    while (buffered < 64) { buffer[buffered] = 0; buffered = buffered + 1; }
    decode_buffer();
    rounds();
    buffered = 0;
  }
  while (buffered < 56) { buffer[buffered] = 0; buffered = buffered + 1; }
  for (var i: int = 0; i < 8; i = i + 1) {
    buffer[56 + i] = (bits >> (8 * i)) & 255;
  }
  decode_buffer();
  rounds();
  for (var i: int = 0; i < 4; i = i + 1) {
    var s: u32 = state[i];
    digest[i * 4] = int(s) & 255;
    digest[i * 4 + 1] = int(s >> 8) & 255;
    digest[i * 4 + 2] = int(s >> 16) & 255;
    digest[i * 4 + 3] = int(s >> 24) & 255;
  }
  buffered = 0;
}
)minnow";

constexpr char kLogicalDiskSource[] = R"minnow(
// Log-structured block mapping (paper section 3.3), in Minnow.
var map: int[];
var rev: int[];
var segliv: int[];
var next_phys: int = 0;
var nblocks: int = 0;
var segsize: int = 16;

fn ld_init(n: int, seg: int) {
  nblocks = n;
  segsize = seg;
  map = new int[n];
  rev = new int[n];
  segliv = new int[n / seg];
  for (var i: int = 0; i < n; i = i + 1) {
    map[i] = 0 - 1;
    rev[i] = 0 - 1;
  }
  next_phys = 0;
}

fn ld_write(lb: int) -> int {
  if (next_phys >= nblocks) { return 0 - 1; }
  var old: int = map[lb];
  if (old >= 0) {
    rev[old] = 0 - 1;
    segliv[old / segsize] = segliv[old / segsize] - 1;
  }
  var p: int = next_phys;
  next_phys = p + 1;
  map[lb] = p;
  rev[p] = lb;
  segliv[p / segsize] = segliv[p / segsize] + 1;
  return p;
}

fn ld_translate(lb: int) -> int { return map[lb]; }
)minnow";

minnow::Program Prepare(minnow::Program program, const MinnowConfig& config) {
  if (config.fuse) {
    minnow::FuseSuperinstructions(program);
    minnow::VerifyProgram(program);
  }
  return program;
}

minnow::VmOptions GraftVmOptions(const MinnowConfig& config) {
  minnow::VmOptions options;
  options.heap_limit = 96u << 20;  // the full-scale ldisk map needs ~12MB
  options.dispatch = config.dispatch;
  options.profile_opcodes = config.profile_opcodes;
  options.elide_checks = config.elide;
  if (config.jit) {
    options.dispatch = minnow::DispatchMode::kJit;
  }
  return options;
}

}  // namespace

const char* MinnowTechnologyName(minnow::DispatchMode dispatch) {
  return core::TechnologyName(dispatch == minnow::DispatchMode::kJit
                                  ? core::Technology::kJavaTranslated
                                  : core::Technology::kJava);
}

const char* MinnowEvictionSource() { return kEvictionSource; }
const char* MinnowMd5Source() { return kMd5Source; }
const char* MinnowLogicalDiskSource() { return kLogicalDiskSource; }

// --- MinnowEvictionGraft ---

MinnowEvictionGraft::MinnowEvictionGraft(MinnowConfig config)
    : technology_(MinnowTechnologyName(GraftVmOptions(config).dispatch)) {
  HostDecl lru_page;
  lru_page.name = "lru_page";
  lru_page.params = {Type::Int()};
  lru_page.ret = Type::Int();

  vm_ = std::make_unique<minnow::VM>(
      Prepare(minnow::Compile(kEvictionSource, {lru_page}), config), GraftVmOptions(config));
  vm_->BindHost("lru_page", [this](minnow::VM&, std::span<const Value> args) {
    const std::int64_t pos = args[0].AsInt();
    // Amortized O(1): continue from the cached cursor when the graft scans
    // forward; otherwise rewalk from the head.
    if (walk_cursor_ == nullptr || pos <= walk_pos_) {
      walk_cursor_ = walk_head_;
      walk_pos_ = 0;
    }
    while (walk_cursor_ != nullptr && walk_pos_ < pos) {
      walk_cursor_ = walk_cursor_->lru_next;
      ++walk_pos_;
    }
    if (walk_cursor_ == nullptr) {
      return Value::Int(-1);
    }
    return Value::Int(static_cast<std::int64_t>(walk_cursor_->page));
  });
  vm_->RunInit();
  choose_ = vm_->FunctionIndex("choose");
  hot_add_ = vm_->FunctionIndex("hot_add");
  hot_remove_ = vm_->FunctionIndex("hot_remove");
  hot_clear_ = vm_->FunctionIndex("hot_clear");
}

vmsim::Frame* MinnowEvictionGraft::ChooseVictim(vmsim::Frame* lru_head) {
  walk_head_ = lru_head;
  walk_cursor_ = lru_head;
  walk_pos_ = 0;

  const Value candidate = Value::Int(static_cast<std::int64_t>(lru_head->page));
  const std::int64_t pos = vm_->CallIndex(choose_, std::span<const Value>(&candidate, 1)).AsInt();

  vmsim::Frame* frame = lru_head;
  for (std::int64_t i = 0; i < pos && frame != nullptr; ++i) {
    frame = frame->lru_next;
  }
  return frame != nullptr ? frame : lru_head;
}

void MinnowEvictionGraft::HotListAdd(vmsim::PageId page) {
  const Value arg = Value::Int(static_cast<std::int64_t>(page));
  vm_->CallIndex(hot_add_, std::span<const Value>(&arg, 1));
}

void MinnowEvictionGraft::HotListRemove(vmsim::PageId page) {
  const Value arg = Value::Int(static_cast<std::int64_t>(page));
  vm_->CallIndex(hot_remove_, std::span<const Value>(&arg, 1));
}

void MinnowEvictionGraft::HotListClear() { vm_->CallIndex(hot_clear_, {}); }

// --- MinnowMd5Graft ---

MinnowMd5Graft::MinnowMd5Graft(MinnowConfig config)
    : technology_(MinnowTechnologyName(GraftVmOptions(config).dispatch)) {
  vm_ = std::make_unique<minnow::VM>(
      Prepare(minnow::Compile(kMd5Source), config), GraftVmOptions(config));
  vm_->RunInit();
  // Load the round-constant tables, then initialize the chaining state.
  for (int i = 0; i < 64; ++i) {
    const Value args[3] = {Value::Int(i), Value::Int(SineConstant(i)),
                           Value::Int(kShiftTable[i])};
    vm_->Call("set_const", args);
  }
  md5_init_ = vm_->FunctionIndex("md5_init");
  md5_update_ = vm_->FunctionIndex("md5_update");
  md5_final_ = vm_->FunctionIndex("md5_final");
  digest_ = vm_->GlobalIndex("digest");
  vm_->CallIndex(md5_init_, {});
}

void MinnowMd5Graft::EnsureBuffer(std::size_t len) {
  if (buffer_ != nullptr && buffer_->length() >= len) {
    return;
  }
  vm_->UnpinAll();
  buffer_ = vm_->heap().NewArray(TypeKind::kByte, len < 4096 ? 4096 : len);
  vm_->Pin(buffer_);
}

void MinnowMd5Graft::Consume(const std::uint8_t* data, std::size_t len) {
  if (len == 0) {
    return;
  }
  EnsureBuffer(len);
  std::memcpy(buffer_->bytes().data(), data, len);
  const Value args[2] = {Value::Ref(buffer_), Value::Int(static_cast<std::int64_t>(len))};
  vm_->CallIndex(md5_update_, args);
}

md5::Digest MinnowMd5Graft::Finish() {
  vm_->CallIndex(md5_final_, {});
  md5::Digest digest{};
  auto* array = reinterpret_cast<minnow::Object*>(vm_->GetGlobal(digest_).bits);
  std::memcpy(digest.data(), array->bytes().data(), digest.size());
  vm_->CallIndex(md5_init_, {});
  return digest;
}

// --- MinnowLogicalDiskGraft ---

MinnowLogicalDiskGraft::MinnowLogicalDiskGraft(const ldisk::Geometry& geometry,
                                               MinnowConfig config)
    : technology_(MinnowTechnologyName(GraftVmOptions(config).dispatch)) {
  vm_ = std::make_unique<minnow::VM>(
      Prepare(minnow::Compile(kLogicalDiskSource), config), GraftVmOptions(config));
  vm_->RunInit();
  const Value args[2] = {Value::Int(static_cast<std::int64_t>(geometry.num_blocks)),
                         Value::Int(static_cast<std::int64_t>(geometry.blocks_per_segment))};
  vm_->Call("ld_init", args);
  ld_write_ = vm_->FunctionIndex("ld_write");
  ld_translate_ = vm_->FunctionIndex("ld_translate");
}

ldisk::BlockId MinnowLogicalDiskGraft::OnWrite(ldisk::BlockId logical) {
  const Value arg = Value::Int(static_cast<std::int64_t>(logical));
  const std::int64_t physical = vm_->CallIndex(ld_write_, std::span<const Value>(&arg, 1)).AsInt();
  if (physical < 0) {
    throw ldisk::DiskFull();
  }
  return static_cast<ldisk::BlockId>(physical);
}

ldisk::BlockId MinnowLogicalDiskGraft::Translate(ldisk::BlockId logical) {
  const Value arg = Value::Int(static_cast<std::int64_t>(logical));
  const std::int64_t physical = vm_->CallIndex(ld_translate_, std::span<const Value>(&arg, 1)).AsInt();
  return physical < 0 ? ldisk::kUnmapped : static_cast<ldisk::BlockId>(physical);
}

}  // namespace grafts
