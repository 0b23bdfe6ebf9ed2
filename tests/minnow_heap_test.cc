// Direct tests for the Minnow heap and collector (the VM-level GC behavior
// is covered in minnow_vm_test.cc; these exercise the heap API itself).

#include <gtest/gtest.h>

#include <malloc.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/minnow/heap.h"

namespace {

using minnow::Heap;
using minnow::Object;
using minnow::StructLayout;
using minnow::TypeKind;
using minnow::Value;

StructLayout PairLayout() {
  StructLayout layout;
  layout.name = "Pair";
  layout.num_fields = 2;
  layout.field_is_ref = {true, true};
  return layout;
}

// Root provider holding an explicit root list.
class ListRoots : public Heap::RootProvider {
 public:
  std::vector<Object*> roots;
  void EnumerateRoots(Heap& heap) override {
    for (Object* object : roots) {
      heap.Mark(object);
    }
  }
};

TEST(Heap, ArraysOfEachElementKind) {
  Heap heap;
  Object* ints = heap.NewArray(TypeKind::kInt, 10);
  Object* words = heap.NewArray(TypeKind::kU32, 10);
  Object* bytes = heap.NewArray(TypeKind::kByte, 10);
  Object* bools = heap.NewArray(TypeKind::kBool, 10);
  EXPECT_EQ(ints->length(), 10u);
  EXPECT_EQ(words->length(), 10u);
  EXPECT_EQ(bytes->length(), 10u);
  EXPECT_EQ(bools->length(), 10u);
  EXPECT_EQ(ints->longs().size(), 10u);
  EXPECT_EQ(words->words().size(), 10u);
  EXPECT_THROW(heap.NewArray(TypeKind::kStruct, 4), minnow::Trap);
}

// Flat layout: each object is one allocation, a 16-byte header followed
// by its payload at the fixed offset Object::kPayload.
struct PayloadView {
  void* data;
  std::size_t slot_bytes;
};

PayloadView TypedPayload(Object* object) {
  if (object->kind() == Object::Kind::kStruct) {
    return {object->fields().data(), sizeof(Value)};
  }
  switch (object->elem()) {
    case TypeKind::kInt: return {object->longs().data(), sizeof(std::int64_t)};
    case TypeKind::kU32: return {object->words().data(), sizeof(std::uint32_t)};
    default: return {object->bytes().data(), 1};
  }
}

// The payload sits at kPayload inside the object's own allocation, starts
// zeroed, and heap_bytes() charges exactly header + payload.
void ExpectFlatPayload(Heap& heap, Object* object, std::size_t length, std::size_t slot_bytes) {
  const std::size_t before = heap.allocated_bytes() - object->heap_bytes();
  EXPECT_EQ(object->length(), length);
  const PayloadView payload = TypedPayload(object);
  EXPECT_EQ(payload.slot_bytes, slot_bytes);
  auto* base = reinterpret_cast<std::uint8_t*>(object);
  EXPECT_EQ(static_cast<std::uint8_t*>(payload.data), base + Object::kPayload);
  const std::size_t payload_bytes = length * slot_bytes;
  EXPECT_EQ(object->heap_bytes(), Object::kPayload + payload_bytes);
  EXPECT_EQ(heap.allocated_bytes(), before + Object::kPayload + payload_bytes);
  // The allocation that starts at the header holds the whole payload (and
  // under ASan the byte walk below would report anything outside it).
  EXPECT_GE(malloc_usable_size(object), Object::kPayload + payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    ASSERT_EQ(base[Object::kPayload + i], 0u) << "payload byte " << i;
  }
}

TEST(HeapLayout, ArraysOfEachKindAreOneZeroedAllocation) {
  const std::pair<TypeKind, std::size_t> kinds[] = {
      {TypeKind::kInt, 8}, {TypeKind::kU32, 4}, {TypeKind::kByte, 1}, {TypeKind::kBool, 1}};
  for (const auto& [elem, slot_bytes] : kinds) {
    Heap heap;
    for (const std::size_t length : {0, 1, 7, 64, 4096}) {
      Object* array = heap.NewArray(elem, length);
      EXPECT_EQ(array->kind(), Object::Kind::kArray);
      EXPECT_EQ(array->elem(), elem);
      ExpectFlatPayload(heap, array, length, slot_bytes);
    }
  }
}

TEST(HeapLayout, StructsAreOneZeroedAllocation) {
  Heap heap;
  for (const int num_fields : {0, 1, 2, 9}) {
    StructLayout layout;
    layout.num_fields = num_fields;
    layout.field_is_ref.assign(static_cast<std::size_t>(num_fields), false);
    Object* object = heap.NewStruct(layout, /*struct_id=*/num_fields + 3);
    EXPECT_EQ(object->kind(), Object::Kind::kStruct);
    EXPECT_EQ(object->elem(), TypeKind::kVoid);
    EXPECT_EQ(object->struct_id(), num_fields + 3);
    ExpectFlatPayload(heap, object, static_cast<std::size_t>(num_fields), sizeof(Value));
  }
}

TEST(HeapLayout, CollectionRechargesHeaderPlusPayload) {
  Heap heap;
  ListRoots roots;
  Object* keep = heap.NewArray(TypeKind::kU32, 10);
  heap.NewArray(TypeKind::kInt, 100);  // garbage
  roots.roots.push_back(keep);
  heap.Collect(roots);
  EXPECT_EQ(heap.allocated_bytes(), Object::kPayload + 10 * sizeof(std::uint32_t));
}

TEST(HeapLayout, LengthBeyondTheHeaderTraps) {
  Heap heap(/*limit_bytes=*/std::size_t{1} << 40);
  const std::size_t too_long = std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
  for (const TypeKind elem : {TypeKind::kInt, TypeKind::kU32, TypeKind::kByte, TypeKind::kBool}) {
    try {
      heap.NewArray(elem, too_long);
      ADD_FAILURE() << "length 2^32 fit a uint32 header";
    } catch (const minnow::Trap& trap) {
      EXPECT_NE(std::string(trap.what()).find("does not fit the object header"), std::string::npos)
          << trap.what();
    }
  }
  EXPECT_EQ(heap.num_objects(), 0u);
  EXPECT_EQ(heap.allocated_bytes(), 0u);
}

TEST(HeapLayout, LimitIsCheckedBeforeAllocating) {
  // The largest header length: the limit refuses it before any memory is
  // committed, and the refused object is not charged.
  Heap heap(/*limit_bytes=*/1u << 20);
  Object* small = heap.NewArray(TypeKind::kByte, 100);
  EXPECT_THROW(heap.NewArray(TypeKind::kInt, std::numeric_limits<std::uint32_t>::max()),
               minnow::Trap);
  EXPECT_EQ(heap.num_objects(), 1u);
  EXPECT_EQ(heap.allocated_bytes(), small->heap_bytes());
}

TEST(Heap, IsObjectDistinguishesLiveFromWild) {
  Heap heap;
  Object* object = heap.NewArray(TypeKind::kInt, 4);
  EXPECT_TRUE(heap.IsObject(object));
  int local = 0;
  EXPECT_FALSE(heap.IsObject(&local));
  EXPECT_FALSE(heap.IsObject(nullptr));
}

TEST(Heap, CollectFreesUnreachable) {
  Heap heap;
  const StructLayout layout = PairLayout();
  ListRoots roots;

  Object* keep = heap.NewStruct(layout, 0);
  for (int i = 0; i < 100; ++i) {
    heap.NewArray(TypeKind::kInt, 100);  // garbage
  }
  roots.roots.push_back(keep);
  const std::size_t before = heap.num_objects();
  heap.Collect(roots);
  EXPECT_EQ(heap.num_objects(), 1u);
  EXPECT_LT(heap.num_objects(), before);
  EXPECT_TRUE(heap.IsObject(keep));
}

TEST(Heap, MarkTracesStructFields) {
  Heap heap;
  const StructLayout layout = PairLayout();
  ListRoots roots;

  // keep -> a -> b chain through fields; c unreachable.
  Object* keep = heap.NewStruct(layout, 0);
  Object* a = heap.NewStruct(layout, 0);
  Object* b = heap.NewArray(TypeKind::kByte, 64);
  Object* c = heap.NewArray(TypeKind::kByte, 64);
  keep->fields()[0] = Value::Ref(a);
  a->fields()[1] = Value::Ref(b);

  roots.roots.push_back(keep);
  heap.Collect(roots);
  EXPECT_TRUE(heap.IsObject(keep));
  EXPECT_TRUE(heap.IsObject(a));
  EXPECT_TRUE(heap.IsObject(b));
  EXPECT_FALSE(heap.IsObject(c));
}

TEST(Heap, CyclesAreCollectedWhenUnrooted) {
  Heap heap;
  const StructLayout layout = PairLayout();
  ListRoots roots;

  Object* x = heap.NewStruct(layout, 0);
  Object* y = heap.NewStruct(layout, 0);
  x->fields()[0] = Value::Ref(y);
  y->fields()[0] = Value::Ref(x);  // cycle

  heap.Collect(roots);  // no roots: both must go (mark-sweep handles cycles)
  EXPECT_EQ(heap.num_objects(), 0u);
}

TEST(Heap, CyclesSurviveWhenRooted) {
  Heap heap;
  const StructLayout layout = PairLayout();
  ListRoots roots;

  Object* x = heap.NewStruct(layout, 0);
  Object* y = heap.NewStruct(layout, 0);
  x->fields()[0] = Value::Ref(y);
  y->fields()[0] = Value::Ref(x);
  roots.roots.push_back(x);
  heap.Collect(roots);
  EXPECT_EQ(heap.num_objects(), 2u);
}

TEST(Heap, LimitEnforcedEvenAcrossCollections) {
  Heap heap(/*limit_bytes=*/64 * 1024);
  ListRoots roots;
  std::vector<Object*> live;
  EXPECT_THROW(
      {
        for (int i = 0; i < 1000; ++i) {
          Object* object = heap.NewArray(TypeKind::kInt, 128);
          roots.roots.push_back(object);  // everything stays live
          if (heap.ShouldCollect(0)) {
            heap.Collect(roots);
          }
        }
      },
      minnow::Trap);
}

TEST(HeapProperty, RandomGraphCollectionMatchesReachabilityOracle) {
  // Build a random object graph, pick random roots, collect, and compare the
  // survivor set with a straightforward reachability computation.
  std::mt19937 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    Heap heap;
    const StructLayout layout = PairLayout();
    std::vector<Object*> nodes;
    for (int i = 0; i < 60; ++i) {
      nodes.push_back(heap.NewStruct(layout, 0));
    }
    for (Object* node : nodes) {
      if (rng() % 3 != 0) {
        node->fields()[0] = Value::Ref(nodes[rng() % nodes.size()]);
      }
      if (rng() % 3 != 0) {
        node->fields()[1] = Value::Ref(nodes[rng() % nodes.size()]);
      }
    }
    ListRoots roots;
    for (Object* node : nodes) {
      if (rng() % 8 == 0) {
        roots.roots.push_back(node);
      }
    }

    // Oracle: BFS from roots.
    std::vector<Object*> frontier = roots.roots;
    std::vector<Object*> reachable;
    auto seen = [&](Object* o) {
      for (Object* r : reachable) {
        if (r == o) {
          return true;
        }
      }
      return false;
    };
    while (!frontier.empty()) {
      Object* node = frontier.back();
      frontier.pop_back();
      if (seen(node)) {
        continue;
      }
      reachable.push_back(node);
      for (const Value& field : node->fields()) {
        auto* child = reinterpret_cast<Object*>(field.bits);
        if (child != nullptr && !seen(child)) {
          frontier.push_back(child);
        }
      }
    }

    heap.Collect(roots);
    ASSERT_EQ(heap.num_objects(), reachable.size()) << "trial " << trial;
    for (Object* node : reachable) {
      ASSERT_TRUE(heap.IsObject(node)) << "trial " << trial;
    }
  }
}

}  // namespace
