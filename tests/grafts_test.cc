// Cross-technology graft conformance: every technology must implement the
// same *behavior* for all three paper grafts — identical eviction decisions,
// bit-identical MD5 digests, identical logical-disk mappings — differing
// only in cost. These tests are the reproduction's semantic backbone.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "src/core/graft.h"
#include "src/envs/safe_env.h"
#include "src/core/graft_host.h"
#include "src/core/technology.h"
#include "src/grafts/factory.h"
#include "src/grafts/minnow_grafts.h"
#include "src/grafts/tclet_grafts.h"
#include "src/md5/md5.h"
#include "src/minnow/diag.h"
#include "src/minnow/jit.h"
#include "src/vmsim/frame.h"

namespace {

using core::Technology;

// --- Eviction graft conformance ---

class EvictionConformance : public ::testing::TestWithParam<Technology> {};

TEST_P(EvictionConformance, AcceptsColdCandidateImmediately) {
  auto graft = grafts::CreateEvictionGraft(GetParam());
  std::vector<vmsim::Frame> frames(4);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = 100 + i;
    queue.PushMru(&frames[i]);
  }
  graft->HotListAdd(999);  // unrelated hot page
  EXPECT_EQ(graft->ChooseVictim(queue.head()), &frames[0]);
}

TEST_P(EvictionConformance, SkipsHotCandidates) {
  auto graft = grafts::CreateEvictionGraft(GetParam());
  std::vector<vmsim::Frame> frames(5);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = 100 + i;
    queue.PushMru(&frames[i]);
  }
  graft->HotListAdd(100);
  graft->HotListAdd(101);
  // 100 and 101 are hot; first acceptable victim is frame 2 (page 102).
  EXPECT_EQ(graft->ChooseVictim(queue.head()), &frames[2]);
}

TEST_P(EvictionConformance, FallsBackWhenEverythingIsHot) {
  auto graft = grafts::CreateEvictionGraft(GetParam());
  std::vector<vmsim::Frame> frames(3);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = 200 + i;
    queue.PushMru(&frames[i]);
    graft->HotListAdd(200 + i);
  }
  EXPECT_EQ(graft->ChooseVictim(queue.head()), queue.head());
}

TEST_P(EvictionConformance, RemoveAndClearUpdateDecisions) {
  auto graft = grafts::CreateEvictionGraft(GetParam());
  std::vector<vmsim::Frame> frames(3);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = 300 + i;
    queue.PushMru(&frames[i]);
  }
  graft->HotListAdd(300);
  EXPECT_EQ(graft->ChooseVictim(queue.head()), &frames[1]);
  graft->HotListRemove(300);
  EXPECT_EQ(graft->ChooseVictim(queue.head()), &frames[0]);

  graft->HotListAdd(300);
  graft->HotListAdd(301);
  EXPECT_EQ(graft->ChooseVictim(queue.head()), &frames[2]);
  graft->HotListClear();
  EXPECT_EQ(graft->ChooseVictim(queue.head()), &frames[0]);
}

TEST_P(EvictionConformance, AgreesWithReferenceOnRandomWorkload) {
  // Differential against the C graft across many random hot sets.
  auto reference = grafts::CreateEvictionGraft(Technology::kC);
  auto graft = grafts::CreateEvictionGraft(GetParam());

  std::vector<vmsim::Frame> frames(16);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = i;
    queue.PushMru(&frames[i]);
  }

  std::mt19937 rng(GetParam() == Technology::kTcl ? 1 : 2);
  const int trials = GetParam() == Technology::kTcl ? 10 : 60;
  for (int trial = 0; trial < trials; ++trial) {
    reference->HotListClear();
    graft->HotListClear();
    for (std::size_t p = 0; p < frames.size(); ++p) {
      if (rng() % 2 == 0) {
        reference->HotListAdd(p);
        graft->HotListAdd(p);
      }
    }
    ASSERT_EQ(graft->ChooseVictim(queue.head()), reference->ChooseVictim(queue.head()))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTechnologies, EvictionConformance,
                         ::testing::ValuesIn(core::kAllTechnologies),
                         [](const ::testing::TestParamInfo<Technology>& info) {
                           std::string name = core::TechnologyName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- MD5 graft conformance ---

class Md5Conformance : public ::testing::TestWithParam<Technology> {};

TEST_P(Md5Conformance, RfcVectors) {
  auto graft = grafts::CreateMd5Graft(GetParam());

  auto digest_of = [&](const std::string& text) {
    graft->Consume(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    return md5::ToHex(graft->Finish());
  };

  EXPECT_EQ(digest_of(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(digest_of("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(digest_of("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
}

TEST_P(Md5Conformance, MatchesNativeOnRandomChunkedInput) {
  auto graft = grafts::CreateMd5Graft(GetParam());
  const std::size_t total = GetParam() == Technology::kTcl ? 600 : 50000;

  std::mt19937 rng(9);
  std::vector<std::uint8_t> data(total);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }

  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng() % 977, data.size() - off);
    graft->Consume(data.data() + off, n);
    off += n;
  }
  EXPECT_EQ(graft->Finish(), md5::Sum(data));
}

TEST_P(Md5Conformance, ReusableAfterFinish) {
  auto graft = grafts::CreateMd5Graft(GetParam());
  const std::string once = "first message";
  graft->Consume(reinterpret_cast<const std::uint8_t*>(once.data()), once.size());
  (void)graft->Finish();

  const std::string abc = "abc";
  graft->Consume(reinterpret_cast<const std::uint8_t*>(abc.data()), abc.size());
  EXPECT_EQ(md5::ToHex(graft->Finish()), "900150983cd24fb0d6963f7d28e17f72");
}

INSTANTIATE_TEST_SUITE_P(AllTechnologies, Md5Conformance,
                         ::testing::ValuesIn(core::kAllTechnologies),
                         [](const ::testing::TestParamInfo<Technology>& info) {
                           std::string name = core::TechnologyName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Logical-disk graft conformance ---

class LdiskConformance : public ::testing::TestWithParam<Technology> {};

ldisk::Geometry SmallGeometry() {
  ldisk::Geometry geometry;
  geometry.num_blocks = 512;
  geometry.blocks_per_segment = 16;
  return geometry;
}

TEST_P(LdiskConformance, SequentialAllocationAndTranslation) {
  const auto geometry = SmallGeometry();
  auto graft = grafts::CreateLogicalDiskGraft(GetParam(), geometry);

  EXPECT_EQ(graft->Translate(5), ldisk::kUnmapped);
  EXPECT_EQ(graft->OnWrite(5), 0u);
  EXPECT_EQ(graft->OnWrite(9), 1u);
  EXPECT_EQ(graft->OnWrite(5), 2u);  // rewrite relocates
  EXPECT_EQ(graft->Translate(5), 2u);
  EXPECT_EQ(graft->Translate(9), 1u);
  EXPECT_EQ(graft->Translate(100), ldisk::kUnmapped);
}

TEST_P(LdiskConformance, ReplayValidatesAgainstOracle) {
  const auto geometry = SmallGeometry();
  auto graft = grafts::CreateLogicalDiskGraft(GetParam(), geometry);
  const std::uint64_t writes = GetParam() == Technology::kTcl ? 64 : geometry.num_blocks;
  const auto result = ldisk::ReplayWorkload(*graft, geometry, writes);
  EXPECT_TRUE(result.answers_correct);
  EXPECT_EQ(result.writes, writes);
}

TEST_P(LdiskConformance, ThrowsDiskFullAtEnd) {
  ldisk::Geometry geometry;
  geometry.num_blocks = 64;
  geometry.blocks_per_segment = 16;
  auto graft = grafts::CreateLogicalDiskGraft(GetParam(), geometry);
  for (std::uint64_t i = 0; i < geometry.num_blocks; ++i) {
    graft->OnWrite(i % 8);
  }
  EXPECT_THROW(graft->OnWrite(0), ldisk::DiskFull);
}

INSTANTIATE_TEST_SUITE_P(AllTechnologies, LdiskConformance,
                         ::testing::ValuesIn(core::kAllTechnologies),
                         [](const ::testing::TestParamInfo<Technology>& info) {
                           std::string name = core::TechnologyName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Integration: grafts attached to the kernel facade ---

TEST(GraftHostIntegration, EvictionGraftProtectsHotPagesEndToEnd) {
  core::GraftHostOptions options;
  options.page_frames = 8;
  core::GraftHost host(options);
  auto graft = grafts::CreateEvictionGraft(Technology::kC);
  host.AttachEvictionGraft(graft.get());

  // Fill the cache, mark three pages hot, then fault new pages in: hot pages
  // must survive, cold ones get evicted.
  for (vmsim::PageId p = 0; p < 8; ++p) {
    host.page_cache().Touch(p);
  }
  for (vmsim::PageId p = 0; p < 3; ++p) {
    graft->HotListAdd(p);
    host.page_cache().MarkHot(p);
  }
  for (vmsim::PageId p = 100; p < 105; ++p) {
    host.page_cache().Touch(p);
  }
  EXPECT_TRUE(host.page_cache().IsResident(0));
  EXPECT_TRUE(host.page_cache().IsResident(1));
  EXPECT_TRUE(host.page_cache().IsResident(2));
  EXPECT_EQ(host.page_cache().stats().hot_evictions, 0u);
  EXPECT_GT(host.page_cache().stats().graft_overrides, 0u);
}

TEST(GraftHostIntegration, StreamGraftInChainFingerprints) {
  core::GraftHost host;
  streamk::Chain chain;
  auto filter = std::make_unique<core::GraftFilter>(grafts::CreateMd5Graft(Technology::kSfi));
  auto* filter_raw = filter.get();
  chain.Append(std::move(filter));

  std::vector<std::uint8_t> data(10000, 0x42);
  streamk::NullSink sink;
  EXPECT_TRUE(host.RunStream(data, 1024, chain, sink));
  EXPECT_EQ(sink.count(), data.size());
  ASSERT_TRUE(filter_raw->have_digest());
  EXPECT_EQ(filter_raw->digest(), md5::Sum(data));
}

TEST(GraftHostIntegration, LogicalDiskGraftThroughHost) {
  core::GraftHostOptions options;
  options.disk_geometry = SmallGeometry();
  core::GraftHost host(options);
  auto graft = grafts::CreateLogicalDiskGraft(Technology::kModula3, options.disk_geometry);
  const auto result = host.RunLogicalDisk(*graft, options.disk_geometry.num_blocks);
  EXPECT_FALSE(result.faulted);
  EXPECT_TRUE(result.replay.answers_correct);
}

TEST(GraftHostIntegration, DiskFullIsADeviceFaultNotAnExtensionFault) {
  core::GraftHostOptions options;
  options.disk_geometry = SmallGeometry();
  core::GraftHost host(options);
  auto graft = grafts::CreateLogicalDiskGraft(Technology::kC, options.disk_geometry);
  const auto result =
      host.RunLogicalDisk(*graft, options.disk_geometry.num_blocks * 2);  // overflows
  EXPECT_TRUE(result.faulted);
  EXPECT_EQ(result.fault_class, core::GraftHost::FaultClass::kDiskFull);
  EXPECT_GT(host.disk_faults(), 0u);
  // The device filling up is not the extension's misbehavior.
  EXPECT_EQ(host.contained_faults(), 0u);
}

// Every technology's ldisk graft must surface DiskFull as the same
// classified device fault: the host never blames the graft for the device.
class LdiskDiskFullClassification : public ::testing::TestWithParam<Technology> {};

TEST_P(LdiskDiskFullClassification, EveryTechnologyReportsDiskFull) {
  core::GraftHostOptions options;
  options.disk_geometry.num_blocks = 64;
  options.disk_geometry.blocks_per_segment = 16;
  core::GraftHost host(options);
  auto graft = grafts::CreateLogicalDiskGraft(GetParam(), options.disk_geometry);
  const auto result =
      host.RunLogicalDisk(*graft, options.disk_geometry.num_blocks * 4);  // overflows
  ASSERT_TRUE(result.faulted);
  EXPECT_EQ(result.fault_class, core::GraftHost::FaultClass::kDiskFull);
  EXPECT_GT(host.disk_faults(), 0u);
  EXPECT_EQ(host.contained_faults(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTechnologies, LdiskDiskFullClassification,
                         ::testing::ValuesIn(core::kAllTechnologies),
                         [](const ::testing::TestParamInfo<Technology>& info) {
                           std::string name = core::TechnologyName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(GraftHostIntegration, WatchdogPreemptsSpinningCompiledGraft) {
  core::GraftHost host;
  envs::SafeLangEnv env(&host.preempt_token());
  const bool completed = host.RunWithBudget(std::chrono::microseconds(3000), [&] {
    for (;;) {
      env.Poll();  // a compiled safe-language graft's back-edge poll
    }
  });
  EXPECT_FALSE(completed);
  EXPECT_GT(host.contained_faults(), 0u);
}

TEST(GraftHostIntegration, BudgetedWorkCompletesWhenFast) {
  core::GraftHost host;
  bool ran = false;
  EXPECT_TRUE(host.RunWithBudget(std::chrono::seconds(10), [&] { ran = true; }));
  EXPECT_TRUE(ran);
}

// --- Java/translated: the same bytecode, compiled by the JIT ---

// Hashes `data` through a fresh md5 graft of `technology` on a budget of
// `fuel` units. Returns the fuel left, or nullopt when the budget ran out.
std::optional<std::int64_t> Md5FuelLeft(Technology technology,
                                        const std::vector<std::uint8_t>& data,
                                        std::int64_t fuel) {
  auto graft = grafts::CreateMd5Graft(technology);
  graft->SetFuel(fuel);
  try {
    graft->Consume(data.data(), data.size());
    (void)graft->Finish();
  } catch (const minnow::Trap&) {
    return std::nullopt;
  }
  return graft->FuelRemaining();
}

TEST(JavaTranslated, FuelLedgerMatchesInterpreter) {
  std::vector<std::uint8_t> data(3000);
  std::mt19937 rng(12);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }
  constexpr std::int64_t kAmple = std::int64_t{1} << 40;
  const auto java_left = Md5FuelLeft(Technology::kJava, data, kAmple);
  ASSERT_TRUE(java_left.has_value());
  EXPECT_EQ(Md5FuelLeft(Technology::kJavaTranslated, data, kAmple), java_left);

  // The exact budget the interpreter needed completes on both engines with
  // nothing left; one unit less runs out on both.
  const std::int64_t used = kAmple - *java_left;
  for (const Technology technology : {Technology::kJava, Technology::kJavaTranslated}) {
    EXPECT_EQ(Md5FuelLeft(technology, data, used), std::optional<std::int64_t>(0))
        << core::TechnologyName(technology);
    EXPECT_EQ(Md5FuelLeft(technology, data, used - 1), std::nullopt)
        << core::TechnologyName(technology);
  }
}

TEST(JavaTranslated, Md5GraftRunsCompiledCode) {
  auto graft = grafts::CreateMd5Graft(Technology::kJavaTranslated);
  EXPECT_STREQ(graft->technology(), "Java/translated");
  std::uint64_t compiled_fns = 0;
  for (const auto& [name, count] : graft->ExecutionProfile()) {
    if (name == "jit_compiled_fns") {
      compiled_fns = count;
    }
  }
  if (minnow::Jit::Available()) {
    EXPECT_GT(compiled_fns, 0u);
  } else {
    EXPECT_EQ(compiled_fns, 0u);  // silent interpreter fallback
  }
}

// --- Technology registry ---

TEST(Technology, NamesRoundTrip) {
  for (const Technology technology : core::kAllTechnologies) {
    const auto parsed = core::ParseTechnology(core::TechnologyName(technology));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, technology);
  }
  EXPECT_FALSE(core::ParseTechnology("COBOL").has_value());
}

}  // namespace
