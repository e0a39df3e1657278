#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstring>
#include <fstream>
#include <set>
#include <string>

#include "src/common/rng.h"
#include "src/lite/lite_cluster.h"
#include "src/mem/page_table.h"
#include "src/mem/phys_mem.h"

namespace lt {
namespace {

constexpr size_t kPage = 4096;

// Minor page faults taken so far by the calling thread.
long ThreadMinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_minflt;
}

// Resident set size of this process in kB (VmRSS in /proc/self/status).
long VmRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stol(line.substr(6));
    }
  }
  return -1;
}

bool AllBytesAre(const uint8_t* p, size_t len, uint8_t v) {
  for (size_t i = 0; i < len; ++i) {
    if (p[i] != v) {
      return false;
    }
  }
  return true;
}

TEST(PhysMemTest, AllocatesPageAligned) {
  PhysMem mem(1 << 20, kPage);
  auto a = mem.AllocContiguous(100);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a % kPage, 0u);
}

TEST(PhysMemTest, DistinctAllocationsDoNotOverlap) {
  PhysMem mem(1 << 20, kPage);
  auto a = mem.AllocContiguous(3 * kPage);
  auto b = mem.AllocContiguous(2 * kPage);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*a + 3 * kPage <= *b || *b + 2 * kPage <= *a);
}

TEST(PhysMemTest, DataRoundTrip) {
  PhysMem mem(1 << 20, kPage);
  auto a = mem.AllocContiguous(kPage);
  std::memcpy(mem.Data(*a, 5), "hello", 5);
  EXPECT_EQ(std::memcmp(mem.Data(*a, 5), "hello", 5), 0);
}

TEST(PhysMemTest, FreeAndReuse) {
  PhysMem mem(16 * kPage, kPage);
  auto a = mem.AllocContiguous(8 * kPage);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(mem.Free(*a).ok());
  auto b = mem.AllocContiguous(16 * kPage);  // Only fits if coalesced back.
  EXPECT_TRUE(b.ok());
}

TEST(PhysMemTest, ExhaustionReported) {
  PhysMem mem(4 * kPage, kPage);
  auto a = mem.AllocContiguous(4 * kPage);
  ASSERT_TRUE(a.ok());
  auto b = mem.AllocContiguous(kPage);
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
}

TEST(PhysMemTest, FragmentationBlocksLargeContiguous) {
  PhysMem mem(8 * kPage, kPage);
  std::vector<PhysAddr> single_pages;
  for (int i = 0; i < 8; ++i) {
    single_pages.push_back(*mem.AllocContiguous(kPage));
  }
  // Free every other page: 4 pages free but max run is 1.
  for (int i = 0; i < 8; i += 2) {
    ASSERT_TRUE(mem.Free(single_pages[i]).ok());
  }
  EXPECT_EQ(mem.free_bytes(), 4 * kPage);
  EXPECT_FALSE(mem.AllocContiguous(2 * kPage).ok());
  EXPECT_TRUE(mem.AllocContiguous(kPage).ok());
}

TEST(PhysMemTest, DoubleFreeFails) {
  PhysMem mem(8 * kPage, kPage);
  auto a = mem.AllocContiguous(kPage);
  EXPECT_TRUE(mem.Free(*a).ok());
  EXPECT_FALSE(mem.Free(*a).ok());
}

TEST(PhysMemTest, FreeUnknownAddressFails) {
  PhysMem mem(8 * kPage, kPage);
  EXPECT_FALSE(mem.Free(3 * kPage).ok());
  EXPECT_FALSE(mem.Free(123).ok());  // Unaligned.
}

TEST(PhysMemTest, ZeroByteAllocationRejected) {
  PhysMem mem(8 * kPage, kPage);
  EXPECT_FALSE(mem.AllocContiguous(0).ok());
}

TEST(PhysMemTest, AccountingConsistent) {
  PhysMem mem(16 * kPage, kPage);
  EXPECT_EQ(mem.free_bytes(), 16 * kPage);
  auto a = mem.AllocContiguous(5 * kPage);
  EXPECT_EQ(mem.allocated_bytes(), 5 * kPage);
  EXPECT_EQ(mem.free_bytes(), 11 * kPage);
  ASSERT_TRUE(mem.Free(*a).ok());
  EXPECT_EQ(mem.allocated_bytes(), 0u);
}

// Property-style randomized alloc/free: invariants hold across 500 ops.
TEST(PhysMemTest, RandomAllocFreeInvariants) {
  PhysMem mem(64 * kPage, kPage);
  Rng rng(2024);
  std::vector<std::pair<PhysAddr, uint64_t>> live;
  for (int i = 0; i < 500; ++i) {
    if (live.empty() || rng.NextBounded(2) == 0) {
      uint64_t pages = 1 + rng.NextBounded(6);
      auto a = mem.AllocContiguous(pages * kPage);
      if (a.ok()) {
        // New range must not overlap any live range.
        for (const auto& [addr, len] : live) {
          EXPECT_TRUE(*a + pages * kPage <= addr || addr + len <= *a);
        }
        live.emplace_back(*a, pages * kPage);
      }
    } else {
      size_t idx = rng.NextBounded(live.size());
      EXPECT_TRUE(mem.Free(live[idx].first).ok());
      live.erase(live.begin() + static_cast<long>(idx));
    }
    EXPECT_EQ(mem.allocated_bytes() + mem.free_bytes(), 64 * kPage);
  }
}

// ------------------------------------------------- lazily faulted backing

// A pool far larger than anything the tests touch: constructing it must not
// fault its pages in (an eagerly zeroed 1 GB pool takes ~262k faults).
constexpr uint64_t kLazyPool = 1ull << 30;
constexpr long kFaultBudget = 256;

TEST(PhysMemLazyTest, ConstructingAGigabytePoolFaultsAlmostNothing) {
  const long before = ThreadMinorFaults();
  PhysMem mem(kLazyPool, kPage);
  EXPECT_LT(ThreadMinorFaults() - before, kFaultBudget);
  EXPECT_EQ(mem.free_bytes(), kLazyPool);
}

TEST(PhysMemLazyTest, FreshRangeReadsZeroThroughTheLastPage) {
  const long before = ThreadMinorFaults();
  PhysMem mem(kLazyPool, kPage);
  auto head = mem.AllocContiguous(kLazyPool - kPage);
  auto last = mem.AllocContiguous(kPage);
  ASSERT_TRUE(head.ok());
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, kLazyPool - kPage);  // The pool's final page.
  EXPECT_TRUE(AllBytesAre(mem.Data(*head, kPage), kPage, 0));
  EXPECT_TRUE(AllBytesAre(mem.Data(*head + kLazyPool / 2, kPage), kPage, 0));
  EXPECT_TRUE(AllBytesAre(mem.Data(*last, kPage), kPage, 0));
  // Reading untouched bytes needs no eager zeroing of the pool.
  EXPECT_LT(ThreadMinorFaults() - before, kFaultBudget);
}

TEST(PhysMemLazyTest, FreeDoesNotScrub) {
  const long before = ThreadMinorFaults();
  PhysMem mem(kLazyPool, kPage);
  ASSERT_TRUE(mem.AllocContiguous(kLazyPool - 4 * kPage).ok());
  // A write near the end of the pool that straddles two page boundaries.
  auto a = mem.AllocContiguous(3 * kPage);
  ASSERT_TRUE(a.ok());
  const PhysAddr at = *a + kPage / 2;
  std::memset(mem.Data(at, 2 * kPage), 0xA5, 2 * kPage);
  ASSERT_TRUE(mem.Free(*a).ok());
  auto b = mem.AllocContiguous(3 * kPage);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(*b, *a);
  EXPECT_TRUE(AllBytesAre(mem.Data(at, 2 * kPage), 2 * kPage, 0xA5));
  EXPECT_TRUE(AllBytesAre(mem.Data(*b, kPage / 2), kPage / 2, 0));
  EXPECT_LT(ThreadMinorFaults() - before, kFaultBudget);
}

TEST(PhysMemLazyTest, FourNodeClusterStaysSmall) {
  // Default SimParams give each node a 96 MB pool; RSS must follow what the
  // cluster touches, not 4 x 96 MB.
  const long before_kb = VmRssKb();
  ASSERT_GT(before_kb, 0);
  lite::LiteCluster cluster(4);
  EXPECT_LT(VmRssKb() - before_kb, 64L << 10);
}

// ------------------------------------------------------------ PageTable

TEST(PageTableTest, AllocAndTranslate) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  auto va = pt.AllocVirt(3 * kPage);
  ASSERT_TRUE(va.ok());
  auto pa = pt.Translate(*va + 100);
  ASSERT_TRUE(pa.ok());
  EXPECT_EQ(*pa % kPage, 100u);
}

TEST(PageTableTest, UnmappedTranslateFails) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  EXPECT_FALSE(pt.Translate(0xdead0000).ok());
}

TEST(PageTableTest, PagesArePhysicallyScattered) {
  // The native-RDMA property the MTT cache models: virtually-contiguous
  // pages need not be physically contiguous once the allocator has churned.
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  auto hole_maker = pt.AllocVirt(kPage);
  auto va = pt.AllocVirt(kPage);
  ASSERT_TRUE(pt.FreeVirt(*hole_maker).ok());
  auto big = pt.AllocVirt(4 * kPage);
  ASSERT_TRUE(big.ok());
  auto ranges = pt.TranslateRange(0, *big, 4 * kPage);
  ASSERT_TRUE(ranges.ok());
  EXPECT_GE(ranges->size(), 2u);  // At least one physical discontinuity.
  (void)va;
}

TEST(PageTableTest, TranslateRangeCoversAllBytes) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  auto va = pt.AllocVirt(5 * kPage);
  auto ranges = pt.TranslateRange(0, *va + 123, 3 * kPage);
  ASSERT_TRUE(ranges.ok());
  uint64_t total = 0;
  for (const auto& r : *ranges) {
    total += r.size;
  }
  EXPECT_EQ(total, 3 * kPage);
}

TEST(PageTableTest, TranslateRangePastEndFails) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  auto va = pt.AllocVirt(2 * kPage);
  EXPECT_FALSE(pt.TranslateRange(0, *va, 3 * kPage).ok());
}

TEST(PageTableTest, FreeVirtReleasesPhysical) {
  PhysMem mem(8 * kPage, kPage);
  PageTable pt(&mem);
  auto va = pt.AllocVirt(6 * kPage);
  ASSERT_TRUE(va.ok());
  uint64_t before = mem.allocated_bytes();
  ASSERT_TRUE(pt.FreeVirt(*va).ok());
  EXPECT_LT(mem.allocated_bytes(), before);
  EXPECT_FALSE(pt.Translate(*va).ok());
}

TEST(PageTableTest, GuardPageBetweenAllocations) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  auto a = pt.AllocVirt(kPage);
  auto b = pt.AllocVirt(kPage);
  EXPECT_GE(*b - *a, 2 * kPage);  // A hole separates allocations.
}

TEST(PageTableTest, PagesSpannedMath) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  EXPECT_EQ(pt.PagesSpanned(0, 1), 1u);
  EXPECT_EQ(pt.PagesSpanned(0, kPage), 1u);
  EXPECT_EQ(pt.PagesSpanned(kPage - 1, 2), 2u);
  EXPECT_EQ(pt.PagesSpanned(0, kPage + 1), 2u);
  EXPECT_EQ(pt.PagesSpanned(100, 0), 0u);
}

TEST(PageTableTest, AllocationFailureRollsBack) {
  PhysMem mem(4 * kPage, kPage);
  PageTable pt(&mem);
  auto ok = pt.AllocVirt(2 * kPage);
  ASSERT_TRUE(ok.ok());
  auto too_big = pt.AllocVirt(3 * kPage);
  EXPECT_FALSE(too_big.ok());
  // The failed allocation must not leak partial pages.
  EXPECT_EQ(mem.allocated_bytes(), 2 * kPage);
}

// Parameterized: write/read through translation at many sizes.
class PageTableIoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageTableIoTest, RoundTripThroughTranslation) {
  PhysMem mem(4 << 20, kPage);
  PageTable pt(&mem);
  uint64_t size = GetParam();
  auto va = pt.AllocVirt(size);
  ASSERT_TRUE(va.ok());
  std::vector<uint8_t> pattern(size);
  for (size_t i = 0; i < size; ++i) {
    pattern[i] = static_cast<uint8_t>(i * 13 + 7);
  }
  auto ranges = pt.TranslateRange(0, *va, size);
  ASSERT_TRUE(ranges.ok());
  uint64_t off = 0;
  for (const auto& r : *ranges) {
    std::memcpy(mem.Data(r.addr, r.size), pattern.data() + off, r.size);
    off += r.size;
  }
  off = 0;
  for (const auto& r : *ranges) {
    EXPECT_EQ(std::memcmp(mem.Data(r.addr, r.size), pattern.data() + off, r.size), 0);
    off += r.size;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageTableIoTest,
                         ::testing::Values(1, 64, kPage - 1, kPage, kPage + 1, 3 * kPage,
                                           64 * 1024));

}  // namespace
}  // namespace lt
