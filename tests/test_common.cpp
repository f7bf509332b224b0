// Unit tests for zipper::common — RNG determinism, streaming statistics,
// checksums, units, the growable ring buffer.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <random>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace zc = zipper::common;

TEST(Rng, SameSeedSameStream) {
  zc::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  zc::Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  zc::Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  zc::Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  zc::Xoshiro256 r(123);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, BelowStaysBelow) {
  zc::Xoshiro256 r(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Stats, EmptyIsZero) {
  zc::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, SingleValue) {
  zc::RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(Stats, MatchesClosedForm) {
  // Var of 1..n is (n^2-1)/12.
  zc::RunningStats s;
  const int n = 1001;
  for (int i = 1; i <= n; ++i) s.add(i);
  EXPECT_NEAR(s.mean(), (n + 1) / 2.0, 1e-9);
  EXPECT_NEAR(s.variance(), (static_cast<double>(n) * n - 1) / 12.0, 1e-6);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), static_cast<double>(n));
}

TEST(Stats, MergeEqualsSequential) {
  zc::Xoshiro256 r(5);
  zc::RunningStats whole, left, right;
  for (int i = 0; i < 5000; ++i) {
    const double x = r.uniform(-10, 10);
    whole.add(x);
    (i < 2500 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(Stats, MergeWithEmpty) {
  zc::RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Stats, PercentileEndpoints) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(zc::percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(zc::percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(zc::percentile(v, 50), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(zc::percentile(v, 25), 2.5);
}

TEST(Checksum, EmptyIsOffset) {
  EXPECT_EQ(zc::fnv1a({}), zc::kFnvOffset);
}

TEST(Checksum, KnownVector) {
  // FNV-1a of "a" = 0xaf63dc4c8601ec8c.
  const std::byte b{'a'};
  EXPECT_EQ(zc::fnv1a(std::span<const std::byte>(&b, 1)), 0xAF63DC4C8601EC8Cull);
}

TEST(Checksum, OrderSensitive) {
  std::array<std::byte, 2> ab{std::byte{'a'}, std::byte{'b'}};
  std::array<std::byte, 2> ba{std::byte{'b'}, std::byte{'a'}};
  EXPECT_NE(zc::fnv1a(ab), zc::fnv1a(ba));
}

TEST(Units, Sizes) {
  EXPECT_EQ(zc::KiB, 1024u);
  EXPECT_EQ(zc::MiB, 1024u * 1024u);
  EXPECT_EQ(zc::GiB, 1024ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(zc::bytes_per_ns(12.5e9), 12.5);
}

namespace {

/// Counts, per id, how often a value that was not moved from is destroyed.
struct Tracked {
  static inline std::vector<int> destroyed;
  int id;
  bool live = true;
  explicit Tracked(int i) : id(i) {}
  Tracked(Tracked&& o) noexcept : id(o.id), live(std::exchange(o.live, false)) {}
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (live) ++destroyed[static_cast<std::size_t>(id)];
  }
};

}  // namespace

TEST(RingBuffer, GrowsFromEmptyAcrossWraparoundDestroyingEachOnce) {
  constexpr int kItems = 40;
  Tracked::destroyed.assign(kItems, 0);
  std::vector<int> popped;
  {
    zc::RingBuffer<Tracked> r;
    EXPECT_EQ(r.capacity(), 0u);  // nothing allocated until the first push
    int next = 0;
    r.emplace_back(next++);
    EXPECT_EQ(r.capacity(), zc::RingBuffer<Tracked>::kFirstGrowth);
    // Keep the head moving so every growth copies a wrapped-around run:
    // push two, pop one, until the last ids are in.
    while (next < kItems) {
      r.emplace_back(next++);
      if (next < kItems) r.emplace_back(next++);
      popped.push_back(r.front().id);
      if (popped.size() % 2) {
        r.pop_front();
      } else {
        Tracked t = r.take_front();
        EXPECT_EQ(t.id, popped.back());
      }
      EXPECT_EQ(r.size(), static_cast<std::size_t>(next) - popped.size());
      EXPECT_LE(r.size(), r.capacity());
    }
    EXPECT_GT(r.capacity(), zc::RingBuffer<Tracked>::kFirstGrowth);
    // What is left is destroyed with the ring.
    EXPECT_EQ(r.front().id, static_cast<int>(popped.size()));
  }
  for (int i = 0; i < static_cast<int>(popped.size()); ++i) {
    EXPECT_EQ(popped[static_cast<std::size_t>(i)], i);  // FIFO
  }
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(Tracked::destroyed[static_cast<std::size_t>(i)], 1) << "id " << i;
  }
}
