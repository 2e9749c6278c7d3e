// Event trace recorder.
#include <gtest/gtest.h>

#include <sstream>

#include "radio/trace.hpp"

namespace dsn {
namespace {

using obs::FrType;
using obs::makeFrEvent;

TEST(TraceTest, DisabledByDefault) {
  Trace t;
  EXPECT_FALSE(t.enabled());
  t.record(makeFrEvent(FrType::kTransmit, 0, 1));
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.droppedEvents(), 0u);
}

TEST(TraceTest, RecordsUpToCapacity) {
  Trace t(3);
  for (std::uint32_t r = 0; r < 5; ++r)
    t.record(makeFrEvent(FrType::kDelivery, r, 1, 2, 0, 1));
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.droppedEvents(), 2u);
  EXPECT_EQ(t.events()[2].round, 2u);
}

TEST(TraceTest, CountOfFiltersByType) {
  Trace t(10);
  t.record(makeFrEvent(FrType::kTransmit, 0, 1));
  t.record(makeFrEvent(FrType::kCollision, 1, 2));
  t.record(makeFrEvent(FrType::kTransmit, 2, 3));
  EXPECT_EQ(t.countOf(FrType::kTransmit), 2u);
  EXPECT_EQ(t.countOf(FrType::kCollision), 1u);
  EXPECT_EQ(t.countOf(FrType::kNodeDeath), 0u);
}

TEST(TraceTest, OverflowAccountingStaysConsistent) {
  // Regression: filling a bounded trace far past capacity must keep
  // stored-event counts, droppedEvents() and countOf() mutually
  // consistent — dropped events are counted but never typed.
  constexpr std::size_t kCapacity = 8;
  constexpr std::uint32_t kTotal = 100;
  Trace t(kCapacity);
  for (std::uint32_t i = 0; i < kTotal; ++i) {
    const auto type = i % 2 == 0 ? FrType::kTransmit : FrType::kDelivery;
    t.record(makeFrEvent(type, i, i));
  }
  EXPECT_EQ(t.events().size(), kCapacity);
  EXPECT_EQ(t.droppedEvents(), kTotal - kCapacity);
  // Only stored events are visible to countOf; the two types alternate,
  // so the stored prefix splits evenly.
  EXPECT_EQ(t.countOf(FrType::kTransmit) + t.countOf(FrType::kDelivery),
            t.events().size());
  EXPECT_EQ(t.countOf(FrType::kTransmit), kCapacity / 2);
  EXPECT_EQ(t.countOf(FrType::kCollision), 0u);
  // Overflow never corrupts the stored prefix.
  for (std::size_t i = 0; i < kCapacity; ++i)
    EXPECT_EQ(t.events()[i].round, i);
}

TEST(TraceTest, JsonlOneValidObjectPerLine) {
  Trace t(4);
  t.record(makeFrEvent(FrType::kTransmit, 0, 1));
  t.record(makeFrEvent(FrType::kDelivery, 1, 2, 1, 0, 1));
  std::ostringstream os;
  t.writeJsonl(os);
  const std::string out = os.str();

  std::istringstream lines(out);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":"), std::string::npos);
    EXPECT_NE(line.find("\"round\":"), std::string::npos);
  }
  EXPECT_EQ(n, 2u);
  EXPECT_NE(out.find("\"transmit\""), std::string::npos);
  EXPECT_NE(out.find("\"receive\""), std::string::npos);
  EXPECT_NE(out.find("\"peer\":null"), std::string::npos);
  EXPECT_NE(out.find("\"peer\":1"), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"token\""), std::string::npos);
}

}  // namespace
}  // namespace dsn
