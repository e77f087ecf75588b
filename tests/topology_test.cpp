#include <gtest/gtest.h>

#include "gcs/topology.hpp"
#include "util/assert.hpp"

namespace dynvote {
namespace {

TEST(Topology, StartsFullyConnected) {
  Topology t(8);
  EXPECT_EQ(t.component_count(), 1u);
  EXPECT_EQ(t.component(0), ProcessSet::full(8));
}

TEST(Topology, SplitMovesSubsetToNewComponent) {
  Topology t(8);
  t.split(0, ProcessSet(8, {5, 6, 7}));
  EXPECT_EQ(t.component_count(), 2u);
  EXPECT_EQ(t.component(0), ProcessSet(8, {0, 1, 2, 3, 4}));
  EXPECT_EQ(t.component(1), ProcessSet(8, {5, 6, 7}));
  EXPECT_EQ(t.component_of(6), 1u);
  EXPECT_EQ(t.component_of(0), 0u);
}

TEST(Topology, MergeReunitesComponents) {
  Topology t(8);
  t.split(0, ProcessSet(8, {5, 6, 7}));
  t.split(0, ProcessSet(8, {0, 1}));
  EXPECT_EQ(t.component_count(), 3u);
  t.merge(0, 2);
  EXPECT_EQ(t.component_count(), 2u);
  EXPECT_EQ(t.component(0), ProcessSet(8, {0, 1, 2, 3, 4}));
  t.merge(0, 1);
  EXPECT_EQ(t.component(0), ProcessSet::full(8));
}

TEST(Topology, SplitValidatesArguments) {
  Topology t(4);
  EXPECT_THROW(t.split(0, ProcessSet(4)), PreconditionViolation);  // empty
  EXPECT_THROW(t.split(0, ProcessSet::full(4)), PreconditionViolation);
  EXPECT_THROW(t.split(1, ProcessSet(4, {0})), PreconditionViolation);
  t.split(0, ProcessSet(4, {0}));
  // {0} now lives in component 1; cannot split it out of component 0.
  EXPECT_THROW(t.split(0, ProcessSet(4, {0})), PreconditionViolation);
}

TEST(Topology, MergeValidatesArguments) {
  Topology t(4);
  EXPECT_THROW(t.merge(0, 0), PreconditionViolation);
  EXPECT_THROW(t.merge(0, 1), PreconditionViolation);
}

}  // namespace
}  // namespace dynvote
