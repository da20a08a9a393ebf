// Unit tests for the backward-pass memory planner (autograd/arena.h):
// plan_buffers interval assignment (no aliasing of overlapping lifetimes,
// exact peak bytes on known graphs, determinism, validation) and the
// thread-local GradArena (slot reuse across passes, fallback when a slot is
// still referenced, steady state over real PreActResNet train steps).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "models/factory.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace bd::ag {
namespace {

bool overlaps(const BufferLifetime& a, const BufferLifetime& b) {
  return a.born <= b.dies && b.born <= a.dies;
}

/// The invariant the planner must uphold for any input: two lifetimes whose
/// [born, dies] intervals intersect never share a slot, and every slot is
/// at least as large as its largest occupant.
void check_plan_invariants(const std::vector<BufferLifetime>& lifetimes,
                           const BufferPlan& plan) {
  ASSERT_EQ(plan.slot.size(), lifetimes.size());
  for (std::size_t i = 0; i < lifetimes.size(); ++i) {
    ASSERT_GE(plan.slot[i], 0);
    ASSERT_LT(static_cast<std::size_t>(plan.slot[i]), plan.slot_numel.size());
    EXPECT_GE(plan.slot_numel[static_cast<std::size_t>(plan.slot[i])],
              lifetimes[i].numel);
    for (std::size_t j = i + 1; j < lifetimes.size(); ++j) {
      if (plan.slot[i] == plan.slot[j]) {
        EXPECT_FALSE(overlaps(lifetimes[i], lifetimes[j]))
            << "lifetimes " << i << " and " << j << " overlap in time but "
            << "share slot " << plan.slot[i];
      }
    }
  }
  std::int64_t total = 0;
  for (const std::int64_t n : plan.slot_numel) total += n;
  EXPECT_EQ(plan.peak_bytes,
            total * static_cast<std::int64_t>(sizeof(float)));
}

TEST(PlanBuffers, EmptyPlanIsEmpty) {
  const BufferPlan plan = plan_buffers({});
  EXPECT_TRUE(plan.slot.empty());
  EXPECT_TRUE(plan.slot_numel.empty());
  EXPECT_EQ(plan.peak_bytes, 0);
  EXPECT_EQ(plan.naive_bytes, 0);
}

TEST(PlanBuffers, DisjointLifetimesShareOneSlot) {
  // A chain a -> b -> c where each gradient dies as the next is born is the
  // common backward shape: one slot should carry all three.
  const std::vector<BufferLifetime> chain = {
      {100, 0, 1}, {80, 2, 3}, {60, 4, 5}};
  const BufferPlan plan = plan_buffers(chain);
  check_plan_invariants(chain, plan);
  EXPECT_EQ(plan.slot_numel.size(), 1u);
  EXPECT_EQ(plan.slot_numel[0], 100);
  EXPECT_EQ(plan.peak_bytes, 100 * static_cast<std::int64_t>(sizeof(float)));
  EXPECT_EQ(plan.naive_bytes,
            (100 + 80 + 60) * static_cast<std::int64_t>(sizeof(float)));
}

TEST(PlanBuffers, OverlappingLifetimesNeverAlias) {
  // Diamond: both branch gradients are live at once, so two slots minimum.
  const std::vector<BufferLifetime> diamond = {
      {50, 0, 3}, {50, 1, 2}, {50, 4, 5}};
  const BufferPlan plan = plan_buffers(diamond);
  check_plan_invariants(diamond, plan);
  EXPECT_NE(plan.slot[0], plan.slot[1]);
  EXPECT_EQ(plan.slot_numel.size(), 2u);
  EXPECT_EQ(plan.peak_bytes, 100 * static_cast<std::int64_t>(sizeof(float)));
}

TEST(PlanBuffers, KnownGraphPeakBytes) {
  // Hand-worked example. Lifetimes in born order with intervals:
  //   L0 [0,2] 64   L1 [1,1] 16   L2 [2,4] 64   L3 [3,3] 256   L4 [5,6] 8
  // Step-by-step best fit: L0 -> new slot A(64). L1 overlaps L0 -> new slot
  // B(16). L2 overlaps L0, fits B? no (16 < 64) -> grow largest free slot
  // B to 64. L3 overlaps L2; A free, too small -> grow A to 256. L4: all
  // free; best fit = smallest sufficient = slot A? A=256, B=64 -> B.
  // Final capacities: A=256, B=64 -> peak = 320 floats.
  const std::vector<BufferLifetime> lifetimes = {
      {64, 0, 2}, {16, 1, 1}, {64, 2, 4}, {256, 3, 3}, {8, 5, 6}};
  const BufferPlan plan = plan_buffers(lifetimes);
  check_plan_invariants(lifetimes, plan);
  EXPECT_EQ(plan.slot_numel.size(), 2u);
  EXPECT_EQ(plan.peak_bytes,
            (256 + 64) * static_cast<std::int64_t>(sizeof(float)));
  EXPECT_EQ(plan.naive_bytes,
            (64 + 16 + 64 + 256 + 8) * static_cast<std::int64_t>(sizeof(float)));
  EXPECT_LT(plan.peak_bytes, plan.naive_bytes);
}

TEST(PlanBuffers, UnsortedInputIsProcessedInBornOrder) {
  // Same lifetimes as the chain test but permuted: the plan must be
  // identical up to the permutation (stable sort by born, then index).
  const std::vector<BufferLifetime> permuted = {
      {60, 4, 5}, {100, 0, 1}, {80, 2, 3}};
  const BufferPlan plan = plan_buffers(permuted);
  check_plan_invariants(permuted, plan);
  EXPECT_EQ(plan.slot_numel.size(), 1u);
  EXPECT_EQ(plan.slot_numel[0], 100);
}

TEST(PlanBuffers, DeterministicAcrossCalls) {
  const std::vector<BufferLifetime> lifetimes = {
      {32, 0, 5}, {32, 1, 2}, {48, 2, 3}, {16, 3, 4}, {64, 4, 6}, {8, 6, 7}};
  const BufferPlan a = plan_buffers(lifetimes);
  const BufferPlan b = plan_buffers(lifetimes);
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_EQ(a.slot_numel, b.slot_numel);
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
  check_plan_invariants(lifetimes, a);
}

TEST(PlanBuffers, ValidationThrows) {
  EXPECT_THROW(plan_buffers({{10, 3, 2}}), std::invalid_argument);
  EXPECT_THROW(plan_buffers({{-1, 0, 1}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GradArena
// ---------------------------------------------------------------------------

TEST(GradArena, ReusesStorageAcrossPasses) {
  GradArena& arena = GradArena::local();
  arena.release_storage();
  arena.reset_stats();

  const std::vector<BufferLifetime> lifetimes = {{24, 0, 1}, {24, 0, 1}};
  const BufferPlan plan = plan_buffers(lifetimes);

  arena.prepare(plan);
  EXPECT_EQ(arena.stats().passes, 1u);
  EXPECT_EQ(arena.stats().buffers_planned, 2u);
  const std::uint64_t first_allocs = arena.stats().slot_allocs;
  EXPECT_GT(first_allocs, 0u);
  {
    Tensor a = arena.acquire(0, {4, 6});
    Tensor b = arena.acquire(1, {24});
    ASSERT_EQ(a.numel(), 24);
    ASSERT_EQ(b.numel(), 24);
    EXPECT_NE(a.data(), b.data()) << "overlapping lifetimes aliased storage";
    a[0] = 1.0f;
    b[0] = 2.0f;
    EXPECT_EQ(a[0], 1.0f);
  }

  // Second pass, same plan: no new storage, everything reused.
  arena.prepare(plan);
  EXPECT_EQ(arena.stats().passes, 2u);
  EXPECT_EQ(arena.stats().slot_allocs, first_allocs);
  EXPECT_GE(arena.stats().buffers_reused, 2u);
  EXPECT_EQ(arena.stats().last_peak_bytes, plan.peak_bytes);
}

TEST(GradArena, FallbackWhenSlotStillReferenced) {
  GradArena& arena = GradArena::local();
  arena.release_storage();
  arena.reset_stats();

  const BufferPlan plan = plan_buffers({{8, 0, 1}});
  arena.prepare(plan);
  Tensor held = arena.acquire(0, {8});  // keep the slot referenced

  arena.prepare(plan);
  Tensor fresh = arena.acquire(0, {8});
  EXPECT_NE(fresh.data(), held.data())
      << "arena handed out a slot that was still alive";
  EXPECT_GE(arena.stats().fallback_allocs, 1u);
}

TEST(GradArena, BackwardPassesPopulateStats) {
  // End to end: two identical backward passes through a small graph must
  // plan interior buffers and reuse them on the second pass.
  GradArena& arena = GradArena::local();
  arena.release_storage();
  arena.reset_stats();

  for (int pass = 0; pass < 2; ++pass) {
    Var a(Tensor({2, 3}, {1, 2, 3, 4, 5, 6}), /*requires_grad=*/true);
    Var loss = sum_all(mul(relu(a), sigmoid(a)));
    loss.backward();
  }
  const ArenaStats& s = arena.stats();
  EXPECT_EQ(s.passes, 2u);
  EXPECT_GT(s.buffers_planned, 0u);
  EXPECT_GT(s.buffers_reused, 0u);
  EXPECT_GT(s.last_peak_bytes, 0);
  EXPECT_GE(s.max_peak_bytes, s.last_peak_bytes);
  EXPECT_EQ(s.fallback_allocs, 0u);
}

TEST(GradArena, TrainStepSteadyState) {
  // Real training steps: after the first pass has sized the slots, later
  // passes of the same graph allocate nothing, never fall back, and keep
  // the arena footprint below what a malloc-per-gradient backward touches.
  Rng rng(6);
  models::ModelSpec spec;
  spec.arch = "preactresnet";
  spec.base_width = 8;
  auto model = models::make_model(spec, rng);
  model->set_training(true);
  Tensor x({16, 3, 16, 16});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  const std::vector<std::int64_t> labels(16, 1);

  GradArena& arena = GradArena::local();
  arena.release_storage();
  arena.reset_stats();
  std::uint64_t allocs_after_first = 0;
  for (int pass = 0; pass < 3; ++pass) {
    model->zero_grad();
    Var loss = cross_entropy(model->forward(Var(x)), labels);
    loss.backward();
    if (pass == 0) allocs_after_first = arena.stats().slot_allocs;
  }
  const ArenaStats& s = arena.stats();
  EXPECT_EQ(s.passes, 3u);
  EXPECT_GT(allocs_after_first, 0u);
  EXPECT_EQ(s.slot_allocs, allocs_after_first)
      << "steady-state passes allocated slot storage";
  EXPECT_EQ(s.fallback_allocs, 0u);
  EXPECT_GT(s.last_peak_bytes, 0);
  EXPECT_LT(s.last_peak_bytes, s.last_naive_bytes);
}

}  // namespace
}  // namespace bd::ag
