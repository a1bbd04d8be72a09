// Tests for SpinSection (src/sim/scope.h), the one tenure every SimSpinLock
// site takes: where it releases under each lock policy, its early release,
// and that it charges a wait exactly as direct ChargeLockWait calls do.
#include <gtest/gtest.h>

#include <array>

#include "src/kernel/context.h"

namespace mks {
namespace {

constexpr Cycles kLine = 100;
constexpr std::array<LockPolicy, 4> kPolicies = {LockPolicy::kTestAndSet, LockPolicy::kTicket,
                                                 LockPolicy::kAnderson, LockPolicy::kMcs};

// A profiled two-CPU machine and one line under a policy-configured lock.
struct Rig {
  explicit Rig(LockPolicy policy) {
    ctx.prof.Enable(2, ProfConfig{.enabled = true});
    line.lock.Configure({policy, kLine, /*anderson_slots=*/2});
  }

  SpinSection Take(uint16_t cpu, Cycles lnow) {
    return SpinSection(line, kLine, cpu, lnow, ctx.cost, &ctx.scopes);
  }
  // The lock's release point, read as the gap a probe at local time 0 waits
  // (its spin less the policy's handoff traffic).
  Cycles FreeAt() {
    const Cycles spin = line.lock.Acquire(0, 1);
    const Cycles gap = spin - line.lock.last_acquire_handoff();
    line.lock.Release(0);
    return gap;
  }

  KernelContext ctx{/*memory_frames=*/8, HwFeatures::KernelDesign(),
                    CostModel::kDefaultStructuredFactor, /*secret_seed=*/1, /*cpu_count=*/2};
  LockedLine line;
};

TEST(SpinSection, ReleasesAtAcquirePlusChargedTenurePlusHold) {
  for (const LockPolicy policy : kPolicies) {
    SCOPED_TRACE(LockPolicyName(policy));
    Rig rig(policy);
    {
      SpinSection section = rig.Take(0, /*lnow=*/100);
      EXPECT_EQ(section.spin(), 0u);
      rig.ctx.cost.Charge(CodeStyle::kOptimized, 30);
      EXPECT_EQ(section.charged(), 30u);
      section.Release(/*hold=*/7);
    }
    // A contended tenure's wait and line transfer are part of what it held.
    Cycles held = 0;
    {
      SpinSection section = rig.Take(1, /*lnow=*/0);
      EXPECT_EQ(section.spin() - rig.line.lock.last_acquire_handoff(), 137u);
      EXPECT_EQ(section.transfer(), kLine);
      rig.ctx.cost.Charge(CodeStyle::kOptimized, 5);
      held = section.charged();
      EXPECT_EQ(held, section.spin() + kLine + 5);
    }  // scope end: no hold
    EXPECT_EQ(rig.FreeAt(), held);
  }
}

TEST(SpinSection, EarlyReleaseOnAReturnPath) {
  for (const bool bail : {false, true}) {
    Rig rig(LockPolicy::kTestAndSet);
    auto body = [&]() -> Status {
      SpinSection section = rig.Take(0, /*lnow=*/1000);
      rig.ctx.cost.Charge(CodeStyle::kOptimized, 10);
      if (bail) {
        return Status(Code::kNotFound, "scope end releases");
      }
      section.Release();
      rig.ctx.cost.Charge(CodeStyle::kOptimized, 50);  // after the tenure
      return Status::Ok();
    };
    EXPECT_EQ(body().ok(), !bail);
    // Either way the lock came free at 1010; the explicit release is not
    // repeated at scope end, so the later 50 cycles never extend it.
    EXPECT_EQ(rig.FreeAt(), 1010u);
  }
}

TEST(SpinSection, WaitSplitsLikeChargeLockWait) {
  for (const LockPolicy policy : kPolicies) {
    SCOPED_TRACE(LockPolicyName(policy));
    Rig section_rig(policy);
    Rig direct_rig(policy);
    for (Rig* rig : {&section_rig, &direct_rig}) {
      rig->line.lock.Acquire(0, 0);
      rig->line.owner = 0;
      rig->line.lock.Release(1000);
    }
    {
      CpuWindow window(&section_rig.ctx, 1, ProfDomain::kDispatch);
      const SpinSection section = section_rig.Take(1, /*lnow=*/100);
    }
    {
      CpuWindow window(&direct_rig.ctx, 1, ProfDomain::kDispatch);
      KernelContext& ctx = direct_rig.ctx;
      SimSpinLock& lock = direct_rig.line.lock;
      const Cycles spin = lock.Acquire(100, 1);
      ChargeLockWait(ctx.cost, &ctx.scopes, spin, lock.last_acquire_handoff());
      ChargeLockWait(ctx.cost, &ctx.scopes, kLine, kLine);
    }
    const auto got = section_rig.ctx.prof.DomainTotals();
    const auto want = direct_rig.ctx.prof.DomainTotals();
    EXPECT_EQ(got, want);
    EXPECT_EQ(section_rig.ctx.clock.now(), direct_rig.ctx.clock.now());
    EXPECT_EQ(got[static_cast<size_t>(ProfDomain::kLockSpin)], 900u);
    EXPECT_EQ(got[static_cast<size_t>(ProfDomain::kLockHandoff)],
              section_rig.line.lock.last_acquire_handoff() + kLine);
  }
}

}  // namespace
}  // namespace mks
