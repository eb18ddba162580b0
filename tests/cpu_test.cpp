// Tests for CPU cycle accounting and the POLL / WFE wait models — the
// substrate of Figures 13 and 14 (latency parity, large cycle savings).
#include <gtest/gtest.h>

#include "cpu/core.hpp"
#include "cpu/spinwait.hpp"

namespace twochains::cpu {
namespace {

TEST(CpuCoreTest, ChargeAccumulatesPerClass) {
  CpuCore core(0);
  const PicoTime d1 = core.Charge(260, CycleClass::kExecute);
  core.Charge(130, CycleClass::kWait);
  core.Charge(10, CycleClass::kExecute);
  EXPECT_EQ(core.counters().Of(CycleClass::kExecute), 270u);
  EXPECT_EQ(core.counters().Of(CycleClass::kWait), 130u);
  EXPECT_EQ(core.counters().Total(), 400u);
  // 260 cycles at 2.6 GHz = exactly 100 ns.
  EXPECT_EQ(d1, Nanoseconds(100.0));
}

TEST(CpuCoreTest, InstructionAndMessageCounters) {
  CpuCore core(1);
  core.CountInstructions(100);
  core.CountInstructions(23);
  core.CountMessage();
  EXPECT_EQ(core.counters().instructions, 123u);
  EXPECT_EQ(core.counters().messages_handled, 1u);
  core.ResetCounters();
  EXPECT_EQ(core.counters().Total(), 0u);
  EXPECT_EQ(core.counters().instructions, 0u);
}

TEST(WaitModelTest, PollBurnsTheFullWaitInCycles) {
  WaitModel poll(WaitMode::kPoll, kCoreClock);
  const PicoTime wait = Microseconds(1.0);  // 2600 cycles
  const WaitOutcome out = poll.Wait(wait);
  // Burned at least the full wait duration.
  EXPECT_GE(out.cycles_burned, kCoreClock.ToCycles(wait));
  // Detection at the next iteration boundary: strictly less than one
  // iteration away.
  EXPECT_LT(out.detection_delay, kCoreClock.ToPicos(kPollIterationCycles));
}

TEST(WaitModelTest, WfeBurnsAlmostNothing) {
  WaitModel wfe(WaitMode::kWfe, kCoreClock);
  const PicoTime wait = Microseconds(1.0);
  const WaitOutcome out = wfe.Wait(wait);
  // entry + wakeup + 1us of halted residual = 24 + 40 + 400.
  EXPECT_EQ(out.cycles_burned, 24u + 40u + 400u);
  EXPECT_EQ(out.detection_delay, kCoreClock.ToPicos(kWfeWakeupCycles));
  // Under a fifth of the ~2600 cycles polling burns over the same wait.
  EXPECT_LT(out.cycles_burned * 5,
            WaitModel(WaitMode::kPoll, kCoreClock).Wait(wait).cycles_burned);
}

TEST(WaitModelTest, WfeCycleAdvantageGrowsWithWaitTime) {
  WaitModel poll(WaitMode::kPoll, kCoreClock);
  WaitModel wfe(WaitMode::kWfe, kCoreClock);
  double prev_ratio = 0.0;
  for (double us : {1.0, 2.0, 5.0, 10.0}) {
    const auto p = poll.Wait(Microseconds(us));
    const auto w = wfe.Wait(Microseconds(us));
    const double ratio = static_cast<double>(p.cycles_burned) /
                         static_cast<double>(w.cycles_burned);
    EXPECT_GT(ratio, prev_ratio);  // monotone in wait length
    prev_ratio = ratio;
  }
  // The fixed entry + wakeup cost amortizes away, so the advantage climbs
  // toward (but never reaches) poll's 2600 cycles/us over WFE's halted
  // residual of 400 cycles/us: 6.5x for the wait alone (the paper's 2.5-3.8x
  // whole-run counts include execution).
  const double bound = static_cast<double>(kCoreClock.ToCycles(
                           Microseconds(1.0))) /
                       static_cast<double>(kWfeHaltedCyclesPerUs);
  EXPECT_GT(prev_ratio, 6.0);
  EXPECT_LT(prev_ratio, bound);
}

TEST(WaitModelTest, WfeLatencyPenaltyIsBounded) {
  // The paper: "up to 1.5% latency penalty". For a 2 us one-way message the
  // fixed wake-up penalty must stay in single-digit percent.
  WaitModel poll(WaitMode::kPoll, kCoreClock);
  WaitModel wfe(WaitMode::kWfe, kCoreClock);
  const PicoTime wait = Microseconds(2.0);
  const auto p = poll.Wait(wait);
  const auto w = wfe.Wait(wait);
  const double base = ToNanoseconds(wait + p.detection_delay);
  const double with_wfe = ToNanoseconds(wait + w.detection_delay);
  EXPECT_LT((with_wfe - base) / base, 0.03);
}

TEST(WaitModelTest, PollDetectionAlignsToIterationBoundary) {
  WaitModel poll(WaitMode::kPoll, kCoreClock);
  const PicoTime iter = kCoreClock.ToPicos(kPollIterationCycles);
  // A wait of exactly k iterations is detected with zero added delay.
  const auto exact = poll.Wait(iter * 3);
  EXPECT_EQ(exact.detection_delay, 0u);
  // A wait of k iterations + 1 ps waits out the remainder of the iteration.
  const auto off = poll.Wait(iter * 3 + 1);
  EXPECT_EQ(off.detection_delay, iter - 1);
}

TEST(WaitStatsTest, RecordAccumulatesEpisodes) {
  // The per-core ledger a pooled receiver keeps: each wait episode folds
  // its idle time, detection delay, and cycle burn into the totals.
  WaitModel poll(WaitMode::kPoll, kCoreClock);
  WaitModel wfe(WaitMode::kWfe, kCoreClock);
  WaitStats stats;
  const PicoTime w1 = Microseconds(1.0);
  const PicoTime w2 = Microseconds(2.5);
  const auto o1 = poll.Wait(w1);
  stats.Record(w1, o1);
  const auto o2 = wfe.Wait(w2);
  stats.Record(w2, o2);
  EXPECT_EQ(stats.episodes, 2u);
  EXPECT_EQ(stats.idle_picos, w1 + w2);
  EXPECT_EQ(stats.detection_picos, o1.detection_delay + o2.detection_delay);
  EXPECT_EQ(stats.cycles_burned, o1.cycles_burned + o2.cycles_burned);
}

TEST(WaitStatsTest, IndependentLedgersDoNotBleed) {
  // Two pool cores waiting on the same model keep separate books.
  WaitModel poll(WaitMode::kPoll, kCoreClock);
  WaitStats a, b;
  a.Record(Microseconds(1.0), poll.Wait(Microseconds(1.0)));
  EXPECT_EQ(a.episodes, 1u);
  EXPECT_EQ(b.episodes, 0u);
  EXPECT_EQ(b.cycles_burned, 0u);
  b.Record(0, poll.Wait(0));
  EXPECT_EQ(a.episodes, 1u);
  EXPECT_EQ(b.episodes, 1u);
  EXPECT_EQ(b.idle_picos, 0u);
}

TEST(WaitModelTest, ZeroWaitEdgeCases) {
  WaitModel poll(WaitMode::kPoll, kCoreClock);
  WaitModel wfe(WaitMode::kWfe, kCoreClock);
  const auto p = poll.Wait(0);
  EXPECT_EQ(p.detection_delay, 0u);
  EXPECT_EQ(p.cycles_burned, kPollIterationCycles);  // one final check
  const auto w = wfe.Wait(0);
  EXPECT_EQ(w.cycles_burned, kWfeEntryCycles + kWfeWakeupCycles);
}

}  // namespace
}  // namespace twochains::cpu
