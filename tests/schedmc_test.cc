// Schedule-exploration (schedmc) tests: the linearizability oracle on
// hand-built histories (positive and negative), deterministic schedule
// exploration across the whole schedule panel, crash composition
// (crash × interleaving), and the seeded lock-elision regression the
// oracle must catch.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "schedmc/explorer.h"
#include "schedmc/history.h"
#include "schedmc/interleave.h"
#include "schedmc/targets.h"
#include "telemetry/session.h"
#include "xpsim/platform.h"

namespace xp::schedmc {
namespace {

using State = std::map<std::string, std::string>;

// ------------------------------------------------------------ checker ----

TEST(HistoryChecker, AcceptsSequentialHistory) {
  History h;
  const auto p = h.invoke(0, OpKind::kPut, "a", "1");
  h.stage_write(p);
  h.respond(p);
  const auto g = h.invoke(1, OpKind::kGet, "a");
  h.respond(g, true, "1");
  const State fin{{"a", "1"}};
  const CheckResult cr = check_history(h.ops(), &fin, false);
  EXPECT_TRUE(cr.ok) << cr.detail;
}

TEST(HistoryChecker, AcceptsConcurrentReadOfEitherValue) {
  // A get overlapping a put may see the old or the new value.
  for (const char* seen : {"0", "1"}) {
    History h;
    const auto p0 = h.invoke(0, OpKind::kPut, "a", "0");
    h.stage_write(p0);
    h.respond(p0);
    const auto g = h.invoke(1, OpKind::kGet, "a");  // overlaps the next put
    const auto p1 = h.invoke(0, OpKind::kPut, "a", "1");
    h.stage_write(p1);
    h.respond(p1);
    h.respond(g, true, seen);
    const State fin{{"a", "1"}};
    const CheckResult cr = check_history(h.ops(), &fin, false);
    EXPECT_TRUE(cr.ok) << "seen=" << seen << ": " << cr.detail;
  }
}

// The negative test the ISSUE asks for: a lost update — two increments
// both observed the same old value — has no sequential order and must be
// rejected.
TEST(HistoryChecker, RejectsLostUpdate) {
  History h;
  const auto r0 = h.invoke(0, OpKind::kRmw, "ctr");
  h.stage_write(r0, true, "0", "1");
  const auto r1 = h.invoke(1, OpKind::kRmw, "ctr");
  h.stage_write(r1, true, "0", "1");
  h.respond(r0, true, "0");
  h.respond(r1, true, "0");
  const State init{{"ctr", "0"}};
  const State fin{{"ctr", "1"}};
  const CheckResult cr = check_history(h.ops(), &fin, false, &init);
  EXPECT_FALSE(cr.ok) << "lost update accepted:\n" << format_history(h.ops());
}

TEST(HistoryChecker, RejectsStaleRead) {
  // get responded after the put completed (real-time edge) yet saw the
  // old value.
  History h;
  const auto p = h.invoke(0, OpKind::kPut, "a", "new");
  h.stage_write(p);
  h.respond(p);
  const auto g = h.invoke(1, OpKind::kGet, "a");
  h.respond(g, true, "old");
  const State init{{"a", "old"}};
  const State fin{{"a", "new"}};
  EXPECT_FALSE(check_history(h.ops(), &fin, false, &init).ok);
}

TEST(HistoryChecker, CrashModeDropsUnstagedOps) {
  // A put that never reached its write phase must be excludable; the
  // recovered state without it is fine.
  History h;
  const auto p = h.invoke(0, OpKind::kPut, "a", "1");  // no stage, no respond
  (void)p;
  const State recovered{};
  EXPECT_TRUE(check_history(h.ops(), &recovered, true).ok);
}

TEST(HistoryChecker, CrashModeRequiresAcknowledgedOps) {
  History h;
  const auto p = h.invoke(0, OpKind::kPut, "a", "1");
  h.stage_write(p);
  h.respond(p);
  h.mark_must_include(p);  // durability was acknowledged
  const State recovered{};  // ...but the value is gone
  EXPECT_FALSE(check_history(h.ops(), &recovered, true).ok);
}

TEST(HistoryChecker, CrashModeGroupsAreAtomic) {
  // Two staged puts in one group-commit window: recovery may keep both
  // or neither, never exactly one.
  for (const bool keep_a : {false, true}) {
    for (const bool keep_b : {false, true}) {
      History h;
      const auto a = h.invoke(0, OpKind::kPut, "a", "1");
      h.stage_write(a);
      h.respond(a);
      h.set_group(a, 1);
      const auto b = h.invoke(1, OpKind::kPut, "b", "2");
      h.stage_write(b);
      h.respond(b);
      h.set_group(b, 1);
      State recovered;
      if (keep_a) recovered["a"] = "1";
      if (keep_b) recovered["b"] = "2";
      const bool want_ok = keep_a == keep_b;
      EXPECT_EQ(check_history(h.ops(), &recovered, true).ok, want_ok)
          << "keep_a=" << keep_a << " keep_b=" << keep_b;
    }
  }
}

// -------------------------------------------------------- interleaver ----

TEST(Interleaver, SameSeedSameSchedule) {
  auto target = make_pmemlib_target();
  std::vector<std::uint64_t> sigs;
  std::vector<std::vector<unsigned>> traces;
  for (int rep = 0; rep < 2; ++rep) {
    target->reset();
    PctPolicy policy(42, 3, 3, 256);
    Interleaver il;
    const auto rr = il.run(target->specs(), policy,
                           {.platform = &target->platform()});
    ASSERT_TRUE(rr.error.empty()) << rr.error;
    sigs.push_back(rr.signature);
    traces.push_back(rr.trace);
  }
  EXPECT_EQ(sigs[0], sigs[1]);
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(Interleaver, ReplayReproducesSignature) {
  auto target = make_lsmkv_target();
  target->reset();
  PctPolicy policy(9, 3, 3, 256);
  Interleaver il;
  const auto rr = il.run(target->specs(), policy,
                         {.platform = &target->platform()});
  ASSERT_TRUE(rr.error.empty()) << rr.error;

  target->reset();
  ReplayPolicy replay(rr.trace);
  Interleaver il2;
  const auto rr2 = il2.run(target->specs(), replay,
                           {.platform = &target->platform()});
  EXPECT_EQ(rr.signature, rr2.signature);
  EXPECT_EQ(rr.trace, rr2.trace);
}

TEST(Interleaver, DifferentSeedsReachDifferentSchedules) {
  auto target = make_cmap_target();
  std::set<std::uint64_t> sigs;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    target->reset();
    PctPolicy policy(seed, 3, 3, 256);
    Interleaver il;
    sigs.insert(il.run(target->specs(), policy,
                       {.platform = &target->platform()})
                    .signature);
  }
  EXPECT_GT(sigs.size(), 4u);
}

// Schedule-point telemetry: hooked runs announce yield points to the
// session, which buckets them per kind and emits a schedmc section.
TEST(Interleaver, TelemetryCountsSchedPoints) {
  auto target = make_pmemlib_target();
  target->reset();
  telemetry::Session session(target->platform());
  PctPolicy policy(3, 3, 3, 256);
  Interleaver il;
  const auto rr = il.run(
      target->specs(), policy,
      {.platform = &target->platform(), .sink = &session});
  ASSERT_TRUE(rr.error.empty()) << rr.error;
  EXPECT_GT(session.sched_point_count(sim::SchedPoint::kFence), 0u);
  EXPECT_GT(session.sched_point_count(sim::SchedPoint::kLockAcquire), 0u);
  const std::string json = session.summary_json();
  EXPECT_NE(json.find("\"schedmc\""), std::string::npos);
  EXPECT_NE(json.find("\"fence\""), std::string::npos);
}

// ------------------------------------------------- per-family explore ----

// Every shipped configuration is in the schedule panel: one dropped from
// (or never added to) all_targets() fails here.
TEST(PanelCoverage, SchedulePanelNamesEveryConfiguration) {
  std::set<std::string> names;
  for (const auto& target : all_targets()) names.insert(target->name());
  for (const char* want :
       {"pmemlib", "lsmkv", "novafs", "cmap", "stree", "sharded-lsmkv"})
    EXPECT_EQ(names.count(want), 1u) << want;
}

Options live_options() {
  Options o;
  o.seed = 1;
  o.pct_schedules = 220;
  o.dfs_schedules = 40;
  o.crash_schedules = 0;
  o.keep_going = false;
  return o;
}

void expect_family_clean(Target& target, const char* what) {
  const Result r = explore(target, live_options());
  EXPECT_TRUE(r.ok()) << what << ": " << summarize(r);
  // ISSUE acceptance: >= 200 distinct schedules per store family.
  EXPECT_GE(r.distinct_schedules, 200u) << what << ": " << summarize(r);
  EXPECT_GT(r.histories_checked, 0u);
}

TEST(ScheduleExplore, PmemlibLinearizable) {
  expect_family_clean(*make_pmemlib_target(), "pmemlib");
}

TEST(ScheduleExplore, LsmkvLinearizable) {
  expect_family_clean(*make_lsmkv_target(), "lsmkv");
}

TEST(ScheduleExplore, NovafsLinearizable) {
  expect_family_clean(*make_novafs_target(), "novafs");
}

TEST(ScheduleExplore, CmapLinearizable) {
  expect_family_clean(*make_cmap_target(), "cmap");
}

TEST(ScheduleExplore, StreeLinearizable) {
  expect_family_clean(*make_stree_target(), "stree");
}

// The sharded frontend: per-shard locks, cross-shard batched dispatch,
// and a live background-compaction donor thread, all interleaved.
TEST(ScheduleExplore, ShardedLinearizable) {
  expect_family_clean(*make_sharded_target(), "sharded-lsmkv");
}

// Exploration is deterministic end to end: identical options give
// identical schedule sets and identical checker work.
TEST(ScheduleExplore, DeterministicAcrossRuns) {
  auto t1 = make_pmemlib_target();
  auto t2 = make_pmemlib_target();
  Options o = live_options();
  o.pct_schedules = 40;
  o.dfs_schedules = 16;
  const Result r1 = explore(*t1, o);
  const Result r2 = explore(*t2, o);
  EXPECT_EQ(r1.schedules_run, r2.schedules_run);
  EXPECT_EQ(r1.distinct_schedules, r2.distinct_schedules);
  EXPECT_EQ(r1.checker_states, r2.checker_states);
  EXPECT_EQ(r1.histories_checked, r2.histories_checked);
  EXPECT_EQ(r1.violations.size(), r2.violations.size());
}

// ---------------------------------------------------- crash × schedule ----

Options crash_options() {
  Options o;
  o.seed = 11;
  o.pct_schedules = 4;
  o.dfs_schedules = 0;
  o.crash_schedules = 3;
  return o;
}

void expect_crash_clean(Target& target, const char* what) {
  const Result r = explore(target, crash_options());
  EXPECT_TRUE(r.ok()) << what << ": " << summarize(r);
  EXPECT_GT(r.crash_runs, 0u) << what;
  EXPECT_GT(r.recoveries_checked, 0u) << what;
}

TEST(CrashCompose, PmemlibRecoversToLinearizablePrefix) {
  expect_crash_clean(*make_pmemlib_target(), "pmemlib");
}

TEST(CrashCompose, LsmkvRecoversToLinearizablePrefix) {
  expect_crash_clean(*make_lsmkv_target(), "lsmkv");
}

TEST(CrashCompose, NovafsRecoversToLinearizablePrefix) {
  expect_crash_clean(*make_novafs_target(), "novafs");
}

TEST(CrashCompose, CmapRecoversToLinearizablePrefix) {
  expect_crash_clean(*make_cmap_target(), "cmap");
}

TEST(CrashCompose, StreeRecoversToLinearizablePrefix) {
  expect_crash_clean(*make_stree_target(), "stree");
}

// Crash x interleaving through the sharded frontend: a crash inside a
// cross-shard dispatch or a background merge must still recover to a
// linearizable prefix — with each shard's batch slice all-or-nothing.
TEST(CrashCompose, ShardedRecoversToLinearizablePrefix) {
  expect_crash_clean(*make_sharded_target(), "sharded-lsmkv");
}

// ------------------------------------------------- seeded regression ----

// The oracle must catch the deliberately broken lock elision: with the
// RMW critical section split, two racing increments can both read the
// same old value, and no sequential order explains the history.
TEST(SeededRegression, PmemlibElidedRmwLockCaught) {
  TargetOptions to;
  to.fault = TestFault::kElideRmwLock;
  to.ops_per_thread = 6;
  auto target = make_pmemlib_target(to);
  Options o = live_options();
  const Result r = explore(*target, o);
  ASSERT_FALSE(r.ok()) << "elided RMW lock not caught: " << summarize(r);
  EXPECT_EQ(r.violations.front().kind, "linearizability") << summarize(r);
}

TEST(SeededRegression, LsmkvElidedRmwLockCaught) {
  TargetOptions to;
  to.fault = TestFault::kElideRmwLock;
  to.ops_per_thread = 6;
  auto target = make_lsmkv_target(to);
  Options o = live_options();
  const Result r = explore(*target, o);
  ASSERT_FALSE(r.ok()) << "elided RMW lock not caught: " << summarize(r);
  EXPECT_EQ(r.violations.front().kind, "linearizability") << summarize(r);
}

// The same lost-update race through the sharded frontend: dropping the
// owning shard's lock between the counter read and write must surface
// as a linearizability violation, proving the oracle sees through the
// router + per-shard locking.
TEST(SeededRegression, ShardedElidedRmwLockCaught) {
  TargetOptions to;
  to.fault = TestFault::kElideRmwLock;
  to.ops_per_thread = 6;
  auto target = make_sharded_target(to);
  Options o = live_options();
  const Result r = explore(*target, o);
  ASSERT_FALSE(r.ok()) << "elided RMW lock not caught: " << summarize(r);
  EXPECT_EQ(r.violations.front().kind, "linearizability") << summarize(r);
}

}  // namespace
}  // namespace xp::schedmc
