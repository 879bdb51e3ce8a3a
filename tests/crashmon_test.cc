// Crash-state explorer regression tests (src/crashmon).
//
// The explorer enumerates a crash point at every persistence boundary of a
// recorded workload (plus mid-epoch cacheline subsets), recovers each
// materialized image and checks the fsck + durability oracles. With the
// shipped ZoFS these sweeps must come back clean; with the planted pre-fix
// rename (ExploreOptions::legacy_rename_overwrite) the sweep must catch the
// destination-lost window — the regression that proves the explorer can see
// the bug class it was built for.

#include <gtest/gtest.h>

#include "src/crashmon/crashmon.h"

namespace {

crashmon::ExploreOptions SmallOpts(crashmon::Workload w, uint64_t ops) {
  crashmon::ExploreOptions o;
  o.workload = w;
  o.ops = ops;
  o.dev_bytes = 16ull << 20;
  o.mid_epoch_per_fence = 1;
  o.threads = 4;
  return o;
}

void ExpectClean(const crashmon::ExploreReport& rep) {
  EXPECT_EQ(rep.violation_count, 0u) << rep.ToText();
  EXPECT_GT(rep.states_explored, rep.ops_recorded) << "fewer crash states than operations";
  EXPECT_GT(rep.mid_epoch_states, 0u);
}

TEST(CrashmonTest, OverwriteWorkloadSurvivesAllCrashPoints) {
  crashmon::ExploreReport rep = crashmon::Explore(SmallOpts(crashmon::Workload::kDWOL, 40));
  ExpectClean(rep);
}

TEST(CrashmonTest, CreateAndUnlinkWorkloadsSurviveAllCrashPoints) {
  ExpectClean(crashmon::Explore(SmallOpts(crashmon::Workload::kMWCL, 24)));
  ExpectClean(crashmon::Explore(SmallOpts(crashmon::Workload::kMWUL, 24)));
}

TEST(CrashmonTest, RenameWorkloadSurvivesAllCrashPoints) {
  // MWRL renames over existing destinations — the states the rename intent
  // must make atomic.
  ExpectClean(crashmon::Explore(SmallOpts(crashmon::Workload::kMWRL, 24)));
}

TEST(CrashmonTest, MixedWorkloadSurvivesAllCrashPoints) {
  ExpectClean(crashmon::Explore(SmallOpts(crashmon::Workload::kMixed, 40)));
}

TEST(CrashmonTest, ChannelChurnWorkloadSurvivesAllCrashPoints) {
  // CHURN steps the pinned clock between ops so fast-path lease renewals
  // land mid-run (crash between the persisted renewal stamp and the next
  // durability point), and its create/delete storm keeps the per-thread
  // channel's submission ring partially drained at most crash points.
  ExpectClean(crashmon::Explore(SmallOpts(crashmon::Workload::kChurn, 24)));
}

TEST(CrashmonTest, PlantedRenameBugIsDetected) {
  // Replay MWRL with the pre-fix rename that unlinked an existing destination
  // before moving the source: a crash in between loses the destination
  // without gaining the source at it, which the durability oracle must flag.
  crashmon::ExploreOptions o = SmallOpts(crashmon::Workload::kMWRL, 24);
  o.legacy_rename_overwrite = true;
  crashmon::ExploreReport rep = crashmon::Explore(o);
  EXPECT_GT(rep.violation_count, 0u)
      << "planted rename bug went undetected:\n"
      << rep.ToText();
  bool torn_rename = false;
  for (const crashmon::Violation& v : rep.violations) {
    if (v.kind == "atomicity" || v.kind == "durability-lost") {
      torn_rename = true;
    }
  }
  EXPECT_TRUE(torn_rename) << rep.ToText();
}

TEST(CrashmonTest, ReportIsDeterministicAcrossRunsAndThreadCounts) {
  crashmon::ExploreOptions o = SmallOpts(crashmon::Workload::kMWCL, 12);
  std::string first = crashmon::Explore(o).ToJson();
  std::string again = crashmon::Explore(o).ToJson();
  EXPECT_EQ(first, again);
  o.threads = 1;
  std::string single = crashmon::Explore(o).ToJson();
  EXPECT_EQ(first, single);
}

TEST(CrashmonTest, MaxPointsCapsExplorationPrefix) {
  crashmon::ExploreOptions o = SmallOpts(crashmon::Workload::kDWOL, 20);
  o.max_points = 25;
  crashmon::ExploreReport rep = crashmon::Explore(o);
  EXPECT_EQ(rep.states_explored, 25u);
  EXPECT_EQ(rep.violation_count, 0u) << rep.ToText();
}

}  // namespace
