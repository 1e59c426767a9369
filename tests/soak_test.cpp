// The shared soak checker (rockfs/soak.h) must be able to fail: every soak
// asserts zero violations, so these cases feed its ledger expectations the
// final state breaks and check each one is counted exactly once.
#include <gtest/gtest.h>

#include "rockfs/soak.h"

namespace rockfs::core {
namespace {

TEST(SoakChecker, CountsEachLedgerViolation) {
  DeploymentOptions opts;
  opts.agent.sync_mode = scfs::SyncMode::kBlocking;
  Soak soak(opts, /*dice_seed=*/1);
  soak.dep().add_user("alice");

  soak.honest_write("alice", "/alice/equal", to_bytes("written"));
  soak.honest_write("alice", "/alice/tokens", to_bytes("[kept][zombie]"));
  ASSERT_EQ(soak.tally().honest_writes, 2u);

  // A mismatching expect_equal: the ledger now wants bytes nobody wrote.
  soak.expect_equal("/alice/equal", to_bytes("never written"));
  // A required token that is absent, and a forbidden token that is present;
  // one satisfied expectation of each kind rides along.
  soak.expect_contains("/alice/tokens", "[kept]");
  soak.expect_contains("/alice/tokens", "[lost]");
  soak.expect_absent("/alice/tokens", "[zombie]");
  soak.expect_absent("/alice/tokens", "[gone]");

  const SoakTally& tally = soak.settle({"alice"});
  EXPECT_EQ(tally.read_mismatches, 1u);
  EXPECT_EQ(tally.lost_updates, 1u);
  EXPECT_EQ(tally.zombie_updates, 1u);
  EXPECT_EQ(tally.divergent_reads, 0u);
  EXPECT_EQ(tally.final_contents.at("/alice/equal"), "written");
  EXPECT_EQ(tally.final_contents.at("/alice/tokens"), "[kept][zombie]");
  EXPECT_FALSE(tally.content_digest.empty());
}

}  // namespace
}  // namespace rockfs::core
