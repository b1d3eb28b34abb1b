#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/cli.hpp"
#include "scenario/scenario.hpp"

// The scenario registry + ragnar CLI contract (see docs/SCENARIOS.md):
// every former bench binary is a registered scenario, unknown names fail
// with the available-names list, and a scenario run through the CLI emits
// stdout byte-identical to what its pre-registry binary printed.
namespace ragnar::scenario {
namespace {

int cli(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv = {"ragnar"};
  argv.insert(argv.end(), argv_tail);
  return run_cli(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()));
}

// Every binary that existed before the registry refactor, plus the cloud_*
// scenarios added with the switched-fabric topology, and nothing else
// unexpected-shaped: this is the completeness contract for `run-all`.
const char* const kFormerBinaries[] = {
    "cloud_bankrupt",
    "cloud_noisy_neighbor",
    "cloud_scale",
    "fig04_priority_matrix",
    "fig05_uli_inter_mr",
    "fig06_offset_abs_64",
    "fig07_offset_abs_1024",
    "fig08_offset_rel_64",
    "fn08_uli_linearity",
    "fig09_covert_priority",
    "fig10_covert_fold",
    "fig11_covert_inter_mr",
    "table5_covert_summary",
    "claim_vs_pythia",
    "fig12_fingerprint",
    "fig13_snoop_classifier",
    "defense_ablation",
    "ablation_model_features",
    "ablation_throughput",
    "ablation_ecc",
    "claim_hugepage_mitigation",
    "ablation_bystanders",
    "claim_hotspot_detection",
    "claim_pcie_coarse_baseline",
    "ablation_seed_stability",
    "fault_sweep",
    "covert_transfer",
    "covert_transfer_degraded",
    "defense_closed_loop",
    "defense_online",
};

TEST(Registry, EveryFormerBinaryIsRegistered) {
  for (const char* name : kFormerBinaries) {
    const Scenario* s = Registry::instance().find(name);
    ASSERT_NE(s, nullptr) << "former binary not registered: " << name;
    EXPECT_STREQ(s->name, name);
    EXPECT_NE(s->tag, nullptr);
    EXPECT_GT(std::string(s->description).size(), 0u) << name;
    EXPECT_NE(s->run, nullptr) << name;
  }
  EXPECT_EQ(Registry::instance().size(), std::size(kFormerBinaries));
}

TEST(Registry, AllIsSortedByName) {
  const auto all = Registry::instance().all();
  ASSERT_EQ(all.size(), std::size(kFormerBinaries));
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const Scenario* a, const Scenario* b) {
                               return std::string(a->name) < b->name;
                             }));
}

TEST(Cli, ListShowsEveryScenario) {
  testing::internal::CaptureStdout();
  const int rc = cli({"list"});
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  for (const char* name : kFormerBinaries) {
    EXPECT_NE(out.find(name), std::string::npos) << name;
  }
  EXPECT_NE(out.find("(30 scenarios)"), std::string::npos);
}

TEST(Cli, UnknownScenarioFailsNonZeroAndListsNames) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = cli({"run", "definitely_not_a_scenario"});
  testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(rc, 0);
  EXPECT_NE(err.find("unknown scenario 'definitely_not_a_scenario'"),
            std::string::npos);
  // The error message must offer the available names.
  EXPECT_NE(err.find("available scenarios"), std::string::npos);
  EXPECT_NE(err.find("fig04_priority_matrix"), std::string::npos);
  EXPECT_NE(err.find("table5_covert_summary"), std::string::npos);
}

TEST(Cli, UnknownFlagFailsNonZero) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = cli({"run", "fig05_uli_inter_mr", "--frobnicate"});
  testing::internal::GetCapturedStdout();
  testing::internal::GetCapturedStderr();
  EXPECT_NE(rc, 0);
}

// Quick-mode stdout of the pre-refactor fig05_uli_inter_mr binary
// (default seed 2024), captured before the registry migration.  `ragnar
// run fig05_uli_inter_mr` must reproduce it byte for byte: progress
// banners and harness timing footers belong on stderr, and scenario
// output may not depend on how the scenario is launched.
const char kFig05QuickGolden[] = R"golden(================================================================
RAGNAR reproduction | ULI vs same/different remote MR vs message size (Fig 5)
paper reference     | alternating 0@MR#0 with 1024@MR#0 / 1024@MR#1, CX-4 READs
seed=2024  mode=reduced
================================================================

size     | same MR (p10/mean/p90)       | different MR (p10/mean/p90)  | ratio
64       |   465.9 /   469.8 /   473.5 |   704.0 /   709.7 /   715.5 | 1.511
128      |   465.3 /   469.6 /   473.7 |   702.7 /   709.4 /   715.9 | 1.511
256      |   466.0 /   469.9 /   474.2 |   704.2 /   709.8 /   716.4 | 1.511
512      |   506.8 /   511.5 /   516.1 |   703.3 /   709.8 /   716.2 | 1.388
1024     |   697.0 /   697.6 /   698.2 |   703.7 /   710.4 /   716.7 | 1.018
2048     |  1352.4 /  1353.0 /  1353.5 |  1352.4 /  1353.0 /  1353.5 | 1.000
4096     |  2663.1 /  2663.7 /  2664.2 |  2663.1 /  2663.7 /  2664.2 | 1.000
8192     |  5326.8 /  5327.4 /  5327.9 |  5326.8 /  5327.4 /  5327.9 | 1.000

paper shape: different-MR ULI > same-MR ULI at every size (MR context switch), gap narrows as payload time dominates.
)golden";

TEST(Cli, RunMatchesPreRefactorGoldenByteForByte) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = cli({"run", "fig05_uli_inter_mr"});
  const std::string out = testing::internal::GetCapturedStdout();
  testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out, kFig05QuickGolden);
}


// Two more byte-goldens, captured from the pre-pipeline-refactor binary
// (default seed 2024, quick mode): the Fig 6 absolute-offset sweep pins the
// translation stage (8 B / 64 B / 2048 B periodicity end to end), and the
// Fig 4 contention matrix pins the cross-flow couplings (KF1-KF3) that the
// stage decomposition must not disturb.
const char kFig06QuickGolden[] = R"golden(================================================================
RAGNAR reproduction | ULI vs absolute offset, 64 B READs (Fig 6)
paper reference     | CX-4, same MR, single swept target
seed=2024  mode=reduced
================================================================
mean ULI (ns) vs offset
       917.9 |                                                                                 * **           
             |                                                                           ** **                
             |                                                                   ** ** *                      
             |                                                              ** *           *  * *             
             |                                                      ** * **           * *                     
             |                                                 * **           * *  *                          
             |                                         * ** **          *  *                                  
             |                                   ** **             *  *                                       
             |                           *  ** *           *  * *                                             
             |                      ** *  *           * *                                                     
             |               * * **           * *  *                                                          
             |         * ** *         * *  *                                                       *        * 
             |   ** **             *                                                                   * **   
             | *           *  * *                                                                   **        
             |     *  * *                                                                                  * *
       779.6 |* *                                                                                     * *     

alignment-class mean ULI:  64B-aligned 671.2 ns   8B-aligned 812.4 ns   misaligned 896.3 ns
paper shape: drops at 8 B alignment, bigger drops at 64 B multiples, 2048 B sawtooth period.
)golden";

TEST(Cli, Fig06OffsetSweepMatchesPreRefactorGolden) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = cli({"run", "fig06_offset_abs_64"});
  const std::string out = testing::internal::GetCapturedStdout();
  testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out, kFig06QuickGolden);
}

const char kFig04QuickGolden[] = R"golden(================================================================
RAGNAR reproduction | traffic-priority contention matrix (Fig 4)
paper reference     | pairwise flow contention, CX-4, ETS 50/50
seed=2024  mode=reduced
================================================================

sweeping 19 contention cells (x3 runs each: solo A, solo B, duo)

flow A         flow B         |    soloA     duoA   catA |    soloB     duoB   catB |  total%
W128 q2        R64 q2         |     7.50     9.31  INCR  |     1.64     1.64  none  |  146.0%
W128 q2        R1024 q2       |     7.50     1.87  MAJOR |    23.24    13.27  MAJOR |   65.2%
W128 q2        R16384 q2      |     7.50     3.22  MAJOR |    23.59    23.59  none  |  113.6%
W128 q2        W128 q2        |     7.50     8.21  INCR  |     7.49     8.21  INCR  |  219.0%
W512 q2        R64 q2         |    22.03    19.88  none  |     1.64     1.64  none  |   97.7%
W512 q2        R1024 q2       |    22.03     7.84  MAJOR |    23.24    14.77 slight |   97.3%
W512 q2        R16384 q2      |    22.03     8.17  MAJOR |    23.59    23.59  none  |  134.6%
W512 q2        W512 q2        |    22.03    11.02  MAJOR |    22.03    11.01  MAJOR |  100.0%
W2048 q2       R64 q2         |    24.00    22.53  none  |     1.64     1.06 slight |   98.3%
W2048 q2       R1024 q2       |    24.00    22.61  none  |    23.24    15.95 slight |  160.7%
W2048 q2       R16384 q2      |    24.00    23.84  none  |    23.59    23.59  none  |  197.6%
W2048 q2       W2048 q2       |    24.00    12.00  MAJOR |    24.00    12.00  MAJOR |  100.0%
W16384 q2      R64 q2         |    23.59    22.28  none  |     1.64     0.96  MAJOR |   98.5%
W16384 q2      R1024 q2       |    23.59    22.28  none  |    23.24    14.46 slight |  155.7%
W16384 q2      R16384 q2      |    23.59    23.59  none  |    23.59    23.59  none  |  200.0%
W16384 q2      W16384 q2      |    23.59    11.80  MAJOR |    23.59    11.80  MAJOR |  100.0%
A8 q2          R1024 q2       |     0.20     0.09  MAJOR |    23.24    10.42  MAJOR |   45.2%
A8 q2          W2048 q2       |     0.20     0.13 slight |    24.00    22.32  none  |   93.5%
W512 q2        revR512 q2     |    22.03    11.74  MAJOR |    13.10    10.30 slight |  100.0%

--- Key Finding checks -----------------------------------
KF1a small-write flows lose >50% vs reads:      PASS (worst keep 25%)
KF1a medium reads drop under small writes:      PASS (keep 57%)
KF1a small reads unaffected by small writes:    PASS (keep 100%)
KF1b bulk writes win, reads drop 30-80%:        PASS (write keep 94%, read keep 58%)
KF2  small-write pair total > 200% of solo:     PASS
KF3  Tx (responses) preempt Rx (writes): implied by KF1a write losses while the read flow keeps its responses.
obs4 write vs reverse-read dynamics differ:    PASS (W-vs-W keeps 50%, W-vs-revR keeps 79%)
)golden";

TEST(Cli, Fig04PriorityMatrixMatchesPreRefactorGolden) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = cli({"run", "fig04_priority_matrix"});
  const std::string out = testing::internal::GetCapturedStdout();
  testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out, kFig04QuickGolden);
}

// The engine determinism contract (docs/ENGINE.md §3): a windowed run's
// stdout is byte-identical for any shard count.  --shards 1 is the
// single-shard baseline; 3 deliberately mismatches the scenarios' rack
// counts so nodes land on shards unevenly.
TEST(Cli, WindowedCloudScenariosAreShardCountInvariant) {
  for (const char* name :
       {"cloud_bankrupt", "cloud_noisy_neighbor", "cloud_scale"}) {
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc1 = cli({"run", name, "--shards", "1"});
    const std::string one = testing::internal::GetCapturedStdout();
    testing::internal::GetCapturedStderr();
    ASSERT_EQ(rc1, 0) << name;
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc3 = cli({"run", name, "--shards", "3"});
    const std::string three = testing::internal::GetCapturedStdout();
    testing::internal::GetCapturedStderr();
    ASSERT_EQ(rc3, 0) << name;
    EXPECT_NE(one.find("====="), std::string::npos)
        << name << " produced no reproduction header";
    EXPECT_EQ(one, three) << name << " diverged between 1 and 3 shards";
  }
}

TEST(Cli, SeedChangesOutput) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = cli({"run", "fig05_uli_inter_mr", "--seed", "7"});
  const std::string out = testing::internal::GetCapturedStdout();
  testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out, kFig05QuickGolden);
  EXPECT_NE(out.find("seed=7  mode=reduced"), std::string::npos);
}

}  // namespace
}  // namespace ragnar::scenario
