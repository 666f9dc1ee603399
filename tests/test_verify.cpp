// Tests for ddl::verify — the static plan verifier and footprint analyzer.
//
// The mutation tests are the heart of this file: each takes a valid tree,
// corrupts it through the public plan::Node fields (the verifier's threat
// model — trees are plain data after construction), and asserts the seeded
// defect is caught *with the right rule id* and a structured diagnostic,
// not a generic failure.

#include <gtest/gtest.h>

#include <stdexcept>

#include "ddl/codelets/codelets.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/plan/tree.hpp"
#include "ddl/sim/trace.hpp"
#include "ddl/verify/footprint.hpp"
#include "ddl/verify/plan_verify.hpp"
#include "ddl/wht/planner.hpp"
#include "ddl/wht/wht.hpp"

namespace {

using namespace ddl;
using verify::Rule;
using verify::Transform;

verify::Report verify_fft(const plan::Node& tree) {
  return verify::verify_plan(tree, {Transform::fft});
}

verify::Report verify_wht(const plan::Node& tree) {
  return verify::verify_plan(tree, {Transform::wht});
}

/// Restores the admission-gate override however the test exits.
struct EnforcementGuard {
  ~EnforcementGuard() { verify::set_enforcement(-1); }
};

// ---------------------------------------------------------------------------
// Baseline: structurally consistent plans verify clean.

TEST(Verify, ValidTreesVerifyClean) {
  for (const char* grammar : {"16", "ct(16,16)", "ctddl(ct(32,32),1024)",
                              "ct(ct(4,8),ctddl(16,32))", "ctddl(64,ctddl(32,16))",
                              "ctddlf(32,32)", "ctddlf(16,ctddlf(8,8))", "st(64)",
                              "ct(st(16),16)", "ctddlf(st(32),st(32))"}) {
    const auto tree = plan::parse_tree(grammar);
    const auto report = verify_fft(*tree);
    EXPECT_TRUE(report.ok()) << grammar << "\n" << report.to_string();
  }
}

TEST(Verify, AllPlannerPlansVerifyClean) {
  // Every strategy, every n = 2^4 .. 2^20, FFT and WHT. The simulated cost
  // oracle replaces wall-clock probes so the DP is deterministic and fast.
  fft::PlannerOptions fopts;
  fopts.cost_oracle = sim::simulated_cost_oracle();
  fft::FftPlanner fft_planner(fopts);
  wht::PlannerOptions wopts;
  wopts.cost_oracle = sim::simulated_cost_oracle();
  wht::WhtPlanner wht_planner(wopts);

  for (const auto strategy : {fft::Strategy::rightmost, fft::Strategy::balanced,
                              fft::Strategy::sdl_dp, fft::Strategy::ddl_dp}) {
    for (int k = 4; k <= 20; ++k) {
      const index_t n = index_t{1} << k;
      const auto ftree = fft_planner.plan(n, strategy);
      const auto freport = verify_fft(*ftree);
      EXPECT_TRUE(freport.ok()) << "fft " << fft::strategy_name(strategy) << " n=2^" << k
                                << "\n" << freport.to_string();
      const auto wtree = wht_planner.plan(n, strategy);
      const auto wreport = verify_wht(*wtree);
      EXPECT_TRUE(wreport.ok()) << "wht " << fft::strategy_name(strategy) << " n=2^" << k
                                << "\n" << wreport.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation tests: one seeded defect per test, caught under the right rule.

TEST(VerifyMutation, CorruptedInternalSizeIsSizeProduct) {
  const auto tree = plan::parse_tree("ct(16,16)");
  tree->n = 257;  // children still 16*16
  const auto report = verify_fft(*tree);
  EXPECT_TRUE(report.has(Rule::size_product)) << report.to_string();
  // The diagnostic is structured: rule, location, expected/actual values.
  for (const auto& d : report.diagnostics) {
    if (d.rule != Rule::size_product) continue;
    EXPECT_EQ(d.node_path, "root");
    EXPECT_EQ(d.expected, 256);
    EXPECT_EQ(d.actual, 257);
  }
  // The internal size is invisible in the grammar, so the corrupted tree
  // also fails to round-trip through its textual form.
  EXPECT_TRUE(report.has(Rule::grammar_round_trip));
  EXPECT_FALSE(plan::round_trips(*tree));
}

TEST(VerifyMutation, SwappedSubtreeIsSizeProduct) {
  const auto tree = plan::parse_tree("ct(ct(4,4),16)");
  tree->right = plan::make_leaf(8);  // 16*8 != 256
  const auto report = verify_fft(*tree);
  EXPECT_TRUE(report.has(Rule::size_product)) << report.to_string();
}

TEST(VerifyMutation, EnlargedLeafIsStrideBounds) {
  // ct(ct(4,4),16): growing a grandchild leaf makes root.L's access set
  // escape the 16-element range its parent hands it (Property 1 violation).
  const auto tree = plan::parse_tree("ct(ct(4,4),16)");
  tree->left->left->n = 8;
  const auto report = verify_fft(*tree);
  ASSERT_TRUE(report.has(Rule::stride_bounds)) << report.to_string();
  // The escape is pinpointed at the offending subtree, not just the root.
  bool at_culprit = false;
  for (const auto& d : report.diagnostics) {
    if (d.rule != Rule::stride_bounds) continue;
    EXPECT_GT(d.actual, d.expected);
    at_culprit |= d.node_path == "root.L";
  }
  EXPECT_TRUE(at_culprit) << report.to_string();
}

TEST(VerifyMutation, DdlFlagOnDegenerateSplitIsDdlLegality) {
  // make_split/parse_tree reject these at construction, so the mutation
  // writes the public field directly — exactly what the verifier exists for.
  const auto left_degenerate = plan::parse_tree("ct(1,4)");
  left_degenerate->ddl = true;
  const auto r1 = verify_fft(*left_degenerate);
  EXPECT_TRUE(r1.has(Rule::ddl_legality)) << r1.to_string();

  const auto right_degenerate = plan::parse_tree("ct(4,1)");
  right_degenerate->ddl = true;
  const auto r2 = verify_fft(*right_degenerate);
  EXPECT_TRUE(r2.has(Rule::ddl_legality)) << r2.to_string();
}

TEST(VerifyMutation, FusedFlagOnNonDdlSplitIsDdlLegality) {
  // make_split refuses fused-without-ddl at construction; the mutation sets
  // the public field directly. Without a gather/scatter pair there is no
  // permutation for the twiddle multiply to fuse into.
  const auto tree = plan::parse_tree("ct(16,16)");
  tree->fused = true;
  const auto report = verify_fft(*tree);
  EXPECT_TRUE(report.has(Rule::ddl_legality)) << report.to_string();
}

TEST(VerifyMutation, FusedSplitIsFftOnly) {
  // The WHT has no twiddle pass, so a fused twiddle+scatter split can never
  // be executed by the WHT executor — the verifier must refuse it up front.
  const auto tree = plan::parse_tree("ctddlf(16,16)");
  EXPECT_TRUE(verify_fft(*tree).ok());
  const auto report = verify_wht(*tree);
  EXPECT_TRUE(report.has(Rule::ddl_legality)) << report.to_string();
}

TEST(VerifyMutation, StockhamLeafRules) {
  // Non-pow2 Stockham leaf: make_stockham_leaf rejects it, so corrupt the
  // field post-construction. The autosort network only exists for 2^k.
  const auto bad = plan::parse_tree("st(16)");
  bad->n = 12;
  const auto report = verify_fft(*bad);
  EXPECT_TRUE(report.has(Rule::codelet_coverage)) << report.to_string();

  // st(n) is a DFT algorithm; the WHT executor has no kernel for it.
  const auto st = plan::parse_tree("st(16)");
  EXPECT_TRUE(verify_fft(*st).ok());
  EXPECT_TRUE(verify_wht(*st).has(Rule::codelet_coverage));
}

TEST(VerifyMutation, ShrunkNodeSizeIsTwiddleBounds) {
  // Factors larger than the node's n would drive the incremental mod-n
  // twiddle index walk outside the length-n table.
  const auto tree = plan::parse_tree("ct(16,16)");
  tree->n = 8;
  const auto report = verify_fft(*tree);
  ASSERT_TRUE(report.has(Rule::twiddle_bounds)) << report.to_string();
  for (const auto& d : report.diagnostics) {
    if (d.rule != Rule::twiddle_bounds) continue;
    EXPECT_EQ(d.expected, 8);
    EXPECT_EQ(d.actual, 16);
  }
}

TEST(VerifyMutation, NonPow2WhtLeafIsCodeletCoverage) {
  auto tree = plan::make_split(plan::make_leaf(3), plan::make_leaf(4));
  const auto report = verify_wht(*tree);
  EXPECT_TRUE(report.has(Rule::codelet_coverage)) << report.to_string();
}

TEST(VerifyMutation, StrictModeRequiresGeneratedCodelets) {
  // Find a small size with no generated DFT codelet (the direct fallback
  // accepts it, so only strict mode objects).
  index_t no_codelet = 0;
  for (index_t n = 2; n <= 64; ++n) {
    if (!codelets::has_dft_codelet(n)) {
      no_codelet = n;
      break;
    }
  }
  ASSERT_GT(no_codelet, 0) << "every size up to 64 has a codelet?";
  const auto tree = plan::make_split(plan::make_leaf(no_codelet), plan::make_leaf(4));
  verify::VerifyOptions opts;
  opts.require_codelets = true;
  EXPECT_TRUE(verify::verify_plan(*tree, opts).has(Rule::codelet_coverage));
  EXPECT_TRUE(verify_fft(*tree).ok());  // default mode accepts the fallback
}

TEST(VerifyMutation, TightScratchCapacityIsScratchSizing) {
  const auto tree = plan::parse_tree("ctddl(ct(32,32),1024)");
  verify::VerifyOptions opts;
  opts.scratch_capacity = tree->n;  // executor provisions 2n; starve it
  const auto report = verify::verify_plan(*tree, opts);
  ASSERT_TRUE(report.has(Rule::scratch_sizing)) << report.to_string();
  for (const auto& d : report.diagnostics) {
    if (d.rule != Rule::scratch_sizing) continue;
    EXPECT_EQ(d.expected, tree->n);
    EXPECT_GT(d.actual, tree->n);
  }
}

TEST(VerifyMutation, OversizedDdlChildIsScratchSizing) {
  // A ddl node parks n elements while its left subtree runs; corrupting the
  // left child's size inflates the parked-region demand past the 2n arena.
  const auto tree = plan::parse_tree("ctddl(ctddl(16,16),16)");
  tree->left->n = 3 * tree->n;
  const auto report = verify_fft(*tree);
  EXPECT_TRUE(report.has(Rule::scratch_sizing)) << report.to_string();
}

TEST(VerifyMutation, CorruptedSubtreeExtentIsChunkOverlap) {
  // ct(4,ct(2,2)) with the right-left grandchild enlarged: the root's "right
  // rows" stage writes rows of extent 8 spaced only n2 = 4 apart — adjacent
  // concurrent rows collide.
  const auto tree = plan::parse_tree("ct(4,ct(2,2))");
  tree->right->left->n = 4;
  const auto report = verify_fft(*tree);
  ASSERT_TRUE(report.has(Rule::chunk_overlap)) << report.to_string();
  for (const auto& d : report.diagnostics) {
    if (d.rule != Rule::chunk_overlap) continue;
    EXPECT_EQ(d.node_path, "root");
    // Message names the concrete conflicting pair and witness index.
    EXPECT_NE(d.message.find("both write index"), std::string::npos) << d.message;
  }
}

// ---------------------------------------------------------------------------
// Footprint analyzer unit tests.

TEST(Footprint, FamilyOverlapExactness) {
  using verify::ChunkFamily;
  using verify::Space;
  // Packed columns: chunk j = [j*8, j*8+8), disjoint.
  EXPECT_FALSE(verify::family_overlap({Space::scratch, 0, 8, 16, 1, 8}));
  // Comb family: chunk j = {j + k*16}, residues mod 16 differ, disjoint.
  EXPECT_FALSE(verify::family_overlap({Space::data, 0, 1, 16, 16, 8}));
  // Zero jump: every chunk writes the same base.
  const auto same_base = verify::family_overlap({Space::data, 5, 0, 4, 1, 8});
  ASSERT_TRUE(same_base);
  EXPECT_EQ(same_base->index, 5);
  // Rows of extent 8 spaced 4 apart: chunk 0 and 1 share index 4.
  const auto rows = verify::family_overlap({Space::data, 0, 4, 4, 1, 8});
  ASSERT_TRUE(rows);
  EXPECT_EQ(rows->j1, 0);
  EXPECT_EQ(rows->j2, 1);
  EXPECT_EQ(rows->index, 4);
  // Strided chunks {j*3 + k*6 : k<4}: delta0 = 2, chunk 0 and 2 share 6.
  const auto strided = verify::family_overlap({Space::data, 0, 3, 4, 6, 4});
  ASSERT_TRUE(strided);
  EXPECT_EQ(strided->j2 - strided->j1, 2);
  EXPECT_EQ(strided->index, 6);
}

TEST(Footprint, BatchStageOverlapsIffStrideTooSmall) {
  EXPECT_FALSE(verify::family_overlap(verify::batch_stage(64, 8, 64).writes));
  EXPECT_FALSE(verify::family_overlap(verify::batch_stage(64, 8, 100).writes));
  const auto racy = verify::family_overlap(verify::batch_stage(64, 8, 63).writes);
  ASSERT_TRUE(racy);  // lanes 63 elements apart, transforms span 64
  EXPECT_EQ(racy->index, 63);
}

TEST(Footprint, EffectiveExtentEqualsSizeForConsistentTrees) {
  for (const char* grammar :
       {"32", "ct(16,16)", "ctddl(ct(32,32),1024)", "ctddl(64,ctddl(32,16))"}) {
    const auto tree = plan::parse_tree(grammar);
    EXPECT_EQ(verify::effective_extent(*tree, Transform::fft), tree->n) << grammar;
    EXPECT_EQ(verify::effective_extent(*tree, Transform::wht), tree->n) << grammar;
  }
}

TEST(Footprint, ScratchRequirementWithinExecutorArena) {
  for (const char* grammar :
       {"32", "ct(16,16)", "ctddl(ct(32,32),1024)", "ctddl(64,ctddl(32,16))",
        "ctddl(ctddl(ctddl(4,4),16),ct(16,16))"}) {
    const auto tree = plan::parse_tree(grammar);
    EXPECT_LE(verify::scratch_requirement(*tree, Transform::fft), 2 * tree->n) << grammar;
    EXPECT_LE(verify::scratch_requirement(*tree, Transform::wht), 2 * tree->n) << grammar;
  }
  // Hand-checked: a ddl split parks n while the left child runs (fft also
  // needs n for the closing permutation); a WHT leaf tree needs nothing.
  const auto tree = plan::parse_tree("ctddl(ctddl(16,16),16)");
  EXPECT_EQ(verify::scratch_requirement(*tree, Transform::fft), 4096 + 256);
  EXPECT_EQ(verify::scratch_requirement(*plan::parse_tree("ct(8,8)"), Transform::wht), 0);
  // A Stockham leaf demands a full 2n region: n for the strided pack plus n
  // for the ping-pong buffer — exactly the arena a lane provisions.
  EXPECT_EQ(verify::scratch_requirement(*plan::parse_tree("st(256)"), Transform::fft), 512);
  EXPECT_LE(verify::scratch_requirement(*plan::parse_tree("ct(st(16),16)"), Transform::fft),
            2 * 256);
}

TEST(Footprint, StageEnumerationMirrorsExecutor) {
  const auto tree = plan::parse_tree("ctddl(16,16)");
  const auto stages = verify::enumerate_stages(*tree, Transform::fft);
  // ddl fft split: gather, left columns, twiddle, scatter, right rows,
  // permute gather, permute unpack.
  ASSERT_EQ(stages.size(), 7u);
  EXPECT_EQ(stages[0].op, "reorg gather");
  EXPECT_EQ(stages[0].writes.space, verify::Space::scratch);
  EXPECT_EQ(stages[4].op, "right rows");
  // WHT: no twiddle and no permutation stages.
  const auto wht_stages = verify::enumerate_stages(*tree, Transform::wht);
  ASSERT_EQ(wht_stages.size(), 4u);
  for (const auto& s : wht_stages) EXPECT_EQ(s.op.find("twiddle"), std::string::npos);
}

TEST(Footprint, FusedSplitCollapsesTwiddleAndScatterIntoOneStage) {
  // ctddlf: the separate scratch-space twiddle stage and the data-space
  // scatter of the two-pass path become a single data-space write stage with
  // the same chunk family — one fewer sweep, identical race structure.
  const auto fused = plan::parse_tree("ctddlf(16,16)");
  const auto stages = verify::enumerate_stages(*fused, Transform::fft);
  ASSERT_EQ(stages.size(), 6u);  // two-pass ctddl emits 7
  EXPECT_EQ(stages[2].op, "twiddle scatter (fused)");
  EXPECT_EQ(stages[2].writes.space, verify::Space::data);

  const auto two_pass = plan::parse_tree("ctddl(16,16)");
  const auto tp = verify::enumerate_stages(*two_pass, Transform::fft);
  ASSERT_EQ(tp.size(), 7u);
  // The fused write family equals the scatter's family: same comb, no new
  // overlap surface for the race check.
  EXPECT_EQ(tp[3].op, "reorg scatter");
  EXPECT_EQ(stages[2].writes.jump, tp[3].writes.jump);
  EXPECT_EQ(stages[2].writes.chunks, tp[3].writes.chunks);
  EXPECT_EQ(stages[2].writes.stride, tp[3].writes.stride);
  EXPECT_EQ(stages[2].writes.count, tp[3].writes.count);
}

// ---------------------------------------------------------------------------
// Grammar round-trip and degenerate-split rejection (satellites).

TEST(GrammarRoundTrip, ValidTreesRoundTrip) {
  for (const char* grammar : {"1", "32", "ct(16,16)", "ctddl(ct(32,32),1024)"}) {
    EXPECT_TRUE(plan::round_trips(*plan::parse_tree(grammar))) << grammar;
  }
  fft::PlannerOptions opts;
  opts.cost_oracle = sim::simulated_cost_oracle();
  fft::FftPlanner planner(opts);
  for (int k = 4; k <= 16; k += 4) {
    EXPECT_TRUE(plan::round_trips(*planner.plan(index_t{1} << k, fft::Strategy::ddl_dp)));
  }
}

TEST(GrammarRoundTrip, CorruptedTreesDoNot) {
  const auto hidden_size = plan::parse_tree("ct(16,16)");
  hidden_size->n = 100;
  EXPECT_FALSE(plan::round_trips(*hidden_size));
  const auto illegal_ddl = plan::parse_tree("ct(1,4)");
  illegal_ddl->ddl = true;  // renders as "ctddl(1,4)", which no longer parses
  EXPECT_FALSE(plan::round_trips(*illegal_ddl));
}

TEST(DegenerateSplits, MakeSplitRejectsThem) {
  EXPECT_THROW(plan::make_split(plan::make_leaf(1), plan::make_leaf(4), true),
               std::invalid_argument);
  EXPECT_THROW(plan::make_split(plan::make_leaf(4), plan::make_leaf(1), true),
               std::invalid_argument);
  EXPECT_THROW(plan::make_split(plan::make_leaf(1), plan::make_leaf(1)),
               std::invalid_argument);
  // Non-ddl size-1 factors stay legal (identity stages are wasteful, not wrong).
  EXPECT_NO_THROW(plan::make_split(plan::make_leaf(1), plan::make_leaf(4)));
  EXPECT_NO_THROW(plan::make_split(plan::make_leaf(4), plan::make_leaf(1)));
}

TEST(DegenerateSplits, ParserRejectsWithPosition) {
  for (const char* bad : {"ctddl(1,4)", "ctddl(4,1)", "ct(1,1)"}) {
    try {
      plan::parse_tree(bad);
      FAIL() << bad << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("offset 0"), std::string::npos) << what;
      EXPECT_NE(what.find("size-1"), std::string::npos) << what;
    }
  }
  // The reported offset is the offending *split*, not the whole input.
  try {
    plan::parse_tree("ct(4,ctddl(1,2))");
    FAIL() << "nested degenerate split parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset 5"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Admission gate: executors refuse unverifiable plans when enforcement is on.

TEST(AdmissionGate, FftExecutorRejectsCorruptPlans) {
  EnforcementGuard guard;
  verify::set_enforcement(1);
  const auto tree = plan::parse_tree("ct(16,16)");
  tree->right = plan::make_leaf(8);  // 16*8 != 256
  try {
    fft::FftExecutor exec(*tree);
    FAIL() << "corrupt plan admitted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FftExecutor"), std::string::npos) << what;
    EXPECT_NE(what.find("size_product"), std::string::npos) << what;
  }
}

TEST(AdmissionGate, WhtExecutorRejectsCorruptPlans) {
  EnforcementGuard guard;
  verify::set_enforcement(1);
  const auto tree = plan::parse_tree("ct(4,4)");
  tree->right->n = 8;  // still a power of two, so only the verifier objects
  EXPECT_THROW(wht::WhtExecutor exec(*tree), std::invalid_argument);
}

TEST(AdmissionGate, ValidPlansAreAdmitted) {
  EnforcementGuard guard;
  verify::set_enforcement(1);
  const auto tree = plan::parse_tree("ctddl(ct(8,8),16)");
  EXPECT_NO_THROW(fft::FftExecutor exec(*tree));
  EXPECT_NO_THROW(wht::WhtExecutor exec(*tree));
  verify::set_enforcement(0);
  EXPECT_NO_THROW(fft::FftExecutor exec(*tree));
}

TEST(AdmissionGate, EnforcementOverridePrecedence) {
  EnforcementGuard guard;
  verify::set_enforcement(1);
  EXPECT_TRUE(verify::enforcement_enabled());
  verify::set_enforcement(0);
  EXPECT_FALSE(verify::enforcement_enabled());
  EXPECT_THROW(verify::set_enforcement(7), std::invalid_argument);
}

}  // namespace
