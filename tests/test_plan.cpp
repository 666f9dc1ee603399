// Tests for the plan infrastructure: trees, implied strides (Property 1),
// the grammar parser/printer, the cost database, wisdom persistence, and
// DDLSNAP snapshots of both stores.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "ddl/fft/plan_cache.hpp"
#include "ddl/plan/costdb.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/plan/snapshot.hpp"
#include "ddl/plan/tree.hpp"
#include "ddl/plan/wisdom.hpp"

namespace ddl::plan {
namespace {

std::filesystem::path temp_file(const char* tag) {
  return std::filesystem::temp_directory_path() /
         (std::string("ddl_test_") + tag + "_" + std::to_string(::getpid()) + ".txt");
}

// ---------------------------------------------------------------------------
// Tree construction and metrics
// ---------------------------------------------------------------------------

TEST(Tree, LeafAndSplitBasics) {
  auto leaf = make_leaf(16);
  EXPECT_TRUE(leaf->is_leaf());
  EXPECT_EQ(leaf->n, 16);

  auto split = make_split(make_leaf(4), make_leaf(8), true);
  EXPECT_FALSE(split->is_leaf());
  EXPECT_EQ(split->n, 32);
  EXPECT_TRUE(split->ddl);
  EXPECT_EQ(split->left->n, 4);
  EXPECT_EQ(split->right->n, 8);
}

TEST(Tree, Validation) {
  EXPECT_THROW(make_leaf(0), std::invalid_argument);
  EXPECT_THROW(make_split(nullptr, make_leaf(2)), std::invalid_argument);
  EXPECT_THROW(make_split(make_leaf(2), nullptr), std::invalid_argument);
}

TEST(Tree, Metrics) {
  auto t = make_split(make_split(make_leaf(2), make_leaf(4), true),
                      make_split(make_leaf(8), make_leaf(16)), false);
  EXPECT_EQ(t->n, 2 * 4 * 8 * 16);
  EXPECT_EQ(leaf_count(*t), 4);
  EXPECT_EQ(height(*t), 3);
  EXPECT_EQ(ddl_node_count(*t), 1);

  auto leaf = make_leaf(7);
  EXPECT_EQ(leaf_count(*leaf), 1);
  EXPECT_EQ(height(*leaf), 1);
  EXPECT_EQ(ddl_node_count(*leaf), 0);
}

TEST(Tree, CloneAndEqual) {
  auto t = parse_tree("ct(ctddl(4,8),ct(16,2))");
  auto c = clone(*t);
  EXPECT_TRUE(equal(*t, *c));
  c->right->ddl = true;
  EXPECT_FALSE(equal(*t, *c));
  EXPECT_FALSE(equal(*make_leaf(4), *make_leaf(8)));
  EXPECT_FALSE(equal(*make_leaf(32), *parse_tree("ct(4,8)")));
}

TEST(Tree, RightSpineShape) {
  auto t = right_spine({16, 16, 4});
  EXPECT_EQ(t->n, 1024);
  EXPECT_TRUE(t->left->is_leaf());
  EXPECT_EQ(t->left->n, 16);
  EXPECT_FALSE(t->right->is_leaf());
  EXPECT_EQ(t->right->left->n, 16);
  EXPECT_EQ(t->right->right->n, 4);
  EXPECT_TRUE(t->right->right->is_leaf());
}

// ---------------------------------------------------------------------------
// Property 1: implied strides
// ---------------------------------------------------------------------------

TEST(Tree, Property1StrideAssignment) {
  // ct(a, b) at stride s: left child stride s*b, right child stride s.
  auto t = parse_tree("ct(ct(4,8),ct(16,2))");  // n = 1024
  std::vector<std::pair<index_t, index_t>> seen;  // (size, stride)
  for_each_node(*t, 1, [&](const Node& nd, index_t s) { seen.emplace_back(nd.n, s); });
  // Pre-order: root(1024,1), left(32, 1*32=32), 4@32*8=256, 8@32,
  //            right(32,1), 16@1*2=2, 2@1.
  const std::vector<std::pair<index_t, index_t>> expect = {
      {1024, 1}, {32, 32}, {4, 256}, {8, 32}, {32, 1}, {16, 2}, {2, 1}};
  EXPECT_EQ(seen, expect);
}

TEST(Tree, DdlNodeResetsLeftSubtreeStride) {
  // A ddl split's left stage runs at unit stride after reorganization.
  auto t = parse_tree("ctddl(ct(4,8),32)");  // n = 1024
  std::vector<std::pair<index_t, index_t>> seen;
  for_each_node(*t, 1, [&](const Node& nd, index_t s) { seen.emplace_back(nd.n, s); });
  const std::vector<std::pair<index_t, index_t>> expect = {
      {1024, 1}, {32, 1}, {4, 8}, {8, 1}, {32, 1}};
  EXPECT_EQ(seen, expect);
}

TEST(Tree, RootStridePropagates) {
  auto t = parse_tree("ct(2,2)");
  std::vector<index_t> strides;
  for_each_node(*t, 16, [&](const Node&, index_t s) { strides.push_back(s); });
  EXPECT_EQ(strides, (std::vector<index_t>{16, 32, 16}));
}

// ---------------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------------

class GrammarRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(GrammarRoundTrip, ParsePrintParse) {
  auto t = parse_tree(GetParam());
  EXPECT_EQ(to_string(*t), GetParam());
  auto t2 = parse_tree(to_string(*t));
  EXPECT_TRUE(equal(*t, *t2));
}

INSTANTIATE_TEST_SUITE_P(Forms, GrammarRoundTrip,
                         ::testing::Values("16", "ct(4,4)", "ctddl(16,16)",
                                           "ct(ctddl(32,32),ct(32,2))",
                                           "ctddl(ctddl(2,ct(3,5)),ctddl(7,9))",
                                           "ct(1048576,2)", "ctddlf(16,16)", "st(1024)",
                                           "ctddlf(st(32),ctddl(8,st(4)))",
                                           "ct(st(2),ctddlf(16,ctddlf(8,8)))"));

TEST(Grammar, FusedAndStockhamFlagsSurviveCloneAndEqual) {
  const auto t = parse_tree("ctddlf(st(32),ctddl(8,4))");
  EXPECT_TRUE(t->ddl);
  EXPECT_TRUE(t->fused);
  EXPECT_TRUE(t->left->stockham);
  const auto c = clone(*t);
  EXPECT_TRUE(equal(*t, *c));
  // The flags are part of tree identity: dropping either breaks equality.
  c->fused = false;
  EXPECT_FALSE(equal(*t, *c));
  c->fused = true;
  c->left->stockham = false;
  EXPECT_FALSE(equal(*t, *c));
  // And a plain leaf never equals a Stockham leaf of the same size.
  EXPECT_FALSE(equal(*make_leaf(32), *parse_tree("st(32)")));
}

TEST(Grammar, FusedAndStockhamErrors) {
  // ctddlf is the only fused spelling — there is no "ctf" (fused requires
  // the ddl reorganization to fuse into) — and st() takes one pow2 size.
  EXPECT_THROW(parse_tree("ctf(4,4)"), std::invalid_argument);
  EXPECT_THROW(parse_tree("st(12)"), std::invalid_argument);
  EXPECT_THROW(parse_tree("st(0)"), std::invalid_argument);
  EXPECT_THROW(parse_tree("st(4,4)"), std::invalid_argument);
  EXPECT_THROW(parse_tree("st(ct(2,2))"), std::invalid_argument);
}

TEST(Grammar, WhitespaceTolerated) {
  auto t = parse_tree("  ct ( 4 , ctddl( 8 , 2 ) ) ");
  EXPECT_EQ(to_string(*t), "ct(4,ctddl(8,2))");
}

TEST(Grammar, Errors) {
  EXPECT_THROW(parse_tree(""), std::invalid_argument);
  EXPECT_THROW(parse_tree("xt(4,4)"), std::invalid_argument);
  EXPECT_THROW(parse_tree("ct(4)"), std::invalid_argument);
  EXPECT_THROW(parse_tree("ct(4,4"), std::invalid_argument);
  EXPECT_THROW(parse_tree("ct(4,4))"), std::invalid_argument);
  EXPECT_THROW(parse_tree("ct(0,4)"), std::invalid_argument);
  EXPECT_THROW(parse_tree("ct(4,4)x"), std::invalid_argument);
  EXPECT_THROW(parse_tree("ctddl"), std::invalid_argument);
}

TEST(Grammar, ErrorMessageHasOffset) {
  try {
    parse_tree("ct(4,]");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// CostDb
// ---------------------------------------------------------------------------

TEST(CostDb, MemoizesMeasurement) {
  CostDb db;
  int calls = 0;
  auto probe = [&] {
    ++calls;
    return 1.5;
  };
  EXPECT_DOUBLE_EQ(db.get_or_measure({"k", 8, 2, 0}, probe), 1.5);
  EXPECT_DOUBLE_EQ(db.get_or_measure({"k", 8, 2, 0}, probe), 1.5);
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(db.get_or_measure({"k", 8, 3, 0}, probe), 1.5);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(db.size(), 2u);
}

TEST(CostDb, ContainsAndPut) {
  CostDb db;
  EXPECT_FALSE(db.contains({"x", 1, 1, 1}));
  db.put({"x", 1, 1, 1}, 0.25);
  EXPECT_TRUE(db.contains({"x", 1, 1, 1}));
  EXPECT_DOUBLE_EQ(db.get_or_measure({"x", 1, 1, 1}, [] { return 9.0; }), 0.25);
}

TEST(CostDb, RejectsNegativeMeasurement) {
  CostDb db;
  EXPECT_THROW(db.get_or_measure({"bad", 0, 0, 0}, [] { return -1.0; }), std::logic_error);
}

TEST(CostDb, SaveLoadRoundTrip) {
  const auto file = temp_file("costdb");
  {
    CostDb db;
    db.put({"dft_leaf", 16, 4, 0}, 1.25e-7);
    db.put({"reorg", 32, 64, 2}, 3.5e-6);
    EXPECT_TRUE(db.save(file));
  }
  CostDb loaded;
  EXPECT_TRUE(loaded.load(file));
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.get_or_measure({"dft_leaf", 16, 4, 0}, [] { return 0.0; }), 1.25e-7);
  EXPECT_DOUBLE_EQ(loaded.get_or_measure({"reorg", 32, 64, 2}, [] { return 0.0; }), 3.5e-6);
  std::filesystem::remove(file);
}

TEST(CostDb, LoadMissingFileFails) {
  CostDb db;
  EXPECT_FALSE(db.load("/nonexistent/path/costdb.txt"));
  EXPECT_NE(db.load_error().find("cannot open"), std::string::npos);
}

namespace {

void write_text(const std::filesystem::path& file, const std::string& text) {
  std::ofstream os(file);
  os << text;
}

std::string read_bytes(const std::filesystem::path& file) {
  std::ifstream is(file, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace

// Regression: put() used to bypass the seconds >= 0 invariant that
// get_or_measure enforced, so a planner bug could poison the database with
// costs that save/load would then round-trip forever.
TEST(CostDb, PutRejectsNonFiniteAndNegative) {
  CostDb db;
  EXPECT_THROW(db.put({"x", 1, 1, 0}, -1.0), std::logic_error);
  EXPECT_THROW(db.put({"x", 1, 1, 0}, std::numeric_limits<double>::quiet_NaN()),
               std::logic_error);
  EXPECT_THROW(db.put({"x", 1, 1, 0}, std::numeric_limits<double>::infinity()),
               std::logic_error);
  EXPECT_EQ(db.size(), 0u);
  db.put({"x", 1, 1, 0}, 0.0);  // zero is a valid measured cost
  EXPECT_EQ(db.size(), 1u);
}

// Regression: load() used to skip unparseable lines silently, so a
// truncated write (power loss mid-save) read back as a smaller but
// "successfully" loaded database. Now any bad line rejects the whole file,
// names the line, and leaves the in-memory table untouched.
TEST(CostDb, LoadRejectsTruncatedFileAtomically) {
  const auto file = temp_file("costdb_trunc");
  write_text(file, "dft_leaf 16 1 0 - 1.25e-07\nreorg 32 64 2 -\n");
  CostDb db;
  db.put({"keep", 2, 1, 0}, 0.5);
  EXPECT_FALSE(db.load(file));
  EXPECT_NE(db.load_error().find(":2:"), std::string::npos) << db.load_error();
  EXPECT_EQ(db.size(), 1u);  // prior contents survive the failed load
  EXPECT_TRUE(db.contains({"keep", 2, 1, 0}));
  EXPECT_FALSE(db.contains({"dft_leaf", 16, 1, 0}));
  std::filesystem::remove(file);
}

TEST(CostDb, LoadRejectsNegativeAndNonFiniteCosts) {
  const auto file = temp_file("costdb_badcost");
  CostDb db;
  write_text(file, "dft_leaf 16 1 0 - -2.5e-07\n");
  EXPECT_FALSE(db.load(file));
  EXPECT_NE(db.load_error().find(":1:"), std::string::npos) << db.load_error();
  write_text(file, "ok 8 1 0 - 1e-9\ndft_leaf 16 1 0 - nan\n");
  EXPECT_FALSE(db.load(file));
  EXPECT_NE(db.load_error().find(":2:"), std::string::npos) << db.load_error();
  write_text(file, "dft_leaf 16 1 0 - inf\n");
  EXPECT_FALSE(db.load(file));
  EXPECT_EQ(db.size(), 0u);
  std::filesystem::remove(file);
}

TEST(CostDb, LoadRejectsGarbageNumbers) {
  const auto file = temp_file("costdb_garbage");
  CostDb db;
  write_text(file, "dft_leaf sixteen 1 0 - 1e-9\n");
  EXPECT_FALSE(db.load(file));
  write_text(file, "dft_leaf 16 1 0 - fast\n");
  EXPECT_FALSE(db.load(file));
  write_text(file, "dft_leaf 16 1 0 avx2 1e-9 trailing\n");
  EXPECT_FALSE(db.load(file));
  std::filesystem::remove(file);
}

// Pre-SIMD databases carry five tokens (no ISA column); they must still
// load, mapping to the scalar/unbatched entry (empty isa tag).
TEST(CostDb, LoadAcceptsLegacyFiveTokenLines) {
  const auto file = temp_file("costdb_legacy");
  write_text(file, "dft_leaf 16 1 0 1.25e-07\nreorg 32 64 2 3.5e-06\n");
  CostDb db;
  EXPECT_TRUE(db.load(file)) << db.load_error();
  EXPECT_EQ(db.size(), 2u);
  EXPECT_TRUE(db.contains({"dft_leaf", 16, 1, 0}));  // isa defaults to ""
  EXPECT_TRUE(db.contains({"reorg", 32, 64, 2, ""}));
  std::filesystem::remove(file);
}

// save -> load -> save must be byte-identical: the table is ordered and the
// text format loses no precision, so the database is a stable fixed point
// (re-saving a tuned database never churns the file).
TEST(CostDb, SaveLoadSaveIsByteIdentical) {
  const auto first = temp_file("costdb_rt1");
  const auto second = temp_file("costdb_rt2");
  CostDb db;
  db.put({"dft_leaf", 16, 1, 0, "avx2"}, 1.0 / 3.0 * 1e-7);
  db.put({"dft_leaf", 16, 1, 0, ""}, 7.25e-7);
  db.put({"reorg", 32, 64, 2}, 3.5e-6);
  db.put({"wht_leaf", 64, 1, 0, "sse2"}, 0.1234567890123456789e-6);
  EXPECT_TRUE(db.save(first));
  CostDb loaded;
  EXPECT_TRUE(loaded.load(first)) << loaded.load_error();
  EXPECT_TRUE(loaded.save(second));
  EXPECT_EQ(read_bytes(first), read_bytes(second));
  std::filesystem::remove(first);
  std::filesystem::remove(second);
}

// Calibrated provenance: entries ingested from traced runs carry a seventh
// "calib" token and survive save/load as calibrated; probe entries keep the
// legacy six-token form so uncalibrated databases stay byte-identical.
TEST(CostDb, CalibratedProvenanceSurvivesSaveLoad) {
  const auto file = temp_file("costdb_calib");
  CostDb db;
  db.put({"dft_leaf", 16, 1, 0}, 1e-7);  // probe (default source)
  db.put({"reorg_g", 32, 64, 1}, 2e-6, CostSource::calibrated);
  db.put({"fused_tws", 32, 64, 1, "avx2"}, 1.5e-6, CostSource::calibrated);
  EXPECT_FALSE(db.is_calibrated({"dft_leaf", 16, 1, 0}));
  EXPECT_TRUE(db.is_calibrated({"reorg_g", 32, 64, 1}));
  EXPECT_FALSE(db.is_calibrated({"missing", 1, 1, 0}));
  EXPECT_TRUE(db.save(file));

  const std::string text = read_bytes(file);
  EXPECT_NE(text.find("calib"), std::string::npos);
  EXPECT_EQ(text.find("dft_leaf 16 1 0 - 1e-07 calib"), std::string::npos)
      << "probe entry must not gain the provenance token";

  CostDb loaded;
  ASSERT_TRUE(loaded.load(file)) << loaded.load_error();
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_FALSE(loaded.is_calibrated({"dft_leaf", 16, 1, 0}));
  EXPECT_TRUE(loaded.is_calibrated({"reorg_g", 32, 64, 1}));
  EXPECT_TRUE(loaded.is_calibrated({"fused_tws", 32, 64, 1, "avx2"}));

  // A garbage seventh token is a corrupt file, not a silently ignored tag.
  write_text(file, "dft_leaf 16 1 0 - 1e-07 tuned\n");
  CostDb strict;
  EXPECT_FALSE(strict.load(file));
  std::filesystem::remove(file);
}

// put() is last-writer-wins for both value and provenance: recalibration
// refreshes a stale measurement, and a deliberate probe overwrite visibly
// clears the calibrated mark rather than keeping it on a synthetic value.
TEST(CostDb, PutOverwritesValueAndProvenance) {
  CostDb db;
  db.put({"stockham", 1024, 1, 0}, 5e-6, CostSource::calibrated);
  db.put({"stockham", 1024, 1, 0}, 4e-6, CostSource::calibrated);
  EXPECT_DOUBLE_EQ(db.get_or_measure({"stockham", 1024, 1, 0}, [] { return 0.0; }), 4e-6);
  EXPECT_TRUE(db.is_calibrated({"stockham", 1024, 1, 0}));
  db.put({"stockham", 1024, 1, 0}, 6e-6);  // probe source
  EXPECT_FALSE(db.is_calibrated({"stockham", 1024, 1, 0}));
}

// ---------------------------------------------------------------------------
// Wisdom
// ---------------------------------------------------------------------------

TEST(Wisdom, RememberRecall) {
  Wisdom w;
  EXPECT_FALSE(w.recall("fft", "ddl_dp", 1024).has_value());
  w.remember("fft", "ddl_dp", 1024, {"ctddl(32,32)", 1e-5});
  const auto hit = w.recall("fft", "ddl_dp", 1024);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tree, "ctddl(32,32)");
  EXPECT_DOUBLE_EQ(hit->seconds, 1e-5);
  EXPECT_FALSE(w.recall("wht", "ddl_dp", 1024).has_value());
  EXPECT_FALSE(w.recall("fft", "sdl_dp", 1024).has_value());
}

TEST(Wisdom, OverwriteKeepsLatest) {
  Wisdom w;
  w.remember("fft", "ddl_dp", 64, {"ct(8,8)", 2.0});
  w.remember("fft", "ddl_dp", 64, {"ctddl(8,8)", 1.0});
  EXPECT_EQ(w.recall("fft", "ddl_dp", 64)->tree, "ctddl(8,8)");
}

TEST(Wisdom, SaveLoadRoundTrip) {
  const auto file = temp_file("wisdom");
  {
    Wisdom w;
    w.remember("fft", "ddl_dp", 65536, {"ctddl(ct(16,16),ct(16,16))", 4.25e-4});
    w.remember("wht", "sdl_dp", 256, {"ct(16,16)", 1e-6});
    EXPECT_TRUE(w.save(file));
  }
  Wisdom loaded;
  EXPECT_TRUE(loaded.load(file));
  EXPECT_EQ(loaded.size(), 2u);
  const auto hit = loaded.recall("fft", "ddl_dp", 65536);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tree, "ctddl(ct(16,16),ct(16,16))");
  EXPECT_DOUBLE_EQ(hit->seconds, 4.25e-4);
  std::filesystem::remove(file);
}

// Regression: like CostDb, Wisdom::load used to skip bad lines silently —
// a corrupted wisdom file downgraded to "fewer plans" instead of an error.
TEST(Wisdom, LoadRejectsTruncatedFileAtomically) {
  const auto file = temp_file("wisdom_trunc");
  write_text(file, "fft ddl_dp 1024 1e-5 ctddl(32,32)\nwht sdl_dp 256\n");
  Wisdom w;
  w.remember("fft", "ddl_dp", 64, {"ct(8,8)", 2.0});
  EXPECT_FALSE(w.load(file));
  EXPECT_NE(w.load_error().find(":2:"), std::string::npos) << w.load_error();
  EXPECT_EQ(w.size(), 1u);  // prior contents survive
  EXPECT_TRUE(w.recall("fft", "ddl_dp", 64).has_value());
  EXPECT_FALSE(w.recall("fft", "ddl_dp", 1024).has_value());
  std::filesystem::remove(file);
}

TEST(Wisdom, LoadRejectsBadSecondsAndBadTrees) {
  const auto file = temp_file("wisdom_bad");
  Wisdom w;
  write_text(file, "fft ddl_dp 1024 -1e-5 ctddl(32,32)\n");
  EXPECT_FALSE(w.load(file));
  write_text(file, "fft ddl_dp 1024 nan ctddl(32,32)\n");
  EXPECT_FALSE(w.load(file));
  write_text(file, "fft ddl_dp 1024 1e-5 ctddl(32,oops)\n");
  EXPECT_FALSE(w.load(file));
  EXPECT_NE(w.load_error().find(":1:"), std::string::npos) << w.load_error();
  // Tree parses but its size contradicts the key: also rejected.
  write_text(file, "fft ddl_dp 2048 1e-5 ctddl(32,32)\n");
  EXPECT_FALSE(w.load(file));
  EXPECT_EQ(w.size(), 0u);
  std::filesystem::remove(file);
}

TEST(Wisdom, SaveLoadSaveIsByteIdentical) {
  const auto first = temp_file("wisdom_rt1");
  const auto second = temp_file("wisdom_rt2");
  Wisdom w;
  w.remember("fft", "ddl_dp", 65536, {"ctddl(ct(16,16),ct(16,16))", 1.0 / 3.0 * 1e-3});
  w.remember("fft", "rightmost", 1024, {"ct(32,32)", 5.5e-6});
  w.remember("wht", "sdl_dp", 256, {"ct(16,16)", 1e-6});
  EXPECT_TRUE(w.save(first));
  Wisdom loaded;
  EXPECT_TRUE(loaded.load(first)) << loaded.load_error();
  EXPECT_TRUE(loaded.save(second));
  EXPECT_EQ(read_bytes(first), read_bytes(second));
  std::filesystem::remove(first);
  std::filesystem::remove(second);
}

// ---------------------------------------------------------------------------
// DDLSNAP snapshots: byte-identical round-trip, fail-closed merges
// ---------------------------------------------------------------------------

void fill_stores(CostDb& costs, Wisdom& wisdom) {
  costs.put({"dft_leaf", 16, 1, 0, "avx2"}, 1.25e-8, CostSource::calibrated);
  costs.put({"dft_leaf", 32, 4, 0, ""}, 3.5e-8, CostSource::probe);
  costs.put({"reorg_gather", 256, 4096, 0, ""}, 9.75e-7, CostSource::probe);
  wisdom.remember("fft", "ddl_dp", 65536, {"ctddlf(st(256),st(256))", 4.0e-4});
  wisdom.remember("fft", "ddl_dp", 1 << 20, {"ctddlf(ct(16,16),st(4096))", 8.0e-3});
}

TEST(Snapshot, ExportMergeExportIsByteIdentical) {
  CostDb costs;
  Wisdom wisdom;
  fill_stores(costs, wisdom);

  const auto first = temp_file("snap_a");
  const auto second = temp_file("snap_b");
  ASSERT_TRUE(save_snapshot(first, costs, wisdom));

  CostDb merged_costs;
  Wisdom merged_wisdom;
  std::string error;
  ASSERT_TRUE(merge_snapshot(first, merged_costs, merged_wisdom, &error)) << error;
  EXPECT_EQ(merged_costs.size(), costs.size());
  EXPECT_EQ(merged_wisdom.size(), wisdom.size());

  ASSERT_TRUE(save_snapshot(second, merged_costs, merged_wisdom));
  EXPECT_EQ(read_bytes(first), read_bytes(second));
  std::filesystem::remove(first);
  std::filesystem::remove(second);
}

TEST(Snapshot, MergeIsLastWriterWinsPerKey) {
  CostDb costs;
  Wisdom wisdom;
  fill_stores(costs, wisdom);
  const auto file = temp_file("snap_lww");
  ASSERT_TRUE(save_snapshot(file, costs, wisdom));

  CostDb target;
  Wisdom target_wisdom;
  // Pre-existing entries: one overlapping key (overwritten), one foreign
  // key (preserved).
  target.put({"dft_leaf", 16, 1, 0, "avx2"}, 99.0, CostSource::probe);
  target.put({"dft_leaf", 8, 1, 0, "sse2"}, 5.0e-9, CostSource::calibrated);

  ASSERT_TRUE(merge_snapshot(file, target, target_wisdom, nullptr));
  EXPECT_EQ(target.size(), costs.size() + 1);  // foreign key survived
  // The snapshot's calibrated 1.25e-8 overwrote the stale probe value (the
  // measure closure must not run — the key is present).
  const double merged = target.get_or_measure({"dft_leaf", 16, 1, 0, "avx2"}, [] { return 0.0; });
  EXPECT_DOUBLE_EQ(merged, 1.25e-8);
  EXPECT_TRUE(target.is_calibrated({"dft_leaf", 16, 1, 0, "avx2"}));
  std::filesystem::remove(file);
}

TEST(Snapshot, CorruptFilesRejectedWithStoresUntouched) {
  const struct {
    const char* tag;
    const char* body;
  } cases[] = {
      {"bad_header", "DDLSNAP 2\ncostdb 0\nwisdom 0\n"},
      {"truncated", "DDLSNAP 1\ncostdb 3\ndft_leaf 16 1 0 - 1e-8\n"},
      {"bad_count", "DDLSNAP 1\ncostdb zillions\nwisdom 0\n"},
      {"bad_cost", "DDLSNAP 1\ncostdb 1\ndft_leaf 16 1 0 - -3.0\nwisdom 0\n"},
      {"bad_tree", "DDLSNAP 1\ncostdb 0\nwisdom 1\nfft ddl_dp 64 1e-5 ct(not,a,tree)\n"},
      {"size_mismatch", "DDLSNAP 1\ncostdb 0\nwisdom 1\nfft ddl_dp 128 1e-5 ct(16,16)\n"},
      {"trailing", "DDLSNAP 1\ncostdb 0\nwisdom 0\nsome trailing garbage\n"},
  };
  for (const auto& c : cases) {
    const auto file = temp_file(c.tag);
    write_text(file, c.body);
    CostDb costs;
    Wisdom wisdom;
    std::string error;
    EXPECT_FALSE(merge_snapshot(file, costs, wisdom, &error)) << c.tag;
    EXPECT_FALSE(error.empty()) << c.tag;
    EXPECT_EQ(costs.size(), 0u) << c.tag;  // fail-closed: nothing committed
    EXPECT_EQ(wisdom.size(), 0u) << c.tag;
    std::filesystem::remove(file);
  }
}

// Four-step "fs(n1,n2)" nodes are no longer part of the grammar. Wisdom and
// snapshot files written while they were carry such trees; both loaders must
// reject them with a line-numbered error and leave the stores as they were.
TEST(Snapshot, StaleFourStepTreesAreRejected) {
  const auto seed = [](CostDb& costs, Wisdom& wisdom) {
    costs.put({"keep", 2, 1, 0}, 0.5);
    wisdom.remember("fft", "ddl_dp", 64, {"ct(8,8)", 2.0});
  };

  const auto wisdom_file = temp_file("wisdom_fs");
  write_text(wisdom_file,
             "fft ddl_dp 1024 1e-5 ctddl(32,32)\n"
             "fft huge 1048576 8e-3 fs(ct(16,16),st(4096))\n");
  {
    CostDb costs;
    Wisdom wisdom;
    seed(costs, wisdom);
    EXPECT_FALSE(wisdom.load(wisdom_file));
    EXPECT_NE(wisdom.load_error().find(":2: bad tree"), std::string::npos)
        << wisdom.load_error();
    EXPECT_EQ(wisdom.size(), 1u);
    EXPECT_FALSE(wisdom.recall("fft", "ddl_dp", 1024).has_value());
  }
  std::filesystem::remove(wisdom_file);

  const auto snap_file = temp_file("snap_fs");
  write_text(snap_file,
             "DDLSNAP 1\n"
             "costdb 1\n"
             "dft_leaf 16 1 0 - 1e-8\n"
             "wisdom 1\n"
             "fft huge 1048576 8e-3 fs(ct(16,16),st(4096))\n");
  {
    CostDb costs;
    Wisdom wisdom;
    seed(costs, wisdom);
    std::string error;
    EXPECT_FALSE(merge_snapshot(snap_file, costs, wisdom, &error));
    EXPECT_NE(error.find(":5: bad tree"), std::string::npos) << error;
    EXPECT_EQ(costs.size(), 1u);  // the staged dft_leaf cost was not committed
    EXPECT_TRUE(costs.contains({"keep", 2, 1, 0}));
    EXPECT_EQ(wisdom.size(), 1u);
    EXPECT_TRUE(wisdom.recall("fft", "ddl_dp", 64).has_value());
  }
  std::filesystem::remove(snap_file);
}

TEST(Snapshot, MissingFileReportsOpenFailure) {
  CostDb costs;
  Wisdom wisdom;
  std::string error;
  EXPECT_FALSE(merge_snapshot(temp_file("nonexistent_zzz"), costs, wisdom, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------------------
// PlanCache eviction accounting
// ---------------------------------------------------------------------------

TEST(PlanCacheCounters, SetCapacityShrinkEvictsAndCounts) {
  // Regression: a set_capacity() shrink used to evict silently — cache
  // thrash at small capacity was indistinguishable from cold misses.
  auto& cache = fft::PlanCache::instance();
  cache.clear();
  cache.set_capacity(8);
  (void)cache.get("ct(4,4)");
  (void)cache.get("ct(8,8)");
  (void)cache.get("ct(16,16)");
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  cache.set_capacity(1);  // shrink: the two LRU-tail entries go immediately
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 2u);

  // The survivor is the most recently used entry, still servable.
  (void)cache.get("ct(16,16)");
  EXPECT_EQ(cache.hits(), 1u);

  cache.set_capacity(32);
  cache.clear();
  EXPECT_EQ(cache.evictions(), 0u);  // clear() resets the counter
}

}  // namespace
}  // namespace ddl::plan
