#include "ddl/plan/tree.hpp"

#include <algorithm>

#include "ddl/common/check.hpp"
#include "ddl/common/mathutil.hpp"

namespace ddl::plan {

TreePtr make_leaf(index_t n) {
  DDL_REQUIRE(n >= 1, "leaf size must be >= 1");
  auto node = std::make_unique<Node>();
  node->n = n;
  return node;
}

TreePtr make_stockham_leaf(index_t n) {
  // The autosort FFT only exists for power-of-two sizes; size 1 is a no-op
  // a plain leaf already covers.
  DDL_REQUIRE(n >= 2 && is_pow2(n), "Stockham leaf size must be a power of two >= 2");
  auto node = std::make_unique<Node>();
  node->n = n;
  node->stockham = true;
  return node;
}

TreePtr make_split(TreePtr left, TreePtr right, bool ddl, bool fused) {
  DDL_REQUIRE(left != nullptr && right != nullptr, "split needs two children");
  // Degenerate splits are rejected at construction: reorganizing a matrix
  // with a size-1 dimension is a pure pack/unpack (the "dynamic layout" can
  // not change any stride), and a 1x1 split adds tree depth for a size-1
  // transform. The planners never produce these; hand-built trees must not.
  DDL_REQUIRE(!(ddl && left->n == 1), "ddl flag on a size-1 left factor");
  DDL_REQUIRE(!(ddl && right->n == 1), "ddl flag on a size-1 right factor");
  DDL_REQUIRE(left->n > 1 || right->n > 1, "split of two size-1 factors");
  // The fused pass is the ddl scatter with twiddles applied in flight; it
  // has no meaning on a static split (there is no scatter to ride).
  DDL_REQUIRE(!fused || ddl, "fused twiddle+scatter requires a ddl split");
  auto node = std::make_unique<Node>();
  node->n = left->n * right->n;
  node->ddl = ddl;
  node->fused = fused;
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

TreePtr clone(const Node& node) {
  if (node.is_leaf()) return node.stockham ? make_stockham_leaf(node.n) : make_leaf(node.n);
  return make_split(clone(*node.left), clone(*node.right), node.ddl, node.fused);
}

bool equal(const Node& a, const Node& b) {
  if (a.n != b.n || a.is_leaf() != b.is_leaf()) return false;
  if (a.is_leaf()) return a.stockham == b.stockham;
  return a.ddl == b.ddl && a.fused == b.fused && equal(*a.left, *b.left) &&
         equal(*a.right, *b.right);
}

index_t leaf_count(const Node& node) {
  if (node.is_leaf()) return 1;
  return leaf_count(*node.left) + leaf_count(*node.right);
}

int height(const Node& node) {
  if (node.is_leaf()) return 1;
  return 1 + std::max(height(*node.left), height(*node.right));
}

int ddl_node_count(const Node& node) {
  if (node.is_leaf()) return 0;
  return (node.ddl ? 1 : 0) + ddl_node_count(*node.left) + ddl_node_count(*node.right);
}

void for_each_node(const Node& node, index_t root_stride,
                   const std::function<void(const Node&, index_t stride)>& visit) {
  visit(node, root_stride);
  if (node.is_leaf()) return;
  // Property 1: left child stride = s * n2, right child stride = s.
  // A ddl split reorganizes its data to contiguous scratch before the left
  // stage, so the left subtree sees base stride 1 (hence stride n2 for the
  // left child within the packed matrix is already accounted by the gather:
  // columns become fully contiguous, i.e. the left child runs at stride 1).
  const index_t n2 = node.right->n;
  const index_t left_stride = node.ddl ? 1 : root_stride * n2;
  for_each_node(*node.left, left_stride, visit);
  for_each_node(*node.right, root_stride, visit);
}

std::string to_string(const Node& node) {
  if (node.is_leaf()) {
    if (node.stockham) return "st(" + std::to_string(node.n) + ")";
    return std::to_string(node.n);
  }
  std::string out = node.ddl ? (node.fused ? "ctddlf(" : "ctddl(") : "ct(";
  out += to_string(*node.left);
  out += ',';
  out += to_string(*node.right);
  out += ')';
  return out;
}

namespace {

/// Emit one node and its subtree; returns this node's id.
int dot_node(const Node& node, index_t stride, int& next_id, std::string& out) {
  const int id = next_id++;
  std::string label = std::to_string(node.n) + " @ " + std::to_string(stride);
  if (!node.is_leaf() && node.ddl) {
    label += node.fused ? "\\nddl fused" : "\\nddl";
  }
  if (node.is_leaf() && node.stockham) label += "\\nstockham";
  out += "  n" + std::to_string(id) + " [label=\"" + label + "\"";
  if (node.is_leaf()) {
    out += ", shape=box";
  } else if (node.ddl) {
    out += ", style=filled, fillcolor=lightblue";
  }
  out += "];\n";
  if (!node.is_leaf()) {
    const index_t n2 = node.right->n;
    const index_t left_stride = node.ddl ? 1 : stride * n2;
    const int left = dot_node(*node.left, left_stride, next_id, out);
    const int right = dot_node(*node.right, stride, next_id, out);
    out += "  n" + std::to_string(id) + " -> n" + std::to_string(left) + ";\n";
    out += "  n" + std::to_string(id) + " -> n" + std::to_string(right) + ";\n";
  }
  return id;
}

}  // namespace

std::string to_dot(const Node& tree, index_t root_stride) {
  std::string out = "digraph plan {\n  node [fontname=\"monospace\"];\n";
  int next_id = 0;
  dot_node(tree, root_stride, next_id, out);
  out += "}\n";
  return out;
}

TreePtr right_spine(const std::vector<index_t>& leaf_sizes) {
  DDL_REQUIRE(!leaf_sizes.empty(), "right_spine needs at least one leaf");
  TreePtr tree = make_leaf(leaf_sizes.back());
  for (auto it = leaf_sizes.rbegin() + 1; it != leaf_sizes.rend(); ++it) {
    tree = make_split(make_leaf(*it), std::move(tree));
  }
  return tree;
}

}  // namespace ddl::plan
