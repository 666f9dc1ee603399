#pragma once
/// \file tree.hpp
/// \brief Factorization trees: the shared plan representation for FFT and WHT.
///
/// A tree describes how a transform of size n is decomposed by the
/// divide-and-conquer identity (Cooley–Tukey for the DFT, the tensor
/// identity for the WHT). A leaf is an unfactorized transform computed by a
/// codelet; a split node has two children with n = left->n * right->n.
///
/// Strides are *implied*, not stored, per Property 1 of the paper: the root
/// has unit stride, the left child of a node (n, s) split as n1*n2 has
/// stride s*n2, and the right child has stride s. A split node may carry the
/// `ddl` flag, meaning its left stage is executed through a dynamic data
/// layout: the node's data is reorganized to contiguous storage first, the
/// left sub-transforms run at unit stride, and the layout is restored.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ddl/common/types.hpp"

namespace ddl::plan {

struct Node;
using TreePtr = std::unique_ptr<Node>;

/// One node of a factorization tree. Value-owned children; a node is a leaf
/// iff it has no children (left and right are always both set or both null).
struct Node {
  index_t n = 0;       ///< transform size at this node
  bool ddl = false;    ///< split only: left stage runs via data reorganization
  bool fused = false;  ///< ddl split only: twiddle applied during the scatter
                       ///< (one sweep instead of twiddle-cols + scatter)
  bool stockham = false;  ///< leaf only: computed by the autosort (Stockham)
                          ///< FFT instead of a codelet; power-of-two sizes
  TreePtr left;        ///< left factor (size n1), computed at stride s*n2
  TreePtr right;       ///< right factor (size n2), computed at stride s

  [[nodiscard]] bool is_leaf() const noexcept { return left == nullptr; }
};

/// Make a leaf of size n (n >= 1).
TreePtr make_leaf(index_t n);

/// Make a Stockham (autosort FFT) leaf of size n (a power of two >= 2).
/// FFT-only: WHT plans reject these in ddl::verify.
TreePtr make_stockham_leaf(index_t n);

/// Make a split node; requires both children non-null. Degenerate splits
/// are rejected (std::invalid_argument): a ddl flag on a size-1 left or
/// right factor, and splits of two size-1 children. `fused` marks a ddl
/// split whose twiddle pass rides the reorg scatter (requires ddl).
TreePtr make_split(TreePtr left, TreePtr right, bool ddl = false, bool fused = false);

/// Deep copy.
TreePtr clone(const Node& node);

/// Structural equality (sizes, shape, ddl flags).
bool equal(const Node& a, const Node& b);

/// Number of leaves.
index_t leaf_count(const Node& node);

/// Height (a leaf has height 1).
int height(const Node& node);

/// Number of split nodes carrying the ddl flag.
int ddl_node_count(const Node& node);

/// Visit every node with its implied physical stride (root_stride for the
/// root, Property 1 below it). When a ddl split is entered, its subtree's
/// strides are the *post-reorganization* strides (left stage at unit base).
/// Visitation order is: node, left subtree, right subtree.
void for_each_node(const Node& node, index_t root_stride,
                   const std::function<void(const Node&, index_t stride)>& visit);

/// Render in the grammar of grammar.hpp, e.g. "ct(16,ctddl(32,64))".
/// Fused ddl splits render as "ctddlf(...)", Stockham leaves as "st(n)".
std::string to_string(const Node& node);

/// Convenience: fully right-expanded tree over the given leaf sizes,
/// e.g. {16, 16, 4} -> ct(16, ct(16, 4)).
TreePtr right_spine(const std::vector<index_t>& leaf_sizes);

/// Render as a Graphviz digraph. Nodes are labelled "size @ stride"
/// (strides per Property 1, from root_stride); ddl splits are drawn filled
/// so reorganization points are visible at a glance. Paste the output into
/// `dot -Tsvg` to visualize a plan.
std::string to_dot(const Node& tree, index_t root_stride = 1);

}  // namespace ddl::plan
