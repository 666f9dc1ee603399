#pragma once
/// \file grammar.hpp
/// \brief Text grammar for factorization trees.
///
/// The CMU WHT package describes algorithmic choices "by a simple grammar,
/// which can be parsed to create different algorithms" (paper Sec. II-B);
/// this is our equivalent. The grammar, matching the notation of the
/// paper's Tables I/V/VI:
///
///   tree   := leaf | split
///   leaf   := integer | "st" "(" integer ")"  (e.g. "16", "st(1024)")
///   split  := ("ct" | "ctddl" | "ctddlf") "(" tree "," tree ")"
///
/// "ct(a,b)" is a static-layout Cooley–Tukey split; "ctddl(a,b)" is a split
/// whose left stage is executed through a dynamic data layout
/// (reorganize -> unit-stride -> restore); "ctddlf(a,b)" is a ddl split
/// whose twiddle pass is fused into the restoring scatter (one sweep).
/// "st(n)" is a Stockham autosort-FFT leaf (power-of-two n; FFT plans
/// only). Whitespace is ignored. Examples from the paper:
/// "ct(16,ct(16,4))", "ctddl(1024,ctddl(32,32))".

#include <string>
#include <string_view>

#include "ddl/plan/tree.hpp"

namespace ddl::plan {

/// Parse a tree from its textual form. Throws std::invalid_argument with a
/// position-annotated message on malformed input, including degenerate
/// splits the executors refuse to run (a `ddl` flag on a size-1 factor, or
/// a split of two size-1 children).
TreePtr parse_tree(std::string_view text);

/// Round-trip check helper: true iff parse_tree(to_string(tree)) is
/// structurally equal to `tree`. Holds for every tree the library
/// constructs; returns false (never throws) for corrupted trees whose
/// rendering no longer re-parses. Used by ddl::verify as a rule.
bool round_trips(const Node& tree);

}  // namespace ddl::plan
