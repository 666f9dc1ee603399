#include "ddl/plan/grammar.hpp"

#include <cctype>
#include <stdexcept>
#include <string>

namespace ddl::plan {
namespace {

/// Minimal recursive-descent parser over the grammar in grammar.hpp.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  TreePtr parse() {
    TreePtr tree = parse_tree();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after tree");
    return tree;
  }

 private:
  TreePtr parse_tree() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    if (std::isdigit(static_cast<unsigned char>(text_[pos_]))) return parse_leaf();
    if (text_[pos_] == 's') return parse_stockham();  // only "st(...)" starts with 's'
    return parse_split();
  }

  index_t parse_integer() {
    index_t value = 0;
    bool any = false;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      value = value * 10 + (text_[pos_] - '0');
      ++pos_;
      any = true;
      if (value > (index_t{1} << 40)) fail("leaf size out of range");
    }
    if (!any || value < 1) fail("expected a positive integer leaf");
    return value;
  }

  TreePtr parse_leaf() { return make_leaf(parse_integer()); }

  TreePtr parse_stockham() {
    const std::size_t at = pos_;
    if (!consume("st")) fail("expected 'st'");
    expect('(');
    skip_ws();
    const index_t value = parse_integer();
    expect(')');
    // Positioned rejection, mirroring the degenerate-split checks below.
    if (value < 2 || (value & (value - 1)) != 0) {
      fail_at(at, "Stockham leaf size must be a power of two >= 2");
    }
    return make_stockham_leaf(value);
  }

  TreePtr parse_split() {
    skip_ws();
    const std::size_t at = pos_;  // position of the split keyword for diagnostics
    bool ddl = false;
    bool fused = false;
    if (consume("ctddlf")) {
      ddl = fused = true;
    } else if (consume("ctddl")) {
      ddl = true;
    } else if (consume("ct")) {
      ddl = false;
    } else {
      fail("expected 'ct', 'ctddl', or 'ctddlf'");
    }
    expect('(');
    TreePtr left = parse_tree();
    expect(',');
    TreePtr right = parse_tree();
    expect(')');
    // Reject degenerate splits here (rather than letting make_split throw)
    // so the error message carries the position of the offending split.
    if (ddl && left->n == 1) fail_at(at, "ddl flag on a size-1 left factor");
    if (ddl && right->n == 1) fail_at(at, "ddl flag on a size-1 right factor");
    if (left->n == 1 && right->n == 1) fail_at(at, "split of two size-1 factors");
    return make_split(std::move(left), std::move(right), ddl, fused);
  }

  bool consume(std::string_view word) {
    skip_ws();
    if (text_.substr(pos_, word.size()) != word) return false;
    // No keyword may match as a prefix of a longer one: "ct" is a prefix of
    // "ctddl", which is itself a prefix of "ctddlf".
    if (word == "ct" && text_.substr(pos_, 5) == "ctddl") return false;
    if (word == "ctddl" && text_.substr(pos_, 6) == "ctddlf") return false;
    pos_ += word.size();
    return true;
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  [[noreturn]] void fail(const std::string& what) const { fail_at(pos_, what); }

  [[noreturn]] void fail_at(std::size_t at, const std::string& what) const {
    throw std::invalid_argument("tree grammar error at offset " + std::to_string(at) + ": " +
                                what + " in \"" + std::string(text_) + "\"");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

TreePtr parse_tree(std::string_view text) { return Parser(text).parse(); }

bool round_trips(const Node& tree) {
  try {
    return equal(*parse_tree(to_string(tree)), tree);
  } catch (const std::invalid_argument&) {
    return false;  // rendering of a corrupted tree no longer re-parses
  }
}

}  // namespace ddl::plan
