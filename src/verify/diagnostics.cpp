#include "ddl/verify/diagnostics.hpp"

#include <sstream>

namespace ddl::verify {

const char* rule_name(Rule rule) noexcept {
  switch (rule) {
    case Rule::size_product: return "size_product";
    case Rule::stride_bounds: return "stride_bounds";
    case Rule::ddl_legality: return "ddl_legality";
    case Rule::codelet_coverage: return "codelet_coverage";
    case Rule::twiddle_bounds: return "twiddle_bounds";
    case Rule::scratch_sizing: return "scratch_sizing";
    case Rule::chunk_overlap: return "chunk_overlap";
    case Rule::grammar_round_trip: return "grammar_round_trip";
    case Rule::svc_queue_bounds: return "svc_queue_bounds";
    case Rule::svc_bucket_limits: return "svc_bucket_limits";
    case Rule::stream_geometry: return "stream_geometry";
    case Rule::svc_tenant_policy: return "svc_tenant_policy";
    case Rule::svc_lane_rules: return "svc_lane_rules";
  }
  return "unknown";
}

bool Report::has(Rule rule) const noexcept {
  for (const auto& d : diagnostics) {
    if (d.rule == rule) return true;
  }
  return false;
}

std::string Report::to_string() const {
  if (ok()) return "plan verifies clean";
  std::ostringstream os;
  os << diagnostics.size() << " violation" << (diagnostics.size() == 1 ? "" : "s") << ":";
  for (const auto& d : diagnostics) {
    os << "\n  [" << rule_name(d.rule) << "] @ " << d.node_path << ": " << d.message;
    if (d.expected != 0 || d.actual != 0) {
      os << " (expected " << d.expected << ", got " << d.actual << ")";
    }
  }
  return os.str();
}

}  // namespace ddl::verify
