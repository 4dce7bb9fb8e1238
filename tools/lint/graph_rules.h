// Phase 2 of the two-phase analyzer: rules over the cross-TU symbol index.
//
//   no-wall-clock      no wall-clock read outside the sanctioned barrier
//                      files ([rule.no-wall-clock] allow), reported at the
//                      site itself in every scanned file; and no function
//                      in the determinism-critical layers (`paths`) may
//                      reach one transitively, through helpers in any TU.
//   no-raw-rand        same, for raw randomness outside util/rng.
//   layering           the #include graph must respect the configured DAG
//                      ([layers] ranks); back-edges, unsanctioned sibling
//                      edges, and include cycles are reported with the
//                      full path.
//
// The hazard rules turn file-prefix allowlists into call-graph-verified
// edges: an allowlisted file is a *barrier* — functions defined there
// neither seed taint (they are the reviewed home of the hazard) nor
// propagate it upward.
#pragma once

#include <memory>

#include "rules.h"

namespace spineless::lint {

std::unique_ptr<Rule> make_no_wall_clock_rule();
std::unique_ptr<Rule> make_no_raw_rand_rule();
std::unique_ptr<Rule> make_layering_rule();

}  // namespace spineless::lint
