// Fingerprints of simulator outputs, used to prove that two runs produced
// the same numbers without a field-by-field comparison at every call site.
#pragma once

#include <cstdint>

#include "farm/metrics.hpp"

namespace perfbench {

/// Hash of every field of a TrialResult, doubles by bit pattern.  Equal
/// results hash equal; a result that differs in any field hashes
/// differently (up to 64-bit collisions).
[[nodiscard]] std::uint64_t trial_fingerprint(const farm::core::TrialResult& r);

/// Hash of the aggregate's JSON form (core::write_json), the text a
/// scenario run would publish.
[[nodiscard]] std::uint64_t result_digest(const farm::core::MonteCarloResult& r);

}  // namespace perfbench
