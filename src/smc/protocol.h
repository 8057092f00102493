#ifndef FEDAQP_SMC_PROTOCOL_H_
#define FEDAQP_SMC_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "net/sim_network.h"
#include "smc/fixed_point.h"

namespace fedaqp {

/// Cost constants for secure comparison, used by the oblivious-max step.
/// A 64-bit semi-honest comparison (GC/GMW style) costs a handful of
/// communication rounds and a few kilobytes; the defaults are deliberately
/// on the cheap end so the SMC path is not unfairly penalized.
struct SmcCostModel {
  size_t comparison_rounds = 3;
  size_t comparison_bytes = 4096;
};

/// Result of an SMC aggregation round.
struct SmcAggregate {
  /// Reconstructed sum of the parties' inputs.
  double sum = 0.0;
  /// Reconstructed maximum (only filled by SumAndMax).
  double max = 0.0;
};

/// Semi-honest SMC protocols over additively shared fixed-point values,
/// with byte-accurate traffic charged to `network`. The arithmetic is real
/// (shares are created, exchanged and recombined); only the wire is
/// simulated.
class SmcProtocol {
 public:
  SmcProtocol(FixedPoint encoding, SmcCostModel cost_model)
      : encoding_(encoding), cost_(cost_model) {}

  /// Secure sum of one input per party (Fig. 3 step 7: providers share
  /// local estimates; the aggregator only ever sees the recombined total).
  /// Traffic: each party sends one share to every other party, then one
  /// partial sum to the aggregator.
  Result<double> SecureSum(const std::vector<double>& inputs,
                           SimNetwork* network, Rng* rng) const;

  /// Secure sum of the estimates plus oblivious maximum of the
  /// sensitivities — exactly the pair the paper's SMC mode needs
  /// (Algorithm 3 line 8). The max is computed on the true values (the
  /// simulation stands in for a comparison circuit) while the traffic of
  /// |inputs|-1 secure comparisons is charged per the cost model.
  Result<SmcAggregate> SumAndMax(const std::vector<double>& sum_inputs,
                                 const std::vector<double>& max_inputs,
                                 SimNetwork* network, Rng* rng) const;

  /// The Fig. 1 "sharing rows" baseline: every party secret-shares each of
  /// its rows to all other parties. Values are really shared (CPU cost is
  /// real); traffic of rows*(values per row) ring elements per remote
  /// party is charged. Returns the reconstructed global sum of measures as
  /// a correctness witness.
  Result<double> ShareRows(const std::vector<std::vector<double>>& rows_per_party,
                           SimNetwork* network, Rng* rng) const;

  const FixedPoint& encoding() const { return encoding_; }

 private:
  FixedPoint encoding_;
  SmcCostModel cost_;
};

}  // namespace fedaqp

#endif  // FEDAQP_SMC_PROTOCOL_H_
