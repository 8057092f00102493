#include "smc/protocol.h"

#include <algorithm>

#include "smc/shares.h"

namespace fedaqp {

namespace {
constexpr size_t kShareBytes = sizeof(uint64_t);
}  // namespace

Result<double> SmcProtocol::SecureSum(const std::vector<double>& inputs,
                                      SimNetwork* network, Rng* rng) const {
  const size_t n = inputs.size();
  if (n == 0) {
    return Status::InvalidArgument("secure sum: no parties");
  }
  // Each party splits its input into n shares and distributes n-1 of them.
  std::vector<std::vector<uint64_t>> sharings(n);
  for (size_t i = 0; i < n; ++i) {
    FEDAQP_ASSIGN_OR_RETURN(sharings[i],
                            AdditiveShares::Split(encoding_.Encode(inputs[i]),
                                                  n, rng));
  }
  if (n > 1 && network != nullptr) {
    // Share-distribution round: parties exchange pairwise in parallel.
    network->UniformRound(n, (n - 1) * kShareBytes);
  }
  // Party j locally adds the j-th share of every sharing...
  std::vector<uint64_t> partials(n, 0);
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) partials[j] += sharings[i][j];
  }
  // ...and forwards the partial to the aggregator, who recombines.
  if (network != nullptr) {
    network->UniformRound(n, kShareBytes);
  }
  return encoding_.Decode(AdditiveShares::Reconstruct(partials));
}

Result<SmcAggregate> SmcProtocol::SumAndMax(
    const std::vector<double>& sum_inputs,
    const std::vector<double>& max_inputs, SimNetwork* network,
    Rng* rng) const {
  if (sum_inputs.size() != max_inputs.size()) {
    return Status::InvalidArgument("SMC sum+max: input size mismatch");
  }
  SmcAggregate out;
  FEDAQP_ASSIGN_OR_RETURN(out.sum, SecureSum(sum_inputs, network, rng));
  if (max_inputs.empty()) {
    return Status::InvalidArgument("SMC sum+max: no parties");
  }
  // Oblivious maximum: |inputs|-1 pairwise secure comparisons over shared
  // values. The comparison circuit itself is out of scope (substitution
  // documented in DESIGN.md); the value is computed directly while the
  // circuit's traffic is charged.
  out.max = *std::max_element(max_inputs.begin(), max_inputs.end());
  if (network != nullptr) {
    for (size_t i = 0; i + 1 < max_inputs.size(); ++i) {
      for (size_t r = 0; r < cost_.comparison_rounds; ++r) {
        network->UniformRound(2, cost_.comparison_bytes);
      }
    }
  }
  return out;
}

Result<double> SmcProtocol::ShareRows(
    const std::vector<std::vector<double>>& rows_per_party,
    SimNetwork* network, Rng* rng) const {
  const size_t n = rows_per_party.size();
  if (n == 0) {
    return Status::InvalidArgument("share rows: no parties");
  }
  // Every party secret-shares every one of its values to all parties; the
  // joint (shared) table is then summed share-wise as a witness that the
  // data arrived intact.
  std::vector<uint64_t> partials(n, 0);
  std::vector<size_t> payloads(n, 0);
  for (size_t party = 0; party < n; ++party) {
    for (double v : rows_per_party[party]) {
      FEDAQP_ASSIGN_OR_RETURN(
          std::vector<uint64_t> shares,
          AdditiveShares::Split(encoding_.Encode(v), n, rng));
      for (size_t j = 0; j < n; ++j) partials[j] += shares[j];
    }
    payloads[party] = rows_per_party[party].size() * (n - 1) * kShareBytes;
  }
  if (network != nullptr && n > 1) {
    network->Round(payloads);
    // Partial aggregates back to the aggregator.
    network->UniformRound(n, kShareBytes);
  }
  return encoding_.Decode(AdditiveShares::Reconstruct(partials));
}

}  // namespace fedaqp
