// Table 1 reproduction: NBC inference accuracy vs the analyst grant xi.
//
// The learning-based attack of Sec. 6.6 under sequential composition,
// advanced composition and an attacker coalition, for COUNT and SUM
// training queries, with xi in {1, 20, 50, 100} and psi = 1e-6. The
// paper reports < 1% accuracy everywhere (|SA| = 100 classes -> random
// guessing is 1%).
//
//   ./table1_attack [--rows=N] [--seed=S] [--full]
//
// Default scale trims |SA| to 40 classes (random guess 2.5%) to keep the
// ~4k-query training loops fast; --full restores |SA| = 100.

#include <cstdio>

#include "bench/bench_util.h"

using namespace fedaqp;         // NOLINT
using namespace fedaqp::bench;  // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool full = flags.Has("full");
  const size_t rows = flags.GetInt("rows", full ? 100000 : 30000);
  const uint64_t seed = flags.GetInt("seed", 12);
  const size_t providers = 4;
  const Value sa_domain = full ? 100 : 40;

  // Attack tensor: SA with |SA| classes + three QI dimensions (paper: 3 of
  // the table's dimensions as QI, one as SA). The sensitive dimension has
  // a flat prior — with a skewed prior even a blind majority-class
  // predictor beats the 1/|SA| floor, which would say nothing about the
  // DP interface.
  SyntheticConfig cfg;
  cfg.rows = rows;
  cfg.seed = seed;
  cfg.dims = {{"sa", sa_domain, DistributionKind::kUniform, 0.0},
              {"qi_education", 16, DistributionKind::kCategoricalSkewed, 0.0},
              {"qi_marital", 7, DistributionKind::kCategoricalSkewed, 0.0},
              {"qi_occupation", 15, DistributionKind::kUniform, 0.0}};
  Result<Table> raw = GenerateSynthetic(cfg);
  if (!raw.ok()) return 1;
  Result<Table> tensor = raw->BuildCountTensor({0, 1, 2, 3});
  if (!tensor.ok()) return 1;
  Result<std::vector<Table>> parts = tensor->PartitionHorizontally(providers);
  if (!parts.ok()) return 1;

  std::vector<std::unique_ptr<DataProvider>> owned;
  std::vector<DataProvider*> ptrs;
  for (size_t i = 0; i < parts->size(); ++i) {
    DataProvider::Options popts;
    popts.storage.cluster_capacity = 128;
    popts.n_min = 4;
    popts.seed = seed * 100 + i;
    Result<std::unique_ptr<DataProvider>> p =
        DataProvider::Create((*parts)[i], popts);
    if (!p.ok()) return 1;
    ptrs.push_back(p->get());
    owned.push_back(std::move(p).value());
  }

  std::vector<EvalRow> eval =
      BuildEvalRows(*raw, 0, {1, 2, 3}, full ? 5000 : 2000);

  FederationConfig base;
  base.sampling_rate = 0.2;

  std::printf("# Table 1: NBC inference accuracy vs xi (psi = 1e-6)\n");
  std::printf("# |SA| = %lld classes -> random-guess floor = %.2f%%\n",
              static_cast<long long>(sa_domain), 100.0 / sa_domain);
  std::printf("%-12s %-6s | %8s %8s %8s %8s\n", "composition", "agg", "xi=1",
              "xi=20", "xi=50", "xi=100");

  struct Row {
    AttackComposition comp;
    const char* name;
  };
  std::vector<Row> compositions = {
      {AttackComposition::kSequential, "sequential"},
      {AttackComposition::kAdvanced, "advanced"},
      {AttackComposition::kCoalition, "coalition"},
  };

  for (const auto& comp : compositions) {
    for (Aggregation agg : {Aggregation::kCount, Aggregation::kSum}) {
      std::printf("%-12s %-6s |", comp.name, AggName(agg));
      for (double xi : {1.0, 20.0, 50.0, 100.0}) {
        AttackConfig attack;
        attack.sa_dim = 0;
        attack.qi_dims = {1, 2, 3};
        attack.xi = xi;
        attack.psi = 1e-6;
        attack.composition = comp.comp;
        attack.aggregation = agg;
        // A fresh client per attack, so every attack draws the same
        // session ids (and noise) it would alone.
        Result<std::unique_ptr<FederationClient>> client = Client(ptrs, base);
        if (!client.ok()) return 1;
        Result<AttackResult> res =
            RunNbcAttack(**client, "attacker", attack, eval);
        if (!res.ok()) {
          std::printf(" %8s", "err");
          continue;
        }
        std::printf(" %7.2f%%", 100.0 * res->accuracy);
      }
      std::printf("\n");
    }
  }
  std::printf("# paper: every cell < 1%% (i.e. at the random-guess floor)\n");
  return 0;
}
