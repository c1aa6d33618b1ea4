// Ablation — warm-started re-ranking (DESIGN.md Sec. 5 adjunct): the
// manipulation experiments re-rank graphs that differ from the clean
// graph by a handful of rows. Restarting the power method from the
// clean solution cuts iterations; this bench quantifies the saving at
// the paper's 1e-9 tolerance.
#include "bench/common.hpp"
#include "spam/attacks.hpp"

namespace srsr::bench {
namespace {

void run() {
  const auto corpus = make_dataset(graph::ScaledDataset::kIT2004S);
  const auto clean = rank::pagerank(corpus.pages, paper_pagerank_config());

  TextTable t({"Injected pages", "Cold iterations", "Warm iterations",
               "Saving", "Max |diff|"});
  Pcg32 rng(77);
  const NodeId target = corpus.source_first_page[corpus.num_sources() / 2];
  for (const u32 tau : {1u, 10u, 100u, 1000u}) {
    const auto attacked = spam::add_intra_source_farm(corpus, target, tau);
    const auto cold = rank::pagerank(attacked.pages, paper_pagerank_config());

    rank::SolverConfig warm_cfg = paper_pagerank_config();
    // The attacked graph has tau extra pages; extend the clean vector
    // with zeros (new pages start with no mass — the solver renormalizes).
    std::vector<f64> init = clean.scores;
    init.resize(attacked.pages.num_nodes(), 1e-12);
    warm_cfg.initial = std::move(init);
    const auto warm = rank::pagerank(attacked.pages, warm_cfg);

    f64 max_diff = 0.0;
    for (std::size_t i = 0; i < cold.scores.size(); ++i)
      max_diff = std::max(max_diff,
                          std::abs(cold.scores[i] - warm.scores[i]));
    t.add_row({
        TextTable::num(tau),
        TextTable::num(cold.iterations),
        TextTable::num(warm.iterations),
        TextTable::pct(1.0 - static_cast<f64>(warm.iterations) /
                                 static_cast<f64>(cold.iterations),
                       0),
        TextTable::sci(max_diff, 1),
    });
  }
  emit("Ablation: warm-started PageRank after attack injection (IT2004S)",
       "ablation_warmstart", t);
}

}  // namespace
}  // namespace srsr::bench

int main() {
  srsr::bench::run();
  return 0;
}
