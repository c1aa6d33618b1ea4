// Ablation — eigenvector (power) vs linear-system (Jacobi) route to
// the SourceRank vector (Sec. 3.4 / the Gleich et al. reference): both
// must produce the same ranking; compare iterations and wall time to
// the paper's 1e-9 L2 tolerance, plus the page-level PageRank cost.
#include "bench/common.hpp"
#include "core/source_graph.hpp"
#include "metrics/ranking.hpp"
#include "rank/push.hpp"
#include "rank/solvers.hpp"

namespace srsr::bench {
namespace {

void run() {
  obs::RunReport report("bench.ablation_solver");
  TextTable t({"Dataset", "Matrix", "Solver", "Iterations", "Seconds",
               "Iter/s", "Decay", "Kendall tau vs power"});
  // The per-iteration decay rate now comes straight from the solver's
  // trace summary instead of being recomputed from residual logs here.
  const auto row = [&](graph::ScaledDataset which, const char* matrix,
                       const std::string& solver, const rank::RankResult& r,
                       const std::string& tau) {
    t.add_row({graph::dataset_name(which), matrix, solver,
               TextTable::num(r.iterations), TextTable::fixed(r.seconds, 3),
               TextTable::fixed(r.iterations_per_second(), 1),
               TextTable::fixed(r.trace.decay_rate, 4), tau});
    const std::string key =
        std::string(graph::dataset_name(which)) + "/" + solver;
    report.add_stage(key, r.seconds);
    report.set_meta(key + ".iterations", static_cast<u64>(r.iterations));
    report.set_meta(key + ".decay_rate", r.trace.decay_rate);
  };
  for (const auto which : all_datasets()) {
    const auto corpus = make_dataset(which);
    const core::SourceMap map = core::SourceMap::from_corpus(corpus);
    const core::SourceGraph sg(corpus.pages, map);
    const auto tprime = sg.consensus_matrix(true);
    rank::SolverConfig sc;
    sc.alpha = kAlpha;
    sc.convergence = paper_convergence();

    const auto power = rank::power_solve(tprime, sc);
    const auto jacobi = rank::jacobi_solve(tprime, sc);
    const auto gs = rank::gauss_seidel_solve(tprime, sc);
    rank::PushConfig pc;
    pc.alpha = kAlpha;
    pc.epsilon = 1e-9 / static_cast<f64>(tprime.num_rows());
    const auto push = rank::push_solve(tprime, pc);
    row(which, "T' (sources)", "power", power, "1.000");
    row(which, "T' (sources)", "jacobi", jacobi,
        TextTable::fixed(metrics::kendall_tau(power.scores, jacobi.scores), 4));
    row(which, "T' (sources)", "gauss-seidel", gs,
        TextTable::fixed(metrics::kendall_tau(power.scores, gs.scores), 4));
    t.add_row(
        {graph::dataset_name(which), "T' (sources)",
         "push (pushes/n)",
         TextTable::num(push.pushes / tprime.num_rows()),
         TextTable::fixed(push.seconds, 3), "-", "-",
         TextTable::fixed(metrics::kendall_tau(power.scores, push.scores),
                          4)});

    const auto pr = rank::pagerank(corpus.pages, paper_pagerank_config());
    row(which, "M (pages)", "power", pr, "-");
  }
  emit("Ablation: solver route to the stationary vector (tolerance 1e-9 L2)",
       "ablation_solver", t);
  maybe_write_report("ablation_solver", report);
}

}  // namespace
}  // namespace srsr::bench

int main() {
  srsr::bench::run();
  return 0;
}
