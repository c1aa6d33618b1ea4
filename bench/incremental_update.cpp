// Incremental-update bench: push-delta maintenance vs cold full solve
// on WB2001S (the ISSUE 10 performance contract).
//
// One DynamicSourceGraph + IncrementalRanker carry warm (p, r) state
// across a ramp of batch sizes: {1, 4, 16, 64, 256, 1024, 4096} edited
// hosts, ~4 page-link edits each, staged through an EdgeStream and
// committed as one batch. For every batch we time
//
//   delta — IncrementalRanker::apply (signed-defect re-seed + push),
//   cold  — the full static pipeline on the SAME post-edit graph:
//           page-graph rebuild, core model construction (source
//           consensus re-derivation), model.rank() at the paper's
//           convergence — exactly what a non-dynamic serve layer does
//           after a topology change,
//
// and gate parity: |sigma_delta - sigma_cold|_Linf must stay under
// kParityGate or the bench aborts loudly — a timing table cannot hide
// a correctness regression. (The exact 1e-10 parity bound is enforced
// on small graphs at eps = 1e-13 by tests/stream_incremental_test; the
// bound here is the two solvers' truncation budget on WB2001S.)
//
// The contract to watch in BENCH_incremental_update.json: single-host
// edits (the serve access pattern) must publish >= 10x faster than the
// cold solve, and the crossover where a cold solve wins — the ranker's
// full_mass_threshold heuristic flipping to kFull — should appear only
// at batch sizes that dirty a large fraction of the graph.
#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "bench/common.hpp"
#include "core/kappa.hpp"
#include "core/source_map.hpp"
#include "core/spam_proximity.hpp"
#include "core/throttle.hpp"
#include "graph/builder.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "util/check.hpp"

namespace srsr::bench {
namespace {

constexpr f64 kEpsilon = 1e-12;
// The two sides solve the same system with different solvers and
// tolerances: the delta push to per-entry eps = 1e-12 (entry error
// bounded by n*eps/(1-alpha) ~ 1.3e-7), the cold power solve to the
// paper's 1e-9 residual (entry error ~1e-9). The gate only has to
// catch incremental-state drift, which shows up orders of magnitude
// above either truncation.
constexpr f64 kParityGate = 1e-6;

/// Cold baseline: what a non-incremental serve layer does for ANY
/// topology edit — rebuild the page graph, re-derive the source
/// consensus matrix from scratch, throttle, solve cold. The solver and
/// epsilon match the delta path exactly, so the timing difference is
/// purely the incremental machinery's win: dirty-row re-derivation plus
/// warm (p, r) state versus the full pipeline. `shadow` is the bench's
/// mirror of the page adjacency (sorted rows, mutated in step with the
/// stream).
struct ColdSolve {
  std::vector<f64> sigma;
  f64 seconds = 0.0;
  u64 pushes = 0;
};

ColdSolve cold_solve(const std::vector<std::vector<NodeId>>& shadow,
                     const core::SourceMap& map, std::span<const f64> kappa,
                     core::ThrottleMode mode) {
  WallTimer timer;
  graph::GraphBuilder builder(static_cast<NodeId>(shadow.size()));
  for (NodeId p = 0; p < shadow.size(); ++p)
    for (const NodeId q : shadow[p]) builder.add_edge(p, q);
  const auto pages = builder.build();
  const core::SpamResilientSourceRank model(pages, map,
                                            paper_srsr_config(mode));
  auto result = model.rank(kappa);
  SRSR_CHECK(result.converged,
             "incremental_update: cold solve did not converge");
  ColdSolve cold;
  cold.seconds = timer.seconds();
  cold.pushes = result.iterations;
  cold.sigma = std::move(result.scores);
  return cold;
}

/// Mirrors a committed batch into the shadow page adjacency. The batch
/// is already coalesced (last op per (u, v) wins), so replaying in
/// order reproduces the stream's final state.
void mirror_batch(std::vector<std::vector<NodeId>>& shadow,
                  const stream::UpdateBatch& batch) {
  for (const auto& m : batch.mutations) {
    auto& row = shadow[m.u];
    const auto it = std::lower_bound(row.begin(), row.end(), m.v);
    const bool present = it != row.end() && *it == m.v;
    if (m.kind == stream::MutationKind::kInsertLink) {
      if (!present) row.insert(it, m.v);
    } else if (m.kind == stream::MutationKind::kEraseLink) {
      if (present) row.erase(it);
    }
  }
}

f64 linf(std::span<const f64> a, std::span<const f64> b) {
  SRSR_CHECK(a.size() == b.size(), "incremental_update: parity size mismatch");
  f64 worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Stages ~4 link edits per chosen host: erase one original out-link of
/// the host's first page (when it has one) and insert fresh links to
/// random pages. Dirties exactly the chosen hosts' rows.
void stage_host_edits(stream::EdgeStream& stream,
                      const graph::WebCorpus& corpus, NodeId source,
                      Pcg32& rng) {
  const NodeId p = corpus.source_first_page[source];
  const auto nbrs = corpus.pages.out_neighbors(p);
  const u32 inserts = nbrs.empty() ? 4u : 3u;
  if (!nbrs.empty()) stream.erase_link(p, nbrs[0]);
  for (u32 i = 0; i < inserts; ++i)
    stream.insert_link(p, rng.next_below(corpus.num_pages()));
}

void run() {
  const auto corpus = make_dataset(graph::ScaledDataset::kWB2001S);
  const core::SourceMap map(corpus.page_source);
  stream::DynamicSourceGraph graph(corpus.pages, map, corpus.source_hosts);

  stream::IncrementalConfig cfg;
  cfg.alpha = kAlpha;
  cfg.epsilon = kEpsilon;
  cfg.mode = core::ThrottleMode::kTeleportDiscard;
  stream::IncrementalRanker ranker(graph, cfg);

  // The paper's Sec. 6.2 policy, installed through the warm path like
  // any other update.
  const auto prox = core::spam_proximity(
      graph.topology(), sample_spam_seeds(corpus.spam_sources(), 0.1, 42));
  const auto kappa = core::kappa_top_k(
      prox.scores, 2 * static_cast<u32>(corpus.spam_sources().size()));
  ranker.set_kappa(kappa);

  stream::EdgeStream stream(graph.num_pages());
  Pcg32 rng(20010301);

  std::vector<std::vector<NodeId>> shadow(corpus.num_pages());
  for (NodeId p = 0; p < corpus.num_pages(); ++p) {
    const auto nbrs = corpus.pages.out_neighbors(p);
    shadow[p].assign(nbrs.begin(), nbrs.end());
    std::sort(shadow[p].begin(), shadow[p].end());
    shadow[p].erase(std::unique(shadow[p].begin(), shadow[p].end()),
                    shadow[p].end());
  }

  // Unrecorded warm-up batch: absorbs first-touch faults on the push
  // state so the measured single-host row times the algorithm, not the
  // allocator.
  {
    const auto warmup = sample_without_replacement(rng, corpus.num_sources(), 1);
    stage_host_edits(stream, corpus, warmup[0], rng);
    const auto batch = stream.commit();
    mirror_batch(shadow, batch);
    ranker.apply(batch);
  }

  TextTable t({"Hosts", "Mutations", "Dirty rows", "Path", "Pushes",
               "Delta ms", "Cold ms", "Speedup", "Linf parity"});
  f64 single_host_speedup = 0.0;
  for (const u32 hosts : {1u, 4u, 16u, 64u, 256u, 1024u, 4096u}) {
    const auto picks = sample_without_replacement(
        rng, corpus.num_sources(), hosts);
    for (const u32 s : picks) stage_host_edits(stream, corpus, s, rng);
    const auto batch = stream.commit();
    mirror_batch(shadow, batch);
    const auto outcome = ranker.apply(batch);
    SRSR_CHECK(outcome.converged,
               "incremental_update: delta path did not converge");
    const auto cold = cold_solve(shadow, map, ranker.kappa(), cfg.mode);
    const f64 parity = linf(ranker.sigma(), cold.sigma);
    SRSR_CHECK(parity < kParityGate, "incremental_update: sigma parity ",
               parity, " breaches the gate — incremental state has drifted");
    const f64 speedup = cold.seconds / std::max(outcome.seconds, 1e-12);
    if (hosts == 1) single_host_speedup = speedup;
    t.add_row({
        TextTable::num(hosts),
        TextTable::num(outcome.mutations),
        TextTable::num(outcome.dirty_rows),
        stream::to_string(outcome.path),
        TextTable::num(outcome.pushes),
        TextTable::fixed(outcome.seconds * 1e3, 2),
        TextTable::fixed(cold.seconds * 1e3, 2),
        TextTable::fixed(speedup, 1),
        TextTable::sci(parity, 1),
    });
  }
  emit("Incremental update: push-delta vs cold full solve (WB2001S)",
       "incremental_update", t);
  if (single_host_speedup < 10.0) {
    log_error("single-host speedup ", TextTable::fixed(single_host_speedup, 1),
              "x is below the 10x contract");
    std::exit(1);
  }
  log_info("single-host speedup ", TextTable::fixed(single_host_speedup, 1),
           "x (contract: >= 10x)");
}

}  // namespace
}  // namespace srsr::bench

int main() {
  srsr::bench::run();
  return 0;
}
