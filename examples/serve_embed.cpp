// serve_embed: embedding the serving layer in your own process.
//
// `srsr_cli serve` wraps this same machinery behind stdin/stdout; this
// example shows the library API directly — the pattern a search
// frontend or an evaluation harness would use:
//
//   1. build the model once (graph + source map + config);
//   2. publish a baseline snapshot into a SnapshotStore and point a
//      QueryEngine at it;
//   3. hand the store to a RecomputePipeline, which keeps the model's
//      push state and, whenever spam labels (or raw kappa vectors)
//      arrive, pushes the throttle change through it in the background;
//   4. keep querying while recomputes are in flight — readers are
//      never blocked, and a failed update can never unpublish the
//      snapshot they are on.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "core/srsr.hpp"
#include "graph/webgen.hpp"
#include "serve/query.hpp"
#include "serve/recompute.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "util/table.hpp"

int main() {
  using namespace srsr;

  // A small crawl with a labeled spam ring.
  graph::WebGenConfig cfg;
  cfg.num_sources = 1500;
  cfg.num_spam_sources = 60;
  cfg.seed = 7;
  const graph::WebCorpus crawl = graph::generate_web_corpus(cfg);

  const core::SourceMap map = core::SourceMap::from_corpus(crawl);
  const core::SpamResilientSourceRank model(crawl.pages, map, {});

  // Baseline epoch: kappa = 0 everywhere, i.e. plain source-level
  // PageRank. It doubles as the compare() reference.
  serve::SnapshotStore store;
  serve::SnapshotBuild base_build;
  base_build.policy = "baseline";
  const std::vector<f64> zeros(model.num_sources(), 0.0);
  const auto baseline = std::make_shared<const serve::RankSnapshot>(
      serve::make_snapshot(model, zeros, crawl.source_hosts, base_build));
  store.publish(serve::RankSnapshot(*baseline));

  const serve::QueryEngine engine(store, baseline);
  serve::RecomputePipeline pipeline(model, crawl.source_hosts, store);

  std::cout << "serving " << engine.snapshot()->num_sources()
            << " sources at epoch " << engine.snapshot()->meta().epoch
            << "\n\n";

  // Simulate a moderation batch arriving: a third of the ring gets
  // labeled, and the pipeline derives kappa from spam proximity.
  std::vector<NodeId> labels = crawl.spam_sources();
  labels.resize(labels.size() / 3);
  pipeline.submit_spam_labels(labels, 2 * static_cast<u32>(labels.size()));

  // A real server would keep answering queries here; this example just
  // waits for the publish so the output is deterministic.
  pipeline.drain();

  const serve::SnapshotPtr live = engine.snapshot();
  std::cout << "recompute published epoch " << live->meta().epoch << " ("
            << live->meta().kappa_policy << ", "
            << live->meta().iterations << " pushes, "
            << (live->meta().warm_started ? "warm" : "cold") << ")\n\n";

  // Who moved? The compare() view diffs the live snapshot against the
  // baseline; spam ring members show up as the biggest demotions.
  TextTable t({"Host", "Baseline rank", "Rank now", "Change", "Delta"});
  std::vector<serve::CompareEntry> moved;
  for (NodeId s = 0; s < live->num_sources(); ++s)
    if (const auto c = engine.compare(s); c && c->rank_change != 0)
      moved.push_back(*c);
  std::sort(moved.begin(), moved.end(),
            [](const auto& a, const auto& b) {
              return a.rank_change > b.rank_change;
            });
  for (std::size_t i = 0; i < moved.size() && i < 8; ++i) {
    const auto& c = moved[i];
    t.add_row({c.host, TextTable::num(c.baseline_rank),
               TextTable::num(c.rank),
               (c.rank_change > 0 ? "-" : "+") +
                   TextTable::num(static_cast<u64>(
                       c.rank_change > 0 ? c.rank_change : -c.rank_change)),
               TextTable::sci(c.delta, 2)});
  }
  std::cout << t.render("Largest demotions after the label batch");

  pipeline.stop();
  std::cout << "\nThe query path never locked: readers held epoch 1 "
               "until the solve\nfinished, then picked up epoch 2 on "
               "their next snapshot() acquire.\n";
  return 0;
}
