// Ablation — CSR vs BV-style compressed adjacency storage (the
// WebGraph substitution, DESIGN.md Sec. 2): memory footprint,
// bits/edge, and sequential decode throughput on all three datasets.
#include "bench/common.hpp"
#include "graph/compressed.hpp"
#include "graph/transforms.hpp"
#include "util/check.hpp"

namespace srsr::bench {
namespace {

void run() {
  TextTable t({"Dataset", "Edges", "CSR MiB", "Compressed MiB",
               "Bits/edge", "Ratio", "Decode Medges/s"});
  for (const auto which : all_datasets()) {
    const auto corpus = make_dataset(which);
    const auto& g = corpus.pages;
    WallTimer timer;
    const graph::CompressedGraph c(g);
    log_info("encode ", graph::dataset_name(which), ": ",
             TextTable::fixed(timer.seconds(), 2), "s");

    timer.reset();
    std::vector<NodeId> nbrs;
    u64 total = 0;
    graph::CompressedGraph::Scanner scan(c);
    while (scan.next(nbrs)) total += nbrs.size();
    const f64 decode_s = timer.seconds();
    SRSR_CHECK(total == g.num_edges(), "ablation_storage: decode mismatch");

    const f64 csr_mib = static_cast<f64>(g.memory_bytes()) / (1 << 20);
    const f64 cmp_mib = static_cast<f64>(c.memory_bytes()) / (1 << 20);
    t.add_row({
        graph::dataset_name(which),
        TextTable::num(g.num_edges()),
        TextTable::fixed(csr_mib, 1),
        TextTable::fixed(cmp_mib, 1),
        TextTable::fixed(c.bits_per_edge(), 2),
        TextTable::fixed(csr_mib / cmp_mib, 2),
        TextTable::fixed(static_cast<f64>(g.num_edges()) / decode_s / 1e6, 1),
    });
  }
  emit("Ablation: CSR vs BV-style compressed adjacency storage",
       "ablation_storage", t);

  // Second axis: what reference (copy-list) compression buys on top of
  // interval + residual coding, per window size.
  const auto corpus = make_dataset(graph::ScaledDataset::kUK2002S);
  TextTable w({"Reference window", "Bits/edge", "Reference rate"});
  for (const u32 window : {0u, 1u, 3u, 7u, 15u}) {
    graph::CompressedGraph::Options opts;
    opts.window = window;
    const graph::CompressedGraph c(corpus.pages, opts);
    w.add_row({TextTable::num(window), TextTable::fixed(c.bits_per_edge(), 2),
               TextTable::pct(c.reference_rate(), 1)});
  }
  emit("Ablation: reference-compression window (UK2002S)",
       "ablation_storage_window", w);

  // Third axis: node ordering. The generator numbers pages host-by-host
  // (BV's recommended URL-lexicographic ordering); a random permutation
  // destroys gap locality and shows how much the ordering buys.
  Pcg32 rng(909);
  std::vector<NodeId> perm(corpus.num_pages());
  for (NodeId i = 0; i < corpus.num_pages(); ++i) perm[i] = i;
  shuffle(rng, perm);
  const graph::Graph shuffled = graph::relabel(corpus.pages, perm);
  TextTable o({"Node ordering", "Bits/edge"});
  o.add_row({"host-grouped (crawl order)",
             TextTable::fixed(
                 graph::CompressedGraph(corpus.pages).bits_per_edge(), 2)});
  o.add_row({"random permutation",
             TextTable::fixed(graph::CompressedGraph(shuffled).bits_per_edge(),
                              2)});
  emit("Ablation: node ordering vs compression (UK2002S)",
       "ablation_storage_ordering", o);
}

}  // namespace
}  // namespace srsr::bench

int main() {
  srsr::bench::run();
  return 0;
}
