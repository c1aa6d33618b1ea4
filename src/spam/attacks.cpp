#include "spam/attacks.hpp"

#include <algorithm>
#include <numeric>

#include "graph/builder.hpp"
#include "util/check.hpp"

namespace srsr::spam {

namespace {

/// Appends `count` fresh pages assigned to `source`; returns the first
/// new page id. Updates every corpus side table.
// NOTE: inside these helpers the corpus side tables may already be ahead
// of corpus.pages (the graph is rebuilt once at the end of each attack),
// so the page-id frontier is page_source.size(), not pages.num_nodes().
NodeId page_frontier(const WebCorpus& corpus) {
  return static_cast<NodeId>(corpus.page_source.size());
}

NodeId append_pages(WebCorpus& corpus, NodeId source, u32 count) {
  SRSR_CHECK(source < corpus.num_sources(),
             "append_pages: source out of range");
  const NodeId first = page_frontier(corpus);
  corpus.page_source.insert(corpus.page_source.end(), count, source);
  corpus.source_page_count[source] += count;
  return first;
}

/// Appends a fresh empty source; returns its id.
NodeId append_source(WebCorpus& corpus) {
  const NodeId s = corpus.num_sources();
  corpus.source_hosts.push_back("www.attacker" + std::to_string(s) +
                                ".example");
  corpus.source_is_spam.push_back(0);  // not *labeled*; see header note
  corpus.source_page_count.push_back(0);
  corpus.source_first_page.push_back(page_frontier(corpus));
  return s;
}

}  // namespace

WebCorpus add_intra_source_farm(const WebCorpus& corpus, NodeId target_page,
                                u32 count) {
  SRSR_CHECK(target_page < corpus.num_pages(),
             "add_intra_source_farm: target page out of range");
  WebCorpus out = corpus;
  const NodeId source = out.page_source[target_page];
  const NodeId first = append_pages(out, source, count);
  graph::GraphBuilder b(out.pages);
  b.grow(page_frontier(out));
  for (u32 i = 0; i < count; ++i) b.add_edge(first + i, target_page);
  out.pages = b.build();
  return out;
}

WebCorpus add_cross_source_farm(const WebCorpus& corpus, NodeId target_page,
                                NodeId colluding_source, u32 count) {
  SRSR_CHECK(target_page < corpus.num_pages(),
             "add_cross_source_farm: target page out of range");
  SRSR_CHECK(colluding_source < corpus.num_sources(),
             "add_cross_source_farm: colluding source out of range");
  SRSR_CHECK(corpus.page_source[target_page] != colluding_source,
             "add_cross_source_farm: colluding source must differ from the "
             "target's source");
  WebCorpus out = corpus;
  const NodeId first = append_pages(out, colluding_source, count);
  graph::GraphBuilder b(out.pages);
  b.grow(page_frontier(out));
  for (u32 i = 0; i < count; ++i) b.add_edge(first + i, target_page);
  out.pages = b.build();
  return out;
}

WebCorpus add_colluding_sources(const WebCorpus& corpus, NodeId target_page,
                                u32 num_sources, u32 pages_per_source) {
  SRSR_CHECK(target_page < corpus.num_pages(),
             "add_colluding_sources: target page out of range");
  SRSR_CHECK(pages_per_source >= 1,
             "add_colluding_sources: sources must be non-empty");
  WebCorpus out = corpus;
  graph::GraphBuilder b(out.pages);
  for (u32 s = 0; s < num_sources; ++s) {
    const NodeId src = append_source(out);
    const NodeId first = append_pages(out, src, pages_per_source);
    b.grow(page_frontier(out));
    for (u32 i = 0; i < pages_per_source; ++i) {
      // Sec. 4.2 optimal colluder: minimum self-mass, remainder to the
      // target. Page-level realization: every page cites the colluding
      // source's own front page (self-edge) and the target page.
      if (first + i != first) b.add_edge(first + i, first);
      b.add_edge(first + i, target_page);
    }
    if (pages_per_source == 1) b.add_edge(first, first);  // keep the self-edge
  }
  out.pages = b.build();
  return out;
}

WebCorpus add_link_exchange(const WebCorpus& corpus,
                            const std::vector<NodeId>& exchange_sources,
                            Pcg32& rng) {
  SRSR_CHECK(exchange_sources.size() >= 2,
             "add_link_exchange: need at least two sources");
  for (const NodeId s : exchange_sources)
    SRSR_CHECK(s < corpus.num_sources(),
               "add_link_exchange: source out of range");
  WebCorpus out = corpus;
  graph::GraphBuilder b(out.pages);
  for (std::size_t i = 0; i < exchange_sources.size(); ++i) {
    for (std::size_t j = i + 1; j < exchange_sources.size(); ++j) {
      const NodeId si = exchange_sources[i];
      const NodeId sj = exchange_sources[j];
      b.add_edge(random_page_of(corpus, si, rng),
                 corpus.source_first_page[sj]);
      b.add_edge(random_page_of(corpus, sj, rng),
                 corpus.source_first_page[si]);
    }
  }
  out.pages = b.build();
  return out;
}

WebCorpus add_hijack_links(const WebCorpus& corpus,
                           const std::vector<NodeId>& hijacked_pages,
                           NodeId target_page) {
  SRSR_CHECK(target_page < corpus.num_pages(),
             "add_hijack_links: target page out of range");
  WebCorpus out = corpus;
  graph::GraphBuilder b(out.pages);
  for (const NodeId p : hijacked_pages) {
    SRSR_CHECK(p < corpus.num_pages(), "add_hijack_links: page out of range");
    b.add_edge(p, target_page);
  }
  out.pages = b.build();
  return out;
}

WebCorpus add_honeypot(const WebCorpus& corpus, NodeId target_page,
                       u32 honeypot_pages, u32 lured_links, Pcg32& rng) {
  SRSR_CHECK(target_page < corpus.num_pages(),
             "add_honeypot: target page out of range");
  SRSR_CHECK(honeypot_pages >= 1, "add_honeypot: need at least one page");
  WebCorpus out = corpus;
  const NodeId src = append_source(out);
  const NodeId first = append_pages(out, src, honeypot_pages);
  graph::GraphBuilder b(out.pages);
  b.grow(page_frontier(out));
  // The honeypot looks like a quality site: internally well linked...
  for (u32 i = 1; i < honeypot_pages; ++i) {
    b.add_edge(first + i, first);
    b.add_edge(first, first + i);
  }
  // ...and it induces legitimate pages to link to it (the paper: "a
  // honeypot *induces* links" rather than hijacking them).
  for (u32 i = 0; i < lured_links; ++i) {
    NodeId lure;
    do {
      lure = rng.next_below(corpus.num_pages());
    } while (corpus.source_is_spam[corpus.page_source[lure]]);
    b.add_edge(lure, first);
  }
  // The payoff: the honeypot passes its accumulated authority on.
  b.add_edge(first, target_page);
  out.pages = b.build();
  return out;
}

std::vector<NodeId> select_attack_targets(const WebCorpus& corpus,
                                          std::span<const f64> scores,
                                          std::span<const f64> kappa,
                                          u32 count, Pcg32& rng,
                                          f64 bottom_fraction) {
  const u32 ns = corpus.num_sources();
  SRSR_CHECK(scores.size() == ns && kappa.size() == ns,
             "select_attack_targets: vector sizes must match source count");
  SRSR_CHECK(bottom_fraction > 0.0 && bottom_fraction <= 1.0,
             "select_attack_targets: bottom_fraction must be in (0,1]");
  // Ascending by score: the bottom of the ranking first.
  std::vector<u32> order(ns);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    return a < b;
  });
  const u32 limit = std::max<u32>(1, static_cast<u32>(
      static_cast<f64>(ns) * bottom_fraction));
  std::vector<NodeId> eligible;
  for (u32 i = 0; i < limit; ++i) {
    const u32 s = order[i];
    if (kappa[s] == 0.0 && !corpus.source_is_spam[s] &&
        corpus.source_page_count[s] >= 1)
      eligible.push_back(s);
  }
  SRSR_CHECK(eligible.size() >= count,
             "select_attack_targets: not enough eligible sources");
  shuffle(rng, eligible);
  eligible.resize(count);
  std::sort(eligible.begin(), eligible.end());
  return eligible;
}

NodeId random_page_of(const WebCorpus& corpus, NodeId source, Pcg32& rng) {
  SRSR_CHECK(source < corpus.num_sources(),
             "random_page_of: source out of range");
  SRSR_CHECK(corpus.source_page_count[source] > 0,
             "random_page_of: empty source");
  std::vector<NodeId> pages;
  pages.reserve(corpus.source_page_count[source]);
  for (NodeId p = 0; p < corpus.num_pages(); ++p)
    if (corpus.page_source[p] == source) pages.push_back(p);
  return pages[rng.next_below(static_cast<u32>(pages.size()))];
}

}  // namespace srsr::spam
