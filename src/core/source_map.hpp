// Page -> source assignment (the paper's "source view of the Web").
//
// Sec. 3.1: pages are grouped into logical collections called sources;
// the paper instantiates the grouping by URL host (Sec. 6.1). SourceMap
// is that assignment as a standalone value: a dense page->source id
// vector plus per-source page counts. It can come from a generated
// corpus, from URL host extraction, or from any expert-provided
// grouping.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/webgen.hpp"
#include "util/check.hpp"
#include "util/common.hpp"

namespace srsr::core {

class SourceMap {
 public:
  /// From an explicit assignment; source ids must be dense 0..max.
  explicit SourceMap(std::vector<NodeId> page_source);

  /// From a generated / loaded corpus.
  static SourceMap from_corpus(const graph::WebCorpus& corpus);

  /// From per-page URLs: pages with equal hosts share a source. Source
  /// ids are assigned in order of first appearance.
  static SourceMap from_urls(const std::vector<std::string>& urls);

  /// Degenerate map: every page is its own source. Under this map the
  /// source graph *is* the page graph — useful for differential tests
  /// (SourceRank == PageRank modulo self-edge handling).
  static SourceMap identity(NodeId num_pages);

  NodeId num_pages() const { return static_cast<NodeId>(page_source_.size()); }
  u32 num_sources() const { return num_sources_; }

  NodeId source_of(NodeId page) const {
    SRSR_CHECK(page < num_pages(),
               "SourceMap::source_of: page id out of range");
    return page_source_[page];
  }

  const std::vector<NodeId>& page_source() const { return page_source_; }
  const std::vector<u32>& source_page_count() const { return page_count_; }

  /// Pages of source s (O(num_pages) on first call; cached).
  const std::vector<std::vector<NodeId>>& pages_by_source() const;

  /// Fraction of g's edges that stay within one source — the
  /// link-locality statistic that motivates the source view.
  f64 locality(const graph::Graph& g) const;

 private:
  std::vector<NodeId> page_source_;
  std::vector<u32> page_count_;
  u32 num_sources_ = 0;
  mutable std::vector<std::vector<NodeId>> pages_cache_;
};

}  // namespace srsr::core
