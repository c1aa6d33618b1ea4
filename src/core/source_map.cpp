#include "core/source_map.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace srsr::core {

SourceMap::SourceMap(std::vector<NodeId> page_source)
    : page_source_(std::move(page_source)) {
  u32 max_source = 0;
  for (const NodeId s : page_source_) max_source = std::max(max_source, s);
  num_sources_ = page_source_.empty() ? 0 : max_source + 1;
  page_count_.assign(num_sources_, 0);
  for (const NodeId s : page_source_) ++page_count_[s];
  for (u32 s = 0; s < num_sources_; ++s)
    SRSR_CHECK(page_count_[s] > 0,
               "SourceMap: source ids must be dense (source ", s,
               " has no pages)");
}

SourceMap SourceMap::from_corpus(const graph::WebCorpus& corpus) {
  return SourceMap(corpus.page_source);
}

SourceMap SourceMap::from_urls(const std::vector<std::string>& urls) {
  std::unordered_map<std::string, NodeId> host_ids;
  std::vector<NodeId> assignment;
  assignment.reserve(urls.size());
  for (const std::string& url : urls) {
    const std::string host = host_of(url);
    const auto [it, _] =
        host_ids.emplace(host, static_cast<NodeId>(host_ids.size()));
    assignment.push_back(it->second);
  }
  return SourceMap(std::move(assignment));
}

SourceMap SourceMap::identity(NodeId num_pages) {
  std::vector<NodeId> assignment(num_pages);
  for (NodeId p = 0; p < num_pages; ++p) assignment[p] = p;
  return SourceMap(std::move(assignment));
}

const std::vector<std::vector<NodeId>>& SourceMap::pages_by_source() const {
  if (pages_cache_.empty() && num_sources_ > 0) {
    pages_cache_.resize(num_sources_);
    for (u32 s = 0; s < num_sources_; ++s)
      pages_cache_[s].reserve(page_count_[s]);
    for (NodeId p = 0; p < num_pages(); ++p)
      pages_cache_[page_source_[p]].push_back(p);
  }
  return pages_cache_;
}

f64 SourceMap::locality(const graph::Graph& g) const {
  SRSR_CHECK(g.num_nodes() == num_pages(),
             "SourceMap::locality: graph size mismatch");
  if (g.num_edges() == 0) return 0.0;
  u64 intra = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const NodeId v : g.out_neighbors(u))
      if (page_source_[u] == page_source_[v]) ++intra;
  return static_cast<f64>(intra) / static_cast<f64>(g.num_edges());
}

}  // namespace srsr::core
