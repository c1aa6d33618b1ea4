#include "stream/dynamic_graph.hpp"

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>

#include "util/check.hpp"

namespace srsr::stream {

DynamicSourceGraph::DynamicSourceGraph(const graph::Graph& pages,
                                       const core::SourceMap& map,
                                       std::vector<std::string> hosts)
    : hosts_(std::move(hosts)) {
  SRSR_CHECK(pages.num_nodes() == map.num_pages(),
             "DynamicSourceGraph: page graph and source map disagree on "
             "page count");
  const u32 ns = map.num_sources();
  SRSR_CHECK(hosts_.empty() || hosts_.size() == ns,
             "DynamicSourceGraph: ", hosts_.size(), " hosts for ", ns,
             " sources");
  if (hosts_.empty()) {
    hosts_.reserve(ns);
    for (u32 s = 0; s < ns; ++s) {
      std::string name("s");
      name += std::to_string(s);
      hosts_.push_back(std::move(name));
    }
  }
  host_ids_.reserve(hosts_.size());
  for (u32 s = 0; s < ns; ++s) {
    const bool inserted = host_ids_.emplace(hosts_[s], s).second;
    check(inserted, "DynamicSourceGraph: duplicate host name '" + hosts_[s] +
                        "' — host names key page additions");
  }

  page_source_ = map.page_source();
  source_pages_.resize(ns);
  for (NodeId p = 0; p < map.num_pages(); ++p)
    source_pages_[page_source_[p]].push_back(p);

  page_out_.resize(pages.num_nodes());
  for (NodeId p = 0; p < pages.num_nodes(); ++p) {
    const auto nbrs = pages.out_neighbors(p);
    auto& row = page_out_[p];
    row.assign(nbrs.begin(), nbrs.end());
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }

  row_cols_.resize(ns);
  row_weights_.resize(ns);
  row_stats_.self.assign(ns, 0.0);
  row_stats_.off.assign(ns, 0.0);
  row_stats_.empty.assign(ns, 0);
  has_links_.assign(ns, 0);
  for (u32 s = 0; s < ns; ++s) derive_row(s);
}

std::optional<NodeId> DynamicSourceGraph::source_id(
    const std::string& host) const {
  const auto it = host_ids_.find(host);
  if (it == host_ids_.end()) return std::nullopt;
  return it->second;
}

NodeId DynamicSourceGraph::source_of_page(NodeId page) const {
  SRSR_CHECK(page < num_pages(),
             "DynamicSourceGraph: page id out of range");
  return page_source_[page];
}

/// Re-derives T' row s from the page graph, mirroring
/// core::SourceGraph::build_matrix(consensus, with_self_edges = true)
/// so the two derivations can never drift: entries in ascending target
/// order, weights count / total, and a missing self entry spliced in
/// with weight 0. The total is a sum of small integers, exact in f64,
/// so it equals the static path's per-target accumulation bitwise.
void DynamicSourceGraph::derive_row(NodeId s) {
  // Consensus counts: number of DISTINCT pages of s linking to each
  // target source (a page linking to three pages of s_j contributes 1).
  // Each page appends its distinct targets; after one sort, a target's
  // run length is its count.
  auto& targets = targets_scratch_;
  targets.clear();
  for (const NodeId p : source_pages_[s]) {
    const auto page_begin = static_cast<std::ptrdiff_t>(targets.size());
    for (const NodeId q : page_out_[p]) targets.push_back(page_source_[q]);
    std::sort(targets.begin() + page_begin, targets.end());
    targets.erase(std::unique(targets.begin() + page_begin, targets.end()),
                  targets.end());
  }
  std::sort(targets.begin(), targets.end());

  auto& cols = row_cols_[s];
  auto& weights = row_weights_[s];
  row_entries_ -= cols.size();
  cols.clear();
  weights.clear();

  f64 self_w = 0.0;
  f64 off_w = 0.0;
  if (targets.empty()) {
    // No out-edges: the augmentation makes the source a pure self-loop.
    cols.push_back(s);
    weights.push_back(1.0);
    self_w = 1.0;
  } else {
    const f64 total = static_cast<f64>(targets.size());
    bool self_seen = false;
    for (std::size_t i = 0; i < targets.size();) {
      const NodeId t = targets[i];
      std::size_t j = i + 1;
      while (j < targets.size() && targets[j] == t) ++j;
      if (!self_seen && t > s) {
        cols.push_back(s);
        weights.push_back(0.0);
        self_seen = true;
      }
      self_seen |= (t == s);
      const f64 w = static_cast<f64>(j - i) / total;
      cols.push_back(t);
      weights.push_back(w);
      (t == s ? self_w : off_w) += w;
      i = j;
    }
    if (!self_seen) {
      cols.push_back(s);
      weights.push_back(0.0);
    }
  }
  row_entries_ += cols.size();
  has_links_[s] = targets.empty() ? 0 : 1;
  // Augmented rows always hold at least the self entry, so `empty`
  // (ThrottleRowStats::of's no-entries-at-all flag) never fires here.
  row_stats_.self[s] = self_w;
  row_stats_.off[s] = off_w;
  row_stats_.empty[s] = 0;
}

DynamicSourceGraph::ApplyResult DynamicSourceGraph::apply(
    const UpdateBatch& batch) {
  ApplyResult result;
  // Deterministic dirty set: ordered, deduplicated.
  std::set<NodeId> dirty;
  const u32 ns_before = num_sources();

  for (const Mutation& m : batch.mutations) {
    switch (m.kind) {
      case MutationKind::kInsertLink:
      case MutationKind::kEraseLink: {
        SRSR_CHECK(m.u < num_pages() && m.v < num_pages(),
                   "DynamicSourceGraph: link (", m.u, " -> ", m.v,
                   ") references a page outside [0, ", num_pages(),
                   ") — was the batch committed against this graph?");
        auto& row = page_out_[m.u];
        const auto it = std::lower_bound(row.begin(), row.end(), m.v);
        const bool present = it != row.end() && *it == m.v;
        if (m.kind == MutationKind::kInsertLink) {
          if (present) {
            ++result.noops;
            break;
          }
          row.insert(it, m.v);
        } else {
          if (!present) {
            ++result.noops;
            break;
          }
          row.erase(it);
        }
        ++result.applied;
        dirty.insert(page_source_[m.u]);
        break;
      }
      case MutationKind::kAddPage: {
        SRSR_CHECK(!m.host.empty(),
                   "DynamicSourceGraph: add_page with an empty host");
        NodeId sid;
        const auto it = host_ids_.find(m.host);
        if (it != host_ids_.end()) {
          sid = it->second;
        } else {
          sid = static_cast<NodeId>(num_sources());
          host_ids_.emplace(m.host, sid);
          hosts_.push_back(m.host);
          source_pages_.emplace_back();
          // The new source starts page-less and link-less: its
          // augmented row is a pure self-loop (weight 1), exactly what
          // derive_row computes for an empty source.
          row_cols_.push_back({sid});
          row_weights_.push_back({1.0});
          row_entries_ += 1;
          row_stats_.self.push_back(1.0);
          row_stats_.off.push_back(0.0);
          row_stats_.empty.push_back(0);
          has_links_.push_back(0);
          ++result.new_sources;
        }
        const NodeId pid = num_pages();
        page_out_.emplace_back();
        page_source_.push_back(sid);
        source_pages_[sid].push_back(pid);
        ++result.applied;
        // A link-less page changes no consensus count; the owning row
        // only becomes dirty when a later mutation links from it.
        break;
      }
    }
  }

  result.dirty.reserve(dirty.size());
  for (const NodeId s : dirty) {
    RowDelta d;
    d.row = s;
    row_entries_ -= row_cols_[s].size();
    d.old_cols = std::move(row_cols_[s]);
    d.old_weights = std::move(row_weights_[s]);
    if (s >= ns_before) {
      // Created AND linked within this batch: the pre-batch row did not
      // exist, and the self-loop seeded at creation was never visible
      // to the ranker either — report it as empty.
      d.old_cols.clear();
      d.old_weights.clear();
    }
    row_cols_[s].clear();
    row_weights_[s].clear();
    derive_row(s);
    result.dirty.push_back(std::move(d));
  }
  return result;
}

rank::StochasticMatrix DynamicSourceGraph::materialize() const {
  const u32 ns = num_sources();
  std::vector<u64> offsets(static_cast<std::size_t>(ns) + 1, 0);
  std::vector<NodeId> cols;
  std::vector<f64> weights;
  cols.reserve(row_entries_);
  weights.reserve(row_entries_);
  for (u32 s = 0; s < ns; ++s) {
    cols.insert(cols.end(), row_cols_[s].begin(), row_cols_[s].end());
    weights.insert(weights.end(), row_weights_[s].begin(),
                   row_weights_[s].end());
    offsets[s + 1] = cols.size();
  }
  return rank::StochasticMatrix(std::move(offsets), std::move(cols),
                                std::move(weights));
}

graph::Graph DynamicSourceGraph::topology() const {
  // A linked row holds exactly its consensus targets (weight > 0) plus,
  // when s has no natural self edge, the spliced weight-0 self entry. A
  // link-less row is the augmented {s: 1.0} and contributes no edge —
  // has_links_ tells it apart from a row whose pages link only home.
  const u32 ns = num_sources();
  std::vector<u64> offsets(static_cast<std::size_t>(ns) + 1, 0);
  std::vector<NodeId> targets;
  targets.reserve(row_entries_);
  for (u32 s = 0; s < ns; ++s) {
    if (has_links_[s]) {
      const auto cs = row_cols_[s];
      const auto ws = row_weights_[s];
      for (std::size_t i = 0; i < cs.size(); ++i)
        if (ws[i] > 0.0) targets.push_back(cs[i]);
    }
    offsets[s + 1] = targets.size();
  }
  return graph::Graph(std::move(offsets), std::move(targets));
}

}  // namespace srsr::stream
