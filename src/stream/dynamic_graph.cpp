#include "stream/dynamic_graph.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "util/check.hpp"

namespace srsr::stream {

namespace {

/// apply() folds the page overlay into a fresh CSR base once it holds
/// more than 1/kOverlayDivisor of the base's pages.
constexpr NodeId kOverlayDivisor = 16;

}  // namespace

DynamicSourceGraph::DynamicSourceGraph(const graph::Graph& pages,
                                       const core::SourceMap& map,
                                       std::vector<std::string> hosts)
    : base_(pages), page_source_(map.page_source()), hosts_(std::move(hosts)) {
  // graph::Graph guarantees sorted, distinct out-neighbors per page, so
  // the base is a plain copy of the seed CSR.
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
    SRSR_CHECK(inserted, "DynamicSourceGraph: duplicate host name '",
               hosts_[s], "' — host names key page additions");
  }

  row_begin_.assign(ns, 0);
  row_len_.assign(ns, 0);
  row_stats_.self.assign(ns, 0.0);
  row_stats_.off.assign(ns, 0.0);
  row_stats_.empty.assign(ns, 0);
  has_links_.assign(ns, 0);
  index_source_pages();
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

DynamicSourceGraph::Storage DynamicSourceGraph::storage() const {
  Storage out;
  out.arena_entries = cols_.size();
  out.page_folds = page_folds_;
  out.arena_compactions = arena_compactions_;
  return out;
}

std::span<const NodeId> DynamicSourceGraph::page_out(NodeId p) const {
  if (!page_overlay_.empty()) {
    const auto it = page_overlay_.find(p);
    if (it != page_overlay_.end()) return it->second;
  }
  SRSR_DCHECK(p < base_.num_nodes(),
              "DynamicSourceGraph: page ", p, " is in neither store");
  return base_.out_neighbors(p);
}

std::vector<NodeId>& DynamicSourceGraph::page_out_for_edit(NodeId p) {
  const auto [it, inserted] = page_overlay_.try_emplace(p);
  if (inserted) {
    const auto nbrs = base_.out_neighbors(p);
    it->second.assign(nbrs.begin(), nbrs.end());
  }
  return it->second;
}

/// Rebuilds the source -> pages CSR from page_source_ (pages ascending
/// per source) and empties the source overlay it now covers.
void DynamicSourceGraph::index_source_pages() {
  const u32 ns = num_sources();
  source_page_offsets_.assign(static_cast<std::size_t>(ns) + 1, 0);
  for (const NodeId s : page_source_) ++source_page_offsets_[s + 1];
  for (u32 s = 0; s < ns; ++s)
    source_page_offsets_[s + 1] += source_page_offsets_[s];
  std::vector<u64> cursor(source_page_offsets_.begin(),
                          source_page_offsets_.end() - 1);
  source_page_ids_.resize(page_source_.size());
  for (NodeId p = 0; p < num_pages(); ++p)
    source_page_ids_[cursor[page_source_[p]]++] = p;
  source_overlay_ = {};
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
  const auto add_page = [&](NodeId p) {
    const auto page_begin = static_cast<std::ptrdiff_t>(targets.size());
    for (const NodeId q : page_out(p)) targets.push_back(page_source_[q]);
    std::sort(targets.begin() + page_begin, targets.end());
    targets.erase(std::unique(targets.begin() + page_begin, targets.end()),
                  targets.end());
  };
  if (s + 1 < source_page_offsets_.size())
    for (u64 i = source_page_offsets_[s]; i < source_page_offsets_[s + 1]; ++i)
      add_page(source_page_ids_[i]);
  if (!source_overlay_.empty()) {
    const auto it = source_overlay_.find(s);
    if (it != source_overlay_.end())
      for (const NodeId p : it->second) add_page(p);
  }
  std::sort(targets.begin(), targets.end());

  auto& cols = cols_scratch_;
  auto& weights = weights_scratch_;
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

  // In place when the row did not grow, else appended to the arena.
  const auto len = static_cast<u32>(cols.size());
  if (len > row_len_[s]) row_begin_[s] = cols_.size();
  const u64 end = row_begin_[s] + len;
  if (end > cols_.size()) {
    cols_.resize(end);
    weights_.resize(end);
  }
  std::copy(cols.begin(), cols.end(), cols_.begin() + row_begin_[s]);
  std::copy(weights.begin(), weights.end(), weights_.begin() + row_begin_[s]);
  row_entries_ = row_entries_ - row_len_[s] + len;
  row_len_[s] = len;

  has_links_[s] = targets.empty() ? 0 : 1;
  // Augmented rows always hold at least the self entry, so `empty`
  // (ThrottleRowStats::of's no-entries-at-all flag) never fires here.
  row_stats_.self[s] = self_w;
  row_stats_.off[s] = off_w;
  row_stats_.empty[s] = 0;
}

/// Writes every page into a fresh CSR base, in page id order.
void DynamicSourceGraph::fold_page_overlay() {
  const NodeId n = num_pages();
  std::vector<u64> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId p = 0; p < n; ++p)
    offsets[p + 1] = offsets[p] + page_out(p).size();
  std::vector<NodeId> targets(offsets[n]);
  for (NodeId p = 0; p < n; ++p) {
    const auto out = page_out(p);
    std::copy(out.begin(), out.end(), targets.begin() + offsets[p]);
  }
  page_overlay_ = {};
  base_ = graph::Graph(std::move(offsets), std::move(targets));
  index_source_pages();
  ++page_folds_;
}

/// Rewrites the live rows back to back in row order.
void DynamicSourceGraph::compact_arena() {
  std::vector<NodeId> cols;
  std::vector<f64> weights;
  cols.reserve(row_entries_);
  weights.reserve(row_entries_);
  for (NodeId s = 0; s < num_sources(); ++s) {
    const auto rc = row_cols(s);
    const auto rw = row_weights(s);
    row_begin_[s] = cols.size();
    cols.insert(cols.end(), rc.begin(), rc.end());
    weights.insert(weights.end(), rw.begin(), rw.end());
  }
  cols_ = std::move(cols);
  weights_ = std::move(weights);
  ++arena_compactions_;
}

DynamicSourceGraph::ApplyResult DynamicSourceGraph::apply(
    const UpdateBatch& batch) {
  ApplyResult result;
  // Deterministic dirty set: every touched row, then sorted and
  // deduplicated.
  std::vector<NodeId>& dirty = result.dirty;
  const u32 ns_before = num_sources();

  for (const Mutation& m : batch.mutations) {
    switch (m.kind) {
      case MutationKind::kInsertLink:
      case MutationKind::kEraseLink: {
        SRSR_CHECK(m.u < num_pages() && m.v < num_pages(),
                   "DynamicSourceGraph: link (", m.u, " -> ", m.v,
                   ") references a page outside [0, ", num_pages(),
                   ") — was the batch committed against this graph?");
        const auto out = page_out(m.u);
        const bool insert = m.kind == MutationKind::kInsertLink;
        if (std::binary_search(out.begin(), out.end(), m.v) == insert) {
          ++result.noops;
          break;
        }
        auto& row = page_out_for_edit(m.u);
        const auto it = std::lower_bound(row.begin(), row.end(), m.v);
        if (insert)
          row.insert(it, m.v);
        else
          row.erase(it);
        ++result.applied;
        dirty.push_back(page_source_[m.u]);
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
          // The new source starts page-less and link-less: its
          // augmented row is a pure self-loop (weight 1), exactly what
          // derive_row computes for an empty source.
          row_begin_.push_back(cols_.size());
          row_len_.push_back(1);
          cols_.push_back(sid);
          weights_.push_back(1.0);
          row_entries_ += 1;
          row_stats_.self.push_back(1.0);
          row_stats_.off.push_back(0.0);
          row_stats_.empty.push_back(0);
          has_links_.push_back(0);
          ++result.new_sources;
        }
        const NodeId pid = num_pages();
        page_overlay_.try_emplace(pid);
        page_source_.push_back(sid);
        source_overlay_[sid].push_back(pid);
        ++result.applied;
        // A link-less page changes no consensus count; the owning row
        // only becomes dirty when a later mutation links from it.
        break;
      }
    }
  }

  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  result.old_offsets.reserve(dirty.size() + 1);
  for (const NodeId s : dirty) {
    // A row created AND linked within this batch did not exist before
    // it, and the self-loop seeded at creation was never visible to the
    // ranker either — report it as empty.
    if (s < ns_before) {
      const auto cols = row_cols(s);
      const auto weights = row_weights(s);
      result.old_cols.insert(result.old_cols.end(), cols.begin(), cols.end());
      result.old_weights.insert(result.old_weights.end(), weights.begin(),
                                weights.end());
    }
    result.old_offsets.push_back(result.old_cols.size());
    derive_row(s);
  }

  if (page_overlay_.size() > base_.num_nodes() / kOverlayDivisor)
    fold_page_overlay();
  if (cols_.size() - row_entries_ > row_entries_) compact_arena();
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
    const auto rc = row_cols(s);
    const auto rw = row_weights(s);
    cols.insert(cols.end(), rc.begin(), rc.end());
    weights.insert(weights.end(), rw.begin(), rw.end());
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
      const auto cs = row_cols(s);
      const auto ws = row_weights(s);
      for (std::size_t i = 0; i < cs.size(); ++i)
        if (ws[i] > 0.0) targets.push_back(cs[i]);
    }
    offsets[s + 1] = targets.size();
  }
  return graph::Graph(std::move(offsets), std::move(targets));
}

}  // namespace srsr::stream
