// DynamicSourceGraph — the page -> source-row derivation, made mutable.
//
// core::SourceGraph derives the whole consensus matrix T' in one O(E)
// pass and is immutable after that. Under a continuous crawl the
// derivation must instead be repaired row by row: a link mutation on
// page u can only change the T' row of u's OWNING source (row s_i is a
// function of the out-links of s_i's pages and nothing else), and a
// discovered page with no out-links changes no row at all — it can at
// most append a brand-new source. This class owns that locality:
//
//   - per-page sorted out-neighbor lists (the mutable page graph);
//   - the page -> source assignment, growable by host name;
//   - a per-source row store of the SELF-EDGE-AUGMENTED consensus
//     matrix T' (Sec. 3.2/3.3), kept BITWISE identical to what
//     core::SourceGraph::consensus_matrix(true) would build from the
//     same page graph — the stream_update_test pins this row for row;
//   - the kappa-independent ThrottleRowStats of that store, repaired
//     for dirty rows only, so the throttle plan stays O(V).
//
// apply() returns the dirty rows WITH their pre-edit row contents: the
// IncrementalRanker needs both sides of every changed row to inject
// the signed residual delta (see incremental.hpp).
//
// Threading contract: single writer (the recompute worker). Readers
// may not overlap a mutation; the serve layer serializes through its
// queue.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/source_map.hpp"
#include "core/throttle.hpp"
#include "graph/graph.hpp"
#include "rank/stochastic.hpp"
#include "stream/edge_stream.hpp"
#include "util/common.hpp"

namespace srsr::stream {

class DynamicSourceGraph {
 public:
  /// Seeds the dynamic state from a static page graph + source map.
  /// `hosts` must be empty (names are synthesized as "s<i>") or carry
  /// one entry per source; names must be unique (they key add_page).
  DynamicSourceGraph(const graph::Graph& pages, const core::SourceMap& map,
                     std::vector<std::string> hosts);

  u32 num_sources() const { return static_cast<u32>(row_cols_.size()); }
  NodeId num_pages() const { return static_cast<NodeId>(page_out_.size()); }
  u64 row_entries() const { return row_entries_; }

  const std::vector<std::string>& hosts() const { return hosts_; }
  std::optional<NodeId> source_id(const std::string& host) const;
  NodeId source_of_page(NodeId page) const;

  /// One dirty row of an apply: the row id plus its T' contents from
  /// BEFORE the batch (empty vectors for rows created by the batch).
  struct RowDelta {
    NodeId row = kInvalidNode;
    std::vector<NodeId> old_cols;
    std::vector<f64> old_weights;
  };

  struct ApplyResult {
    std::vector<RowDelta> dirty;  // ascending row id
    u32 new_sources = 0;          // appended at the end of the id space
    u64 applied = 0;              // mutations that changed state
    u64 noops = 0;                // redundant inserts / absent erases
  };

  /// Applies a committed batch: mutates the page graph, re-derives
  /// exactly the dirty source rows, repairs their ThrottleRowStats
  /// entries. Throws (leaving a partial batch applied — the caller
  /// must treat the ranker state as poisoned and full-resolve) on ids
  /// outside the page space.
  ApplyResult apply(const UpdateBatch& batch);

  /// Row r of the self-edge-augmented consensus matrix T'.
  std::span<const NodeId> row_cols(NodeId r) const { return row_cols_[r]; }
  std::span<const f64> row_weights(NodeId r) const { return row_weights_[r]; }

  /// Kappa-independent per-row stats of the row store, maintained
  /// incrementally; feed to core::make_throttle_plan.
  const core::ThrottleRowStats& row_stats() const { return row_stats_; }

  /// The row store materialized as a matrix — bitwise identical to
  /// core::SourceGraph(pages, map).consensus_matrix(true) on the
  /// equivalent static inputs. O(V + E); diagnostics and tests.
  rank::StochasticMatrix materialize() const;

  /// Source-level topology (consensus count > 0 edges, natural self
  /// edges only — no augmentation), read off the row store in
  /// O(V + nnz): what spam-proximity walks consume.
  graph::Graph topology() const;

 private:
  void derive_row(NodeId s);

  // Mutable page graph: sorted distinct out-neighbors per page.
  std::vector<std::vector<NodeId>> page_out_;
  std::vector<NodeId> page_source_;
  std::vector<std::vector<NodeId>> source_pages_;
  std::vector<std::string> hosts_;
  /// Host -> source id. Lookup only — NEVER iterated (the sigma path
  /// must stay free of hash-order dependence).
  std::unordered_map<std::string, NodeId> host_ids_;

  // Self-edge-augmented consensus rows (T') + their throttle stats.
  std::vector<std::vector<NodeId>> row_cols_;
  std::vector<std::vector<f64>> row_weights_;
  core::ThrottleRowStats row_stats_;
  u64 row_entries_ = 0;
  /// 1 when some page of the source has an out-link. The row store
  /// alone cannot say: a link-less source and one whose pages link only
  /// to its own host both have the row {s: 1.0}.
  std::vector<u8> has_links_;
  std::vector<NodeId> targets_scratch_;  // derive_row's count buffer
};

}  // namespace srsr::stream
