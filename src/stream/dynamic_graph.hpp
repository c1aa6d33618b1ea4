// DynamicSourceGraph — the page -> source-row derivation, made mutable.
//
// core::SourceGraph derives the whole consensus matrix T' in one O(E)
// pass and is immutable after that. Under a continuous crawl the
// derivation must instead be repaired row by row: a link mutation on
// page u can only change the T' row of u's OWNING source (row s_i is a
// function of the out-links of s_i's pages and nothing else), and a
// discovered page with no out-links changes no row at all — it can at
// most append a brand-new source. This class owns that locality.
//
// Storage is flat, so a web-scale crawl costs a few arrays rather than
// a heap allocation per page and per row:
//
//   - Pages: an immutable CSR base (the seed page graph: u64 offsets
//     plus one target array, sorted and distinct per page) and an
//     overlay keyed by page id. The base shares the caller's arrays
//     (graph::Graph copies share storage), so the crawl is held once
//     until the first fold. A page moves into the overlay, as its
//     own sorted vector, on its first state-changing insert or erase;
//     pages from add_page live only there. Once the overlay holds more
//     than 1/16 of the base's pages, apply() folds it into a fresh base.
//   - Source -> pages: CSR over the seed assignment, plus an overlay
//     of the pages add_page gave each source (folded with the pages).
//   - T' rows: the SELF-EDGE-AUGMENTED consensus matrix (Sec. 3.2/3.3)
//     in one arena — a cols array and a weights array, each row a
//     (begin, length) slice. A re-derived row is written in place when
//     it is no longer than before and appended otherwise; the arena is
//     compacted in row order once its dead entries outnumber its live
//     ones. Every row stays BITWISE identical to what
//     core::SourceGraph::consensus_matrix(true) builds from the same
//     page graph — the stream_update_test pins this row for row.
//   - The kappa-independent ThrottleRowStats of that store, repaired
//     for dirty rows only, so the throttle plan stays O(V).
//   - Hosts: one immutable graph::HostIndex behind a shared_ptr, which
//     every snapshot built from this graph shares. A batch that adds
//     sources swaps in a new index once, at its end (copy-on-write); an
//     index a snapshot holds is never mutated.
//
// apply() returns the dirty rows WITH their pre-edit row contents, in
// one flat buffer: the IncrementalRanker needs both sides of every
// changed row to inject the signed residual delta (see incremental.hpp).
//
// Threading contract: single writer (the recompute worker). Readers
// may not overlap a mutation; the serve layer serializes through its
// queue. Row spans are invalidated by the next apply().
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/source_map.hpp"
#include "core/throttle.hpp"
#include "graph/graph.hpp"
#include "graph/host_index.hpp"
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
                     graph::Hosts hosts);

  u32 num_sources() const { return static_cast<u32>(row_len_.size()); }
  NodeId num_pages() const { return static_cast<NodeId>(page_source_.size()); }
  u64 row_entries() const { return row_entries_; }

  /// The current host index. It is replaced, never mutated, by a
  /// batch that adds sources; a holder keeps the one it took.
  const graph::HostIndexPtr& hosts() const { return hosts_; }
  std::optional<NodeId> source_id(const std::string& host) const {
    return hosts_->id_of(host);
  }
  NodeId source_of_page(NodeId page) const;

  struct ApplyResult {
    std::vector<NodeId> dirty;  // ascending row id
    /// T' contents of row dirty[i] from BEFORE the batch: entries
    /// [old_offsets[i], old_offsets[i + 1]) of old_cols / old_weights
    /// (empty for rows created by the batch).
    std::vector<u64> old_offsets{0};
    std::vector<NodeId> old_cols;
    std::vector<f64> old_weights;
    u32 new_sources = 0;  // appended at the end of the id space
    u64 applied = 0;      // mutations that changed state
    u64 noops = 0;        // redundant inserts / absent erases

    std::span<const NodeId> old_row_cols(std::size_t i) const {
      return std::span<const NodeId>(old_cols).subspan(
          old_offsets[i], old_offsets[i + 1] - old_offsets[i]);
    }
    std::span<const f64> old_row_weights(std::size_t i) const {
      return std::span<const f64>(old_weights)
          .subspan(old_offsets[i], old_offsets[i + 1] - old_offsets[i]);
    }
  };

  /// Applies a committed batch: mutates the page graph, re-derives
  /// exactly the dirty source rows, repairs their ThrottleRowStats
  /// entries. Throws (leaving a partial batch applied — the caller
  /// must treat the ranker state as poisoned and full-resolve) on ids
  /// outside the page space.
  ApplyResult apply(const UpdateBatch& batch);

  /// Row r of the self-edge-augmented consensus matrix T'.
  std::span<const NodeId> row_cols(NodeId r) const {
    return {cols_.data() + row_begin_[r], row_len_[r]};
  }
  std::span<const f64> row_weights(NodeId r) const {
    return {weights_.data() + row_begin_[r], row_len_[r]};
  }

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

  /// Occupancy of the flat stores (see the header comment).
  struct Storage {
    u64 arena_entries = 0;      // row arena slots, live and dead
    u64 page_folds = 0;         // overlay folds into a fresh base
    u64 arena_compactions = 0;  // row arena rewrites in row order
    u64 host_index_swaps = 0;   // batches that replaced the host index
  };
  Storage storage() const;

 private:
  /// Sorted distinct out-neighbors of page p, wherever p lives.
  std::span<const NodeId> page_out(NodeId p) const;
  /// Page p's overlay list, copied from the base on first use.
  std::vector<NodeId>& page_out_for_edit(NodeId p);
  void index_source_pages();
  void derive_row(NodeId s);
  void fold_page_overlay();
  void compact_arena();

  // Page graph: CSR base over pages [0, base_.num_nodes()) + overlay.
  graph::Graph base_;
  /// Lookup only — NEVER iterated (the sigma path must stay free of
  /// hash-order dependence); folds walk page ids in order.
  std::unordered_map<NodeId, std::vector<NodeId>> page_overlay_;
  std::vector<NodeId> page_source_;
  // Source -> pages: CSR over the sources the index was built for,
  // then each source's add_page pages (ascending). Lookup only.
  std::vector<u64> source_page_offsets_;
  std::vector<NodeId> source_page_ids_;
  std::unordered_map<NodeId, std::vector<NodeId>> source_overlay_;
  graph::HostIndexPtr hosts_;

  // Self-edge-augmented consensus rows (T') + their throttle stats.
  std::vector<u64> row_begin_;
  std::vector<u32> row_len_;
  std::vector<NodeId> cols_;   // arena: live rows and dead slots
  std::vector<f64> weights_;
  core::ThrottleRowStats row_stats_;
  u64 row_entries_ = 0;  // live arena entries
  /// 1 when some page of the source has an out-link. The row store
  /// alone cannot say: a link-less source and one whose pages link only
  /// to its own host both have the row {s: 1.0}.
  std::vector<u8> has_links_;
  // derive_row's buffers: consensus targets, then the row it builds.
  std::vector<NodeId> targets_scratch_;
  std::vector<NodeId> cols_scratch_;
  std::vector<f64> weights_scratch_;
  u64 page_folds_ = 0;
  u64 arena_compactions_ = 0;
  u64 host_index_swaps_ = 0;
};

}  // namespace srsr::stream
