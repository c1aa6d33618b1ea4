// RankSnapshot — the immutable unit of the serving layer.
//
// A snapshot freezes one solve of the ranking pipeline into a read-only
// bundle every query needs at lookup time:
//
//   - the sigma vector (per-source scores, a probability distribution);
//   - the source-id map (host name <-> NodeId, both directions);
//   - the top-k index: all sources pre-sorted by descending score (ties
//     by ascending id, the convention of metrics/ranking.cpp), plus the
//     inverse rank array, so top_k() and rank_of() are O(k) / O(1) with
//     no per-query sorting;
//   - metadata: which kappa policy produced it, which solver, how many
//     iterations, whether it converged, and the publish epoch.
//
// Immutability is the whole concurrency story: a snapshot is built
// off-line by one thread, then published through SnapshotStore (which
// stamps the epoch); after publication nothing mutates it, so any
// number of readers can use it lock-free for as long as they hold the
// shared_ptr. A FNV-1a checksum over the score bytes (folded with the
// epoch at stamping) lets readers prove they never observed a torn or
// half-published snapshot — serve_store_test verifies it on every
// acquire, and the bench suite's query_churn workload samples it.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/srsr.hpp"
#include "util/common.hpp"

namespace srsr::serve {

/// Provenance of one published snapshot.
struct SnapshotMeta {
  /// Publish sequence number, stamped by SnapshotStore::publish (0 =
  /// not yet published).
  u64 epoch = 0;
  /// Human-readable description of the kappa policy applied.
  std::string kappa_policy;
  /// "push" for every RecomputePipeline publish (IncrementalRanker);
  /// "power" | "jacobi" for a make_snapshot build, by the model's
  /// SolverKind.
  std::string solver;
  /// Solver iterations — for "push", the run's push count (clamped to
  /// u32).
  u32 iterations = 0;
  f64 residual = 0.0;
  bool converged = false;
  f64 solve_seconds = 0.0;
  /// Total throttle mass sum(kappa) — a cheap one-number policy summary.
  f64 kappa_mass = 0.0;
  bool warm_started = false;
};

class SnapshotStore;

class RankSnapshot {
 public:
  /// `hosts` must be empty (ids are then served as "s<i>") or have one
  /// entry per score. `scores` should be a probability vector (the
  /// solver output contract); this is not re-validated here.
  RankSnapshot(std::vector<f64> scores, std::vector<std::string> hosts,
               SnapshotMeta meta);

  NodeId num_sources() const { return static_cast<NodeId>(scores_.size()); }
  std::span<const f64> scores() const { return scores_; }
  f64 score(NodeId s) const { return scores_[s]; }
  const std::string& host(NodeId s) const { return hosts_[s]; }
  const std::vector<std::string>& hosts() const { return hosts_; }

  /// NodeId for a host name, or nullopt when unknown.
  std::optional<NodeId> id_of(const std::string& host) const;

  /// The first min(k, n) source ids by descending score.
  std::span<const NodeId> top(u32 k) const;

  /// 1-based position of `s` in the descending-score order (rank 1 =
  /// highest score; ties ordered by ascending id).
  u32 rank_of(NodeId s) const { return rank_[s]; }

  const SnapshotMeta& meta() const { return meta_; }
  u64 checksum() const { return checksum_; }

  /// Recomputes the checksum from the score bytes and epoch and
  /// compares. A false return means the snapshot was torn or corrupted
  /// in memory — must never happen through the store.
  bool verify_checksum() const;

 private:
  friend class SnapshotStore;

  /// Store-only: records the publish epoch and folds it into the
  /// checksum. Must happen before the snapshot becomes shared.
  void stamp_epoch(u64 epoch);

  std::vector<f64> scores_;
  std::vector<std::string> hosts_;
  std::unordered_map<std::string, NodeId> host_ids_;
  std::vector<NodeId> order_;  // ids by descending score, ties by id
  std::vector<u32> rank_;      // rank_[id] = 1-based position in order_
  SnapshotMeta meta_;
  u64 checksum_ = 0;
};

using SnapshotPtr = std::shared_ptr<const RankSnapshot>;

struct SnapshotBuild {
  std::string policy = "custom";
};

/// Solves sigma for `kappa` cold and bundles it into an (unpublished)
/// snapshot, bitwise-reproducible against a direct model.rank() call
/// with the same kappa. `hosts` is copied into the snapshot; pass {} to
/// synthesize "s<i>" names.
RankSnapshot make_snapshot(const core::SpamResilientSourceRank& model,
                           std::span<const f64> kappa,
                           std::vector<std::string> hosts,
                           const SnapshotBuild& build = {});

}  // namespace srsr::serve
