// IncrementalRanker — always-warm sigma maintenance over a mutating
// source graph.
//
// The push solver (rank/push.hpp) maintains the invariant
//
//   x = p + (1-alpha) * (I - alpha*A^T)^{-1} r,
//
// which makes the exact residual a FUNCTION of the estimate:
//
//   r = (alpha*A^T p + (1-alpha)c - p) / (1-alpha).
//
// So when the operator changes from A to A', the new residual is the
// old one plus a sparse signed correction supported exactly on the
// changed rows' entries:
//
//   r' = r + alpha/(1-alpha) * (A' - A)^T p.
//
// IncrementalRanker exploits this: it carries the UNNORMALIZED (p, r)
// pair across batches, injects the signed defect for each dirty row
// reported by DynamicSourceGraph::apply (old entries subtracted under
// the old throttle plan, new entries added under the new plan), and
// drives the residual back under epsilon with push_continue. Work per
// batch is proportional to the injected residual mass — for a
// single-host edit, a local neighborhood — never to the graph.
//
// Three solve paths per batch, recorded in UpdateOutcome::path:
//
//   kDelta    — the normal warm path described above;
//   kFull     — the injected seed mass exceeded full_mass_threshold, so
//               a cold solve (p = 0, r = c) is cheaper than pushing the
//               delta through; also the constructor's initial solve;
//   kFallback — the delta push hit its push cap without converging
//               (residual stall); the ranker discards the warm state
//               and re-solves cold for correctness.
//
// The estimate is kept RAW: under kTeleportDiscard throttling the rows
// carry deficits, and the L1-normalized vector does not satisfy the
// linear system — normalization happens only in sigma(), on a copy.
//
// The ranker binds to a DynamicSourceGraph or to a static model, and
// reads rows and row stats through members fixed at construction: no
// code path past the constructors branches on the binding but apply().
//
// Threading contract: single writer (apply / set_kappa mutate state);
// sigma() copies under the same writer thread. The serve layer
// serializes through its recompute queue and publishes immutable
// snapshots.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/throttle.hpp"
#include "rank/push.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"
#include "util/common.hpp"

namespace srsr::core {
class SpamResilientSourceRank;
}  // namespace srsr::core

namespace srsr::stream {

struct IncrementalConfig {
  f64 alpha = 0.85;
  /// Push until every |r_u| < epsilon. The unnormalized solution error
  /// is bounded by n * epsilon / (1-alpha).
  f64 epsilon = 1e-12;
  core::ThrottleMode mode = core::ThrottleMode::kTeleportDiscard;
  /// Injected seed mass (||r'||_1) above which a cold full solve is
  /// chosen over pushing the delta — a large fraction of the graph is
  /// dirty and the warm start no longer pays.
  f64 full_mass_threshold = 0.25;
  /// Push cap for the delta path; exceeding it triggers the cold
  /// fallback. 0 = auto (a generous multiple of the row count, purely a
  /// stall safeguard — signed push contracts ||r||_1 by (1-alpha) per
  /// unit pushed and converges on its own).
  u64 max_delta_pushes = 0;
};

/// Which solve path a batch took (see the class comment).
enum class UpdatePath { kDelta, kFull, kFallback };

const char* to_string(UpdatePath path);

/// Per-batch accounting, also the serve layer's stats feed.
struct UpdateOutcome {
  UpdatePath path = UpdatePath::kFull;
  u64 pushes = 0;          // push operations this batch
  u64 touched = 0;         // distinct rows pushed
  f64 max_residual = 0.0;  // on exit
  bool converged = false;
  f64 seconds = 0.0;       // whole apply/set_kappa call, wall
  f64 seed_mass = 0.0;     // ||r||_1 injected before solving
  u64 dirty_rows = 0;      // source rows re-derived
  u64 mutations = 0;       // page mutations that changed state
  u64 noops = 0;           // redundant mutations skipped
  u32 new_sources = 0;     // sources appended by the batch
};

class IncrementalRanker {
 public:
  /// Binds to a dynamic graph (non-owning — it must outlive the ranker;
  /// the ranker is its only permitted mutator from here on) and runs
  /// the initial cold solve with kappa = 0.
  IncrementalRanker(DynamicSourceGraph& graph, IncrementalConfig config);

  /// Binds to a static model (non-owning — it must outlive the ranker):
  /// T' rows from model.base_matrix(), row stats from model.row_stats(),
  /// alpha and the throttle mode from model.config(); epsilon and the
  /// full-solve threshold keep IncrementalConfig's defaults. Runs the
  /// initial cold solve with kappa = 0. apply() is rejected: the
  /// model's topology is frozen.
  explicit IncrementalRanker(const core::SpamResilientSourceRank& model);

  u32 num_sources() const { return static_cast<u32>(p_.size()); }
  const std::vector<f64>& kappa() const { return kappa_; }
  /// The bound dynamic graph; only valid when constructed over one.
  const DynamicSourceGraph& graph() const { return *graph_; }
  const IncrementalConfig& config() const { return config_; }

  /// Applies one committed batch: mutates the graph, injects the signed
  /// residual delta for every dirty row, re-solves along the cheapest
  /// correct path. Batches must arrive in commit order (sequence
  /// numbers strictly increase; 0 = unsequenced, accepted anywhere).
  /// On a malformed batch (ids outside the page space) the graph may be
  /// left partially mutated; the ranker re-solves cold against that
  /// state before rethrowing, so (graph, sigma) stay consistent.
  UpdateOutcome apply(const UpdateBatch& batch);

  /// Swaps in a new throttle configuration (one kappa per source, each
  /// in [0,1]) — a plan change is just another sparse row delta, warm
  /// path included.
  UpdateOutcome set_kappa(std::span<const f64> kappa);

  /// The current sigma vector: clamped, L1-normalized COPY of the raw
  /// estimate. What serve publishes.
  std::vector<f64> sigma() const;

  /// Raw unnormalized estimate (diagnostics / tests).
  const std::vector<f64>& raw_estimate() const { return p_; }

  const UpdateOutcome& last_outcome() const { return last_outcome_; }

  /// The rows whose raw estimate changed since the last call (in no
  /// particular order, each once), or nullopt when every row may have: a
  /// cold solve or a fallback ran since, or this is the first call. A
  /// delta solve changes exactly the rows it pushed; growth adds the new
  /// rows. Resets the record. The serve layer patches each epoch's rank
  /// order from these rows.
  std::optional<std::vector<NodeId>> take_changed_rows();

 private:
  /// Both public constructors delegate here.
  IncrementalRanker(DynamicSourceGraph* graph, rank::RowAccessor row_of,
                    const core::ThrottleRowStats& row_stats,
                    IncrementalConfig config);
  /// Re-seeds (p, r) cold: p = 0, r = uniform teleport.
  void seed_cold();
  /// Grows kappa/p and teleport-shifts r after the id space grew.
  void grow_state(u32 old_sources);
  /// r += sign * alpha/(1-alpha) * plan(row)^T p over the given row
  /// entries — one side of a row's residual correction.
  void inject_row(NodeId row, const rank::OperatorRow& entries,
                  const rank::RowAffinePlan& plan, f64 sign);
  /// Seed-mass decision + push + fallback; fills and stores the outcome.
  UpdateOutcome solve(UpdateOutcome outcome);
  /// Adds rows to the changed record (take_changed_rows).
  void note_changed(std::span<const NodeId> rows);

  DynamicSourceGraph* graph_;  // null when bound to a static model
  const rank::RowAccessor row_of_;  // T' base rows, graph's or model's
  const core::ThrottleRowStats& row_stats_;
  IncrementalConfig config_;
  std::vector<f64> kappa_;
  rank::RowAffinePlan plan_;
  std::vector<f64> p_;  // raw estimate (unnormalized)
  std::vector<f64> r_;  // its exact residual
  u64 last_sequence_ = 0;
  UpdateOutcome last_outcome_;
  // The changed record: every row, or the listed ones (flagged in
  // changed_mask_ so each is listed once).
  bool all_changed_ = true;
  std::vector<u8> changed_mask_;
  std::vector<NodeId> changed_rows_;
};

}  // namespace srsr::stream
