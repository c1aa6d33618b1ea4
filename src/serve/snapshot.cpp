#include "serve/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "obs/span.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"

namespace srsr::serve {

namespace {

constexpr u64 kFnvOffset = 1469598103934665603ull;
constexpr u64 kFnvPrime = 1099511628211ull;

u64 fnv1a_u64(u64 h, u64 v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// Checksum of the score payload (count + every score's bit pattern).
/// The epoch is folded in separately at stamp time.
u64 payload_checksum(std::span<const f64> scores) {
  u64 h = fnv1a_u64(kFnvOffset, scores.size());
  for (const f64 v : scores) h = fnv1a_u64(h, std::bit_cast<u64>(v));
  return h;
}

}  // namespace

RankSnapshot::RankSnapshot(std::vector<f64> scores,
                           std::vector<std::string> hosts, SnapshotMeta meta)
    : scores_(std::move(scores)), hosts_(std::move(hosts)),
      meta_(std::move(meta)) {
  const NodeId n = static_cast<NodeId>(scores_.size());
  if (hosts_.empty()) {
    hosts_.reserve(n);
    for (NodeId s = 0; s < n; ++s) hosts_.push_back("s" + std::to_string(s));
  }
  SRSR_CHECK(hosts_.size() == scores_.size(), "RankSnapshot: ",
             hosts_.size(), " hosts for ", scores_.size(), " scores");
  host_ids_.reserve(n);
  for (NodeId s = 0; s < n; ++s) host_ids_.emplace(hosts_[s], s);

  order_.resize(n);
  std::iota(order_.begin(), order_.end(), NodeId{0});
  std::sort(order_.begin(), order_.end(), [&](NodeId a, NodeId b) {
    if (scores_[a] != scores_[b]) return scores_[a] > scores_[b];
    return a < b;
  });
  rank_.resize(n);
  for (NodeId pos = 0; pos < n; ++pos)
    rank_[order_[pos]] = static_cast<u32>(pos) + 1;

  checksum_ = fnv1a_u64(payload_checksum(scores_), meta_.epoch);
}

std::optional<NodeId> RankSnapshot::id_of(const std::string& host) const {
  const auto it = host_ids_.find(host);
  if (it == host_ids_.end()) return std::nullopt;
  return it->second;
}

std::span<const NodeId> RankSnapshot::top(u32 k) const {
  const std::size_t count = std::min<std::size_t>(k, order_.size());
  return std::span<const NodeId>(order_.data(), count);
}

bool RankSnapshot::verify_checksum() const {
  return checksum_ == fnv1a_u64(payload_checksum(scores_), meta_.epoch);
}

void RankSnapshot::stamp_epoch(u64 epoch) {
  meta_.epoch = epoch;
  checksum_ = fnv1a_u64(payload_checksum(scores_), epoch);
}

RankSnapshot make_snapshot(const core::SpamResilientSourceRank& model,
                           std::span<const f64> kappa,
                           std::vector<std::string> hosts,
                           const SnapshotBuild& build) {
  obs::Span span("serve.snapshot_build");
  obs::StageTimer stage("serve.snapshot_build");
  rank::RankResult result = model.rank(kappa);

  SnapshotMeta meta;
  meta.kappa_policy = build.policy;
  meta.solver =
      model.config().solver == core::SolverKind::kPower ? "power" : "jacobi";
  meta.iterations = result.iterations;
  meta.residual = result.residual;
  meta.converged = result.converged;
  meta.solve_seconds = result.seconds;
  meta.kappa_mass = std::accumulate(kappa.begin(), kappa.end(), 0.0);
  return RankSnapshot(std::move(result.scores), std::move(hosts),
                      std::move(meta));
}

}  // namespace srsr::serve
