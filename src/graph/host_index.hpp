// HostIndex — the immutable host table that every serving epoch shares.
//
// Host names by source id plus the host -> id lookup, built once and
// never mutated after construction, so any number of threads may read
// one index through a shared_ptr<const HostIndex> without locks. The
// snapshots of every epoch, the static RecomputePipeline and the
// DynamicSourceGraph all hold the SAME index until the host set changes:
// a batch that adds sources swaps in a new index (copy-on-write), and an
// epoch published before it keeps the old one for as long as a reader
// holds that epoch.
//
// The lookup is an open-addressing table of ids (load <= 1/2, linear
// probing) keyed by the names it indexes, so the table costs four bytes
// a slot and no second copy of any name. It is lookup only: nothing
// iterates it, so its hash order never reaches a result.
//
// Names must be unique; every builder rejects a duplicate, since a
// repeated name would make id_of() answer for one id and silently hide
// the other.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace srsr::graph {

class HostIndex;
using HostIndexPtr = std::shared_ptr<const HostIndex>;

class HostIndex {
 public:
  /// Indexes `names` (id = position). Throws ContractViolation naming
  /// the first repeated name. Share one through a HostIndexPtr
  /// (std::make_shared<const HostIndex>).
  explicit HostIndex(std::vector<std::string> names);

  NodeId size() const { return static_cast<NodeId>(names_.size()); }
  const std::string& name(NodeId id) const { return names_[id]; }
  const std::vector<std::string>& names() const { return names_; }

  /// The id of `host`, or nullopt when it is not indexed.
  std::optional<NodeId> id_of(std::string_view host) const;

  /// A new index: these names followed by `added` (each new and
  /// unique). This index is left as it is.
  HostIndexPtr with_added(std::span<const std::string> added) const;

 private:
  /// Adds id to the table; throws when its name is already there.
  void insert(NodeId id);
  std::size_t slot_of(std::string_view host) const;

  std::vector<std::string> names_;
  std::vector<NodeId> slots_;  // ids; kEmptySlot marks a free slot
};

/// A host-table argument: a shared index, taken as it is, or a list of
/// names to index. The snapshot, pipeline and dynamic-graph entry points
/// take one, so a caller holding an index shares it and a caller holding
/// names keeps passing them.
class Hosts {
 public:
  /// No names: resolve() synthesizes "s<i>".
  Hosts() = default;
  Hosts(std::vector<std::string> names) : names_(std::move(names)) {}
  Hosts(HostIndexPtr index) : index_(std::move(index)) {}

  /// The index for `n` sources: the shared one, the names indexed, or
  /// synthesized names when there are none. Throws ContractViolation,
  /// prefixed with `who`, when the host count is not n or a name
  /// repeats.
  HostIndexPtr resolve(NodeId n, std::string_view who) &&;

 private:
  std::vector<std::string> names_;
  HostIndexPtr index_;
};

}  // namespace srsr::graph
