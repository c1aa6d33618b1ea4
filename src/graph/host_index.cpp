#include "graph/host_index.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace srsr::graph {

namespace {

constexpr NodeId kEmptySlot = std::numeric_limits<NodeId>::max();

/// Power-of-two slot count keeping the load at or under 1/2.
std::size_t slot_count(std::size_t names) {
  return std::bit_ceil(std::max<std::size_t>(2 * names, 2));
}

HostIndexPtr share(std::vector<std::string> names) {
  return std::make_shared<const HostIndex>(std::move(names));
}

}  // namespace

HostIndex::HostIndex(std::vector<std::string> names)
    : names_(std::move(names)) {
  SRSR_CHECK(names_.size() < kEmptySlot, "HostIndex: ", names_.size(),
             " names exceed the id space");
  slots_.assign(slot_count(names_.size()), kEmptySlot);
  for (NodeId id = 0; id < size(); ++id) insert(id);
}

std::size_t HostIndex::slot_of(std::string_view host) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = std::hash<std::string_view>{}(host) & mask;
  while (slots_[slot] != kEmptySlot && names_[slots_[slot]] != host)
    slot = (slot + 1) & mask;
  return slot;
}

void HostIndex::insert(NodeId id) {
  const std::size_t slot = slot_of(names_[id]);
  SRSR_CHECK(slots_[slot] == kEmptySlot, "HostIndex: duplicate host name '",
             names_[id], "' (ids ", slots_[slot], " and ", id, ")");
  slots_[slot] = id;
}

std::optional<NodeId> HostIndex::id_of(std::string_view host) const {
  const NodeId id = slots_[slot_of(host)];
  if (id == kEmptySlot) return std::nullopt;
  return id;
}

HostIndexPtr HostIndex::with_added(std::span<const std::string> added) const {
  SRSR_CHECK(added.size() < kEmptySlot - names_.size(), "HostIndex: ",
             names_.size(), " + ", added.size(),
             " names exceed the id space");
  std::vector<std::string> names;
  names.reserve(names_.size() + added.size());
  names.insert(names.end(), names_.begin(), names_.end());
  names.insert(names.end(), added.begin(), added.end());
  return share(std::move(names));
}

HostIndexPtr Hosts::resolve(NodeId n, std::string_view who) && {
  if (index_) {
    SRSR_CHECK(index_->size() == n, who, ": ", index_->size(),
               " hosts for ", n, " sources");
    return std::move(index_);
  }
  if (names_.empty()) {
    // No names given: "s0" ... "s<n-1>".
    names_.reserve(n);
    for (NodeId s = 0; s < n; ++s) names_.push_back("s" + std::to_string(s));
  }
  SRSR_CHECK(names_.size() == n, who, ": ", names_.size(), " hosts for ", n,
             " sources");
  return share(std::move(names_));
}

}  // namespace srsr::graph
