#include "search/index.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace srsr::search {

InvertedIndex::InvertedIndex(const std::vector<std::vector<u32>>& page_terms,
                             u32 vocab_size)
    : num_documents_(static_cast<NodeId>(page_terms.size())) {
  SRSR_CHECK(vocab_size > 0, "InvertedIndex: vocabulary must be non-empty");

  // Pass 1: per-page sorted term runs give (term, tf) pairs; count
  // postings per term.
  offsets_.assign(static_cast<std::size_t>(vocab_size) + 1, 0);
  doc_length_.assign(num_documents_, 0);
  std::vector<u32> scratch;
  u64 total_length = 0;
  std::vector<std::vector<std::pair<u32, u32>>> page_tfs(num_documents_);
  for (NodeId p = 0; p < num_documents_; ++p) {
    scratch.assign(page_terms[p].begin(), page_terms[p].end());
    std::sort(scratch.begin(), scratch.end());
    for (std::size_t i = 0; i < scratch.size();) {
      SRSR_CHECK(scratch[i] < vocab_size,
                 "InvertedIndex: term id out of range");
      std::size_t j = i;
      while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
      page_tfs[p].emplace_back(scratch[i], static_cast<u32>(j - i));
      ++offsets_[scratch[i] + 1];
      i = j;
    }
    doc_length_[p] = static_cast<u32>(page_terms[p].size());
    total_length += page_terms[p].size();
  }
  for (std::size_t t = 1; t < offsets_.size(); ++t)
    offsets_[t] += offsets_[t - 1];

  // Pass 2: scatter; iterating pages in ascending order keeps each
  // term's postings sorted by page id.
  postings_.resize(offsets_.back());
  std::vector<u64> cursor(offsets_.begin(), offsets_.end() - 1);
  for (NodeId p = 0; p < num_documents_; ++p)
    for (const auto& [term, tf] : page_tfs[p])
      postings_[cursor[term]++] = Posting{p, tf};

  avg_doc_length_ = num_documents_ == 0
                        ? 0.0
                        : static_cast<f64>(total_length) /
                              static_cast<f64>(num_documents_);
}

}  // namespace srsr::search
