// Inverted index over page term lists.
//
// The retrieval substrate for the search layer: term -> postings
// (page, term frequency), document lengths, and document frequencies —
// everything BM25 needs. Stored as one CSR-style postings arena (two
// flat arrays + per-term offsets), matching the compact-layout policy
// of the graph structures.
#pragma once

#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/common.hpp"

namespace srsr::search {

struct Posting {
  NodeId page;
  u32 tf;  // term frequency within the page
};

class InvertedIndex {
 public:
  /// Builds from per-page term lists (term ids < vocab_size; duplicate
  /// occurrences within a page accumulate into the posting's tf).
  InvertedIndex(const std::vector<std::vector<u32>>& page_terms,
                u32 vocab_size);

  u32 vocab_size() const { return static_cast<u32>(offsets_.size() - 1); }
  NodeId num_documents() const { return num_documents_; }
  u64 num_postings() const { return offsets_.back(); }

  /// Postings of a term, ordered by ascending page id.
  std::span<const Posting> postings(u32 term) const {
    SRSR_CHECK(term < vocab_size(), "InvertedIndex: term out of range");
    return {postings_.data() + offsets_[term],
            postings_.data() + offsets_[term + 1]};
  }

  /// Number of documents containing the term.
  u64 document_frequency(u32 term) const {
    return postings(term).size();
  }

  /// Length (total term occurrences) of a page.
  u32 document_length(NodeId page) const {
    SRSR_CHECK(page < num_documents_, "InvertedIndex: page out of range");
    return doc_length_[page];
  }

  f64 average_document_length() const { return avg_doc_length_; }

  u64 memory_bytes() const {
    return offsets_.size() * sizeof(u64) + postings_.size() * sizeof(Posting) +
           doc_length_.size() * sizeof(u32);
  }

 private:
  NodeId num_documents_ = 0;
  std::vector<u64> offsets_;      // per-term, size vocab+1
  std::vector<Posting> postings_;
  std::vector<u32> doc_length_;
  f64 avg_doc_length_ = 0.0;
};

}  // namespace srsr::search
