// Graph and corpus (de)serialization.
//
// Two formats:
//   1. Text edge list: one "u v" pair per line, '#' comments — the
//      lingua franca of public graph datasets (SNAP, WebGraph ASCII
//      exports), so real crawls can be dropped in for the synthetic
//      corpus.
//   2. URL corpus: a page file ("<id> <url>" per line) plus an edge
//      list; pages are grouped into sources by URL host, which is
//      exactly the paper's source-assignment procedure (Sec. 6.1).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/webgen.hpp"

namespace srsr::graph {

/// Writes "u v" lines. Deterministic (ascending u, then v).
void write_edge_list(std::ostream& out, const Graph& g);
void write_edge_list_file(const std::string& path, const Graph& g);

/// Reads an edge list; node count is max id + 1 unless `num_nodes`
/// overrides it (0 = infer). Lines starting with '#' are skipped.
/// Malformed lines, and ids >= a given `num_nodes`, throw srsr::Error
/// with the offending line number.
Graph read_edge_list(std::istream& in, NodeId num_nodes = 0);
Graph read_edge_list_file(const std::string& path, NodeId num_nodes = 0);

/// Builds a WebCorpus from a URL table and a page-level edge list.
/// `pages` lines: "<page-id> <url>"; ids must be dense 0..n-1 (any
/// order). Sources are URL hosts in order of first appearance. The
/// corpus has no ground-truth spam labels (all zero) — callers label
/// separately (e.g. from a blocklist file via read_label_file).
WebCorpus read_url_corpus(std::istream& pages, std::istream& edges);

/// Reads one host name per line and returns the matching source ids in
/// `corpus`; unknown hosts are ignored (a blocklist usually covers more
/// of the web than any one crawl).
std::vector<NodeId> match_hosts(const WebCorpus& corpus, std::istream& hosts);

}  // namespace srsr::graph
