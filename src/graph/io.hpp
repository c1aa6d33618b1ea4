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
//
// Every reader shares one line reader: it fills a block buffer of about
// a MiB from the stream and hands out each line as a view into it (a
// line longer than the block grows the buffer). A line is scanned in
// place; one the fast scan declines is re-read by the trim/split
// grammar, which accepts the same lines and words every error with its
// line number. read_edge_list keeps the targets in file order plus one
// (source, count) run per change of source and builds the CSR from
// them, with no edge-pair array and no GraphBuilder:
//   - a file grouped by source in ascending order (write_edge_list's,
//     and most dumps') is already in CSR order: it holds 4 bytes per
//     link (the result's targets, plus their growth slack until the
//     final shrink) and O(nodes) offsets and runs;
//   - any other order pays one counting-sort scatter: 4 more bytes per
//     link for the scattered copy and up to 8 per link for the runs.
// read_url_corpus lower-cases each host into one reused key buffer and
// looks it up there (a host string is allocated only for a new host),
// and writes page_source directly while page ids come in order; pages
// after the first one out of order wait in a list until the page count
// is known.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/webgen.hpp"

namespace srsr::graph {

/// Writes "u v" lines, through a block buffer. Deterministic (ascending
/// u, then v).
void write_edge_list(std::ostream& out, const Graph& g);
void write_edge_list_file(const std::string& path, const Graph& g);

/// Reads an edge list over `num_nodes` nodes in any line order. Lines
/// starting with '#' are skipped, surrounding whitespace ('\r' included)
/// is ignored, and repeated links collapse. Malformed lines, and ids >=
/// `num_nodes`, throw srsr::Error with the offending line number.
Graph read_edge_list(std::istream& in, NodeId num_nodes);
Graph read_edge_list_file(const std::string& path, NodeId num_nodes);

/// Builds a WebCorpus from a URL table and a page-level edge list.
/// `pages` lines: "<page-id> <url>"; ids must be dense 0..n-1 (any
/// order). Sources are URL hosts in order of first appearance. Every
/// error names its line: a malformed page line; else the first page line
/// whose id is past the page count or repeats an earlier one; else the
/// edge list's. The corpus has no ground-truth spam labels (all zero) —
/// callers label separately (e.g. from a blocklist file via
/// match_hosts).
WebCorpus read_url_corpus(std::istream& pages, std::istream& edges);

/// Reads one host name per line and returns the matching source ids in
/// `corpus`; unknown hosts are ignored (a blocklist usually covers more
/// of the web than any one crawl).
std::vector<NodeId> match_hosts(const WebCorpus& corpus, std::istream& hosts);

}  // namespace srsr::graph
