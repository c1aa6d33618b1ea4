#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <unordered_map>

#include "graph/builder.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace srsr::graph {

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# srsr edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const NodeId v : g.out_neighbors(u)) out << u << ' ' << v << '\n';
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  obs::StageTimer stage("graph.io.write_edge_list");
  std::ofstream out(path);
  SRSR_CHECK(out.good(), "write_edge_list_file: cannot open ", path);
  write_edge_list(out, g);
  SRSR_CHECK(out.good(), "write_edge_list_file: write failed for ", path);
}

Graph read_edge_list(std::istream& in, NodeId num_nodes) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId max_id = 0;
  bool any = false;
  std::string line;
  u64 lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    const auto tokens = split(body);
    SRSR_CHECK(tokens.size() == 2, "read_edge_list: line ", lineno,
               ": expected 'u v', got '", line, "'");
    u64 u = 0;
    u64 v = 0;
    try {
      u = parse_u64(tokens[0]);
      v = parse_u64(tokens[1]);
    } catch (const Error& e) {
      SRSR_CHECK(false, "read_edge_list: line ", lineno, ": ", e.what());
    }
    SRSR_CHECK(u < kInvalidNode && v < kInvalidNode, "read_edge_list: line ",
               lineno, ": id too large");
    SRSR_CHECK(num_nodes == 0 || (u < num_nodes && v < num_nodes),
               "read_edge_list: line ", lineno, ": node id out of range (",
               num_nodes, " nodes)");
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
    max_id = std::max({max_id, static_cast<NodeId>(u), static_cast<NodeId>(v)});
    any = true;
  }
  const NodeId n = num_nodes != 0 ? num_nodes : (any ? max_id + 1 : 0);
  GraphBuilder b(n);
  b.reserve_edges(edges.size());
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

Graph read_edge_list_file(const std::string& path, NodeId num_nodes) {
  obs::StageTimer stage("graph.io.read_edge_list");
  std::ifstream in(path);
  SRSR_CHECK(in.good(), "read_edge_list_file: cannot open ", path);
  return read_edge_list(in, num_nodes);
}

WebCorpus read_url_corpus(std::istream& pages, std::istream& edges) {
  obs::StageTimer stage("graph.io.read_url_corpus");
  WebCorpus corpus;
  std::unordered_map<std::string, NodeId> host_to_source;
  std::vector<std::pair<NodeId, NodeId>> page_rows;  // (page id, source id)
  std::string line;
  u64 lineno = 0;
  while (std::getline(pages, line)) {
    ++lineno;
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    const auto tokens = split(body);
    SRSR_CHECK(tokens.size() == 2, "read_url_corpus: pages line ", lineno,
               ": expected '<id> <url>'");
    u64 id = 0;
    std::string host;
    try {
      id = parse_u64(tokens[0]);
      host = host_of(tokens[1]);
    } catch (const Error& e) {
      SRSR_CHECK(false, "read_url_corpus: pages line ", lineno, ": ",
                 e.what());
    }
    SRSR_CHECK(id < kInvalidNode, "read_url_corpus: pages line ", lineno,
               ": page id too large");
    const auto [it, inserted] = host_to_source.emplace(
        host, static_cast<NodeId>(corpus.source_hosts.size()));
    if (inserted) corpus.source_hosts.push_back(host);
    page_rows.emplace_back(static_cast<NodeId>(id), it->second);
  }
  SRSR_CHECK(!page_rows.empty(), "read_url_corpus: no pages");

  const NodeId np = static_cast<NodeId>(page_rows.size());
  corpus.page_source.assign(np, kInvalidNode);
  for (const auto& [id, src] : page_rows) {
    SRSR_CHECK(id < np, "read_url_corpus: page ids must be dense 0..n-1");
    SRSR_CHECK(corpus.page_source[id] == kInvalidNode,
               "read_url_corpus: duplicate page id ", id);
    corpus.page_source[id] = src;
  }

  const u32 ns = static_cast<u32>(corpus.source_hosts.size());
  corpus.source_is_spam.assign(ns, 0);
  corpus.source_page_count.assign(ns, 0);
  corpus.source_first_page.assign(ns, kInvalidNode);
  for (NodeId p = 0; p < np; ++p) {
    const NodeId s = corpus.page_source[p];
    if (corpus.source_first_page[s] == kInvalidNode)
      corpus.source_first_page[s] = p;
    ++corpus.source_page_count[s];
  }
  corpus.pages = read_edge_list(edges, np);
  return corpus;
}

std::vector<NodeId> match_hosts(const WebCorpus& corpus, std::istream& hosts) {
  std::unordered_map<std::string_view, NodeId> index;
  index.reserve(corpus.source_hosts.size());
  for (NodeId s = 0; s < corpus.source_hosts.size(); ++s)
    index.emplace(corpus.source_hosts[s], s);
  std::vector<NodeId> out;
  std::string line;
  while (std::getline(hosts, line)) {
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    const std::string host = to_lower(body);
    const auto it = index.find(host);
    if (it != index.end()) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace srsr::graph
