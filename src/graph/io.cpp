#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <tuple>
#include <unordered_map>

#include "obs/stage_timer.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace srsr::graph {
namespace {

/// Bytes per stream read or write: large enough that the stream's
/// per-call cost vanishes, small enough to stay out of the memory peak.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

/// Hands out the lines of a stream as views into one block buffer, split
/// as std::getline splits them: on '\n' only, with a last line that has
/// no '\n' still counted. A line that spans two blocks is carried over to
/// the next fill; a line longer than the block grows the buffer. A view
/// stays valid until the next call to next().
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in), buf_(kBlockBytes) {}

  /// Sets `line` to the next line without its '\n'; false at the end.
  bool next(std::string_view& line) {
    for (;;) {
      const char* const begin = buf_.data() + pos_;
      const auto* nl =
          static_cast<const char*>(std::memchr(begin, '\n', end_ - pos_));
      if (nl != nullptr || (eof_ && pos_ != end_)) {
        const char* const stop = nl != nullptr ? nl : buf_.data() + end_;
        line = {begin, static_cast<std::size_t>(stop - begin)};
        pos_ += line.size() + (nl != nullptr ? 1 : 0);
        ++lineno_;
        return true;
      }
      if (eof_) return false;
      refill();
    }
  }

  /// 1-based number of the line next() returned last.
  u64 lineno() const { return lineno_; }

 private:
  void refill() {
    const std::size_t carry = end_ - pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, carry);
    pos_ = 0;
    end_ = carry;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    in_.read(buf_.data() + end_,
             static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    eof_ = !in_;  // a short read sets failbit: the stream is exhausted
  }

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // start of the unread bytes in buf_
  std::size_t end_ = 0;  // end of the filled bytes in buf_
  bool eof_ = false;
  u64 lineno_ = 0;
};

/// The edge-list line grammar: trim, split, parse_u64 and the range
/// checks. It accepts every line scan_edge does, with the same ids, and
/// words every error; the reader calls it only for lines the fast scan
/// declines.
std::pair<NodeId, NodeId> validate_edge_line(std::string_view line,
                                             u64 lineno, NodeId num_nodes) {
  const auto tokens = split(trim(line));
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
  SRSR_CHECK(u < num_nodes && v < num_nodes, "read_edge_list: line ", lineno,
             ": node id out of range (", num_nodes, " nodes)");
  return {static_cast<NodeId>(u), static_cast<NodeId>(v)};
}

/// The separators split() is called with.
bool is_blank(char c) { return c == ' ' || c == '\t'; }

/// True when [p, end) is all what trim() strips (ASCII whitespace).
bool only_space(const char* p, const char* end) {
  for (; p != end; ++p)
    if (*p != ' ' && (*p < '\t' || *p > '\r')) return false;
  return true;
}

/// Reads the decimal id at `p` (std::from_chars: digits, no sign): the
/// end of its digits, or nullptr when there are none or the id is not
/// below `limit`.
const char* scan_id(const char* p, const char* end, NodeId limit, NodeId& id) {
  u64 value = 0;
  const auto r = std::from_chars(p, end, value);
  if (r.ec != std::errc() || value >= limit) return nullptr;
  id = static_cast<NodeId>(value);
  return r.ptr;
}

/// Fast scan of a raw edge line: "<digits>[ \t]+<digits>" and trailing
/// whitespace (a CRLF file's '\r'), both ids below `num_nodes`. False
/// for anything else — comments, blanks and leading whitespace included
/// — which the reader then trims and hands to validate_edge_line.
bool scan_edge(std::string_view line, NodeId num_nodes, NodeId& u, NodeId& v) {
  const char* const end = line.data() + line.size();
  const char* p = scan_id(line.data(), end, num_nodes, u);
  if (p == nullptr || p == end || !is_blank(*p)) return false;
  while (p != end && is_blank(*p)) ++p;
  p = scan_id(p, end, num_nodes, v);
  return p != nullptr && only_space(p, end);
}

/// Consecutive edge lines with one source: (source, count). A file
/// grouped by source has one run per non-empty row.
struct Run {
  NodeId source;
  u32 length;
};

/// Sorts and dedups each row of the CSR (`offsets`, `targets`) in place,
/// compacting the rows left as duplicates drop out.
void sort_dedup_rows(std::vector<u64>& offsets, std::vector<NodeId>& targets) {
  u64 begin = 0;
  u64 write = 0;
  for (std::size_t u = 1; u < offsets.size(); ++u) {
    const u64 end = offsets[u];
    const auto first = targets.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = targets.begin() + static_cast<std::ptrdiff_t>(end);
    if (!std::is_sorted(first, last)) std::sort(first, last);
    for (u64 i = begin; i < end; ++i)
      if (i == begin || targets[i] != targets[i - 1])
        targets[write++] = targets[i];
    offsets[u] = write;
    begin = end;
  }
  targets.resize(write);
  targets.shrink_to_fit();
}

/// The pages-line grammar, the counterpart of validate_edge_line for
/// scan_page. Returns the page id and the lower-cased host.
std::pair<NodeId, std::string> validate_page_line(std::string_view line,
                                                  u64 lineno) {
  const auto tokens = split(trim(line));
  SRSR_CHECK(tokens.size() == 2, "read_url_corpus: pages line ", lineno,
             ": expected '<id> <url>'");
  u64 id = 0;
  std::string host;
  try {
    id = parse_u64(tokens[0]);
    host = host_of(tokens[1]);
  } catch (const Error& e) {
    SRSR_CHECK(false, "read_url_corpus: pages line ", lineno, ": ", e.what());
  }
  SRSR_CHECK(id < kInvalidNode, "read_url_corpus: pages line ", lineno,
             ": page id too large");
  return {static_cast<NodeId>(id), std::move(host)};
}

/// Fast scan of a raw pages line: "<digits>[ \t]+<url>" and trailing
/// whitespace, with a URL that holds a host; `host` is left as the URL
/// spells it. False for anything else, which the reader then trims and
/// hands to validate_page_line.
bool scan_page(std::string_view line, NodeId& id, std::string_view& host) {
  const char* const end = line.data() + line.size();
  const char* p = scan_id(line.data(), end, kInvalidNode, id);
  if (p == nullptr || p == end || !is_blank(*p)) return false;
  while (p != end && is_blank(*p)) ++p;
  const char* const url = p;
  while (p != end && !is_blank(*p)) ++p;
  if (!only_space(p, end)) return false;
  host = url_host({url, static_cast<std::size_t>(p - url)});
  return !host.empty();
}

/// A page line whose id is not the next in order, kept until the page
/// count is known.
struct PendingPage {
  NodeId id;
  NodeId source;
  u64 lineno;
};

}  // namespace

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# srsr edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";
  constexpr std::size_t kMaxLine = 2 * 10 + 2;  // two u32 ids, ' ', '\n'
  std::vector<char> buf(kBlockBytes);
  char* p = buf.data();
  char* const flush_at = buf.data() + buf.size() - kMaxLine;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    char head[11];
    char* const head_end = std::to_chars(head, head + 10, u).ptr;
    *head_end = ' ';
    const std::size_t head_len = static_cast<std::size_t>(head_end - head) + 1;
    for (const NodeId v : g.out_neighbors(u)) {
      if (p > flush_at) {
        out.write(buf.data(), p - buf.data());
        p = buf.data();
      }
      std::memcpy(p, head, head_len);
      p = std::to_chars(p + head_len, p + kMaxLine, v).ptr;
      *p++ = '\n';
    }
  }
  out.write(buf.data(), p - buf.data());
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  obs::StageTimer stage("graph.io.write_edge_list");
  std::ofstream out(path);
  SRSR_CHECK(out.good(), "write_edge_list_file: cannot open ", path);
  write_edge_list(out, g);
  SRSR_CHECK(out.good(), "write_edge_list_file: write failed for ", path);
}

Graph read_edge_list(std::istream& in, NodeId num_nodes) {
  // Targets stay in file order; one run marks each change of source.
  std::vector<NodeId> targets;
  std::vector<Run> runs;
  LineReader lines(in);
  std::string_view line;
  while (lines.next(line)) {
    NodeId u = 0;
    NodeId v = 0;
    if (!scan_edge(line, num_nodes, u, v)) {
      const std::string_view body = trim(line);
      if (body.empty() || body[0] == '#') continue;
      std::tie(u, v) = validate_edge_line(line, lines.lineno(), num_nodes);
    }
    if (runs.empty() || runs.back().source != u ||
        runs.back().length == std::numeric_limits<u32>::max())
      runs.push_back({u, 0});
    ++runs.back().length;
    targets.push_back(v);
  }

  std::vector<u64> offsets(static_cast<std::size_t>(num_nodes) + 1, 0);
  bool ascending = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    offsets[runs[i].source + 1] += runs[i].length;
    ascending = ascending && (i == 0 || runs[i - 1].source < runs[i].source);
  }
  for (std::size_t u = 1; u < offsets.size(); ++u) offsets[u] += offsets[u - 1];
  if (!ascending) {
    // Rows come in several runs or out of order: one counting-sort
    // scatter of whole runs, offsets[u] advancing as row u's cursor.
    std::vector<NodeId> scattered(targets.size());
    auto from = targets.begin();
    for (const Run& r : runs) {
      std::copy_n(from, r.length,
                  scattered.begin() +
                      static_cast<std::ptrdiff_t>(offsets[r.source]));
      offsets[r.source] += r.length;
      from += r.length;
    }
    targets = std::move(scattered);
    // Each cursor now sits at its row's end: shift back to row starts.
    std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
    offsets[0] = 0;
  }
  runs = {};
  sort_dedup_rows(offsets, targets);
  return Graph(std::move(offsets), std::move(targets));
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
  // Pages in id order go straight into page_source; from the first one
  // out of order on, every page waits in `pending` for the page count.
  std::vector<PendingPage> pending;
  {
    // Looked up through one reused key buffer: a host string is
    // allocated only when a new host is added.
    std::unordered_map<std::string, NodeId> host_to_source;
    std::string host;              // the current line's host, lower-cased
    NodeId source = kInvalidNode;  // the previous line's source
    LineReader lines(pages);
    std::string_view line;
    while (lines.next(line)) {
      NodeId id = 0;
      std::string_view raw_host;
      if (scan_page(line, id, raw_host)) {
        to_lower_into(host, raw_host);
      } else {
        const std::string_view body = trim(line);
        if (body.empty() || body[0] == '#') continue;
        std::tie(id, host) = validate_page_line(line, lines.lineno());
      }
      // Crawls list a host's pages together: the previous line's source
      // usually answers without a hash lookup.
      if (source == kInvalidNode || host != corpus.source_hosts[source]) {
        const auto [it, added] = host_to_source.try_emplace(
            host, static_cast<NodeId>(corpus.source_hosts.size()));
        if (added) corpus.source_hosts.push_back(host);
        source = it->second;
      }
      if (pending.empty() && id == corpus.page_source.size())
        corpus.page_source.push_back(source);
      else
        pending.push_back({id, source, lines.lineno()});
    }
  }
  const NodeId np =
      static_cast<NodeId>(corpus.page_source.size() + pending.size());
  SRSR_CHECK(np > 0, "read_url_corpus: no pages");
  corpus.page_source.resize(np, kInvalidNode);
  for (const PendingPage& p : pending) {
    SRSR_CHECK(p.id < np, "read_url_corpus: pages line ", p.lineno,
               ": page id ", p.id, " is past the page count ", np,
               " (ids must be dense 0..n-1)");
    SRSR_CHECK(corpus.page_source[p.id] == kInvalidNode,
               "read_url_corpus: pages line ", p.lineno,
               ": duplicate page id ", p.id);
    corpus.page_source[p.id] = p.source;
  }
  pending = {};

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
  std::string host;
  LineReader lines(hosts);
  std::string_view line;
  while (lines.next(line)) {
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    to_lower_into(host, body);
    const auto it = index.find(host);
    if (it != index.end()) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace srsr::graph
