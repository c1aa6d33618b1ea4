// Mutation corpus for the crawl readers (graph/io.hpp). A small generated
// crawl is mutated deterministically from util/rng: byte flips,
// truncation, inserted '\r' / '\0' / tabs, '-' and '+' signs, 20-digit
// ids, overlong lines, sparse and duplicate page ids, shuffled lines. Each
// mutant is read by read_url_corpus / match_hosts and by the reference
// reader below: the getline / trim / split reader with a GraphBuilder that
// the block readers replaced, kept as the oracle. A mutant must give the
// reference's corpus, or throw srsr::Error naming the reference's line;
// any other exception, or a crash under the sanitizers, fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/webgen.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace srsr::graph {
namespace {

// ---- the reference reader ----------------------------------------------

/// host_of as the line reader had it: find_first_of / rfind on the view,
/// then std::tolower. A "://" strips a scheme only when it comes before
/// the first '/', '?' or '#'; the line reader took the first one
/// anywhere, which filed "a.example/r?u=http://b.example/" under b.example.
std::optional<std::string> reference_host(std::string_view url) {
  std::string_view rest = trim(url);
  if (rest.empty()) return std::nullopt;
  const std::size_t scheme = rest.find("://");
  if (scheme != std::string_view::npos && scheme < rest.find_first_of("/?#"))
    rest = rest.substr(scheme + 3);
  const std::size_t end = rest.find_first_of("/?#");
  std::string_view host =
      end == std::string_view::npos ? rest : rest.substr(0, end);
  const std::size_t at = host.rfind('@');
  if (at != std::string_view::npos) host = host.substr(at + 1);
  const std::size_t colon = host.find(':');
  if (colon != std::string_view::npos) host = host.substr(0, colon);
  if (host.empty()) return std::nullopt;
  std::string out(host);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

/// The reference's verdict: a corpus, or the place it names in its error
/// ("pages line N:", "read_edge_list: line N:" or "no pages").
struct Verdict {
  std::optional<WebCorpus> corpus;
  std::string where;
};

std::optional<u64> reference_u64(std::string_view token) {
  try {
    return parse_u64(token);
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// read_edge_list as the line reader had it.
std::optional<Graph> reference_edges(std::istream& in, NodeId num_nodes,
                                     std::string& where) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::string line;
  u64 lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    const auto tokens = split(body);
    where = "read_edge_list: line " + std::to_string(lineno) + ":";
    if (tokens.size() != 2) return std::nullopt;
    const auto u = reference_u64(tokens[0]);
    const auto v = reference_u64(tokens[1]);
    if (!u || !v || *u >= num_nodes || *v >= num_nodes) return std::nullopt;
    edges.emplace_back(static_cast<NodeId>(*u), static_cast<NodeId>(*v));
  }
  where.clear();
  GraphBuilder b(num_nodes);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

/// read_url_corpus as the line reader had it. Its dense-id and duplicate
/// checks run after the whole page file, over the pages in file order,
/// and name the first line at fault.
Verdict reference_corpus(const std::string& pages_text,
                         const std::string& edges_text) {
  WebCorpus c;
  std::unordered_map<std::string, NodeId> host_to_source;
  struct Row {
    u64 id;
    NodeId source;
    u64 lineno;
  };
  std::vector<Row> rows;
  std::istringstream pages(pages_text);
  std::string line;
  u64 lineno = 0;
  while (std::getline(pages, line)) {
    ++lineno;
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    const std::string where = "pages line " + std::to_string(lineno) + ":";
    const auto tokens = split(body);
    if (tokens.size() != 2) return {std::nullopt, where};
    const auto id = reference_u64(tokens[0]);
    const auto host = reference_host(tokens[1]);
    if (!id || !host || *id >= kInvalidNode) return {std::nullopt, where};
    const auto [it, added] = host_to_source.emplace(
        *host, static_cast<NodeId>(c.source_hosts.size()));
    if (added) c.source_hosts.push_back(*host);
    rows.push_back({*id, it->second, lineno});
  }
  if (rows.empty()) return {std::nullopt, "no pages"};
  const auto np = static_cast<NodeId>(rows.size());
  c.page_source.assign(np, kInvalidNode);
  for (const Row& r : rows) {
    if (r.id >= np || c.page_source[r.id] != kInvalidNode)
      return {std::nullopt, "pages line " + std::to_string(r.lineno) + ":"};
    c.page_source[r.id] = r.source;
  }
  const auto ns = static_cast<u32>(c.source_hosts.size());
  c.source_is_spam.assign(ns, 0);
  c.source_page_count.assign(ns, 0);
  c.source_first_page.assign(ns, kInvalidNode);
  for (NodeId p = 0; p < np; ++p) {
    const NodeId s = c.page_source[p];
    if (c.source_first_page[s] == kInvalidNode) c.source_first_page[s] = p;
    ++c.source_page_count[s];
  }
  std::istringstream edges(edges_text);
  std::string where;
  auto g = reference_edges(edges, np, where);
  if (!g) return {std::nullopt, where};
  c.pages = std::move(*g);
  return {std::move(c), ""};
}

/// match_hosts as the line reader had it.
std::vector<NodeId> reference_match(const WebCorpus& corpus,
                                    const std::string& text) {
  std::vector<NodeId> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    std::string host(body);
    for (char& c : host)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    const auto it = std::find(corpus.source_hosts.begin(),
                              corpus.source_hosts.end(), host);
    if (it != corpus.source_hosts.end())
      out.push_back(static_cast<NodeId>(it - corpus.source_hosts.begin()));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---- the crawl and its mutations --------------------------------------

struct Crawl {
  std::string pages;
  std::string edges;
  std::string labels;
};

/// A small crawl in the `srsr_cli generate` layout: "<id> <url>" pages
/// in id order, write_edge_list's edges, one host per label line.
Crawl make_crawl() {
  WebGenConfig cfg;
  cfg.num_sources = 24;
  cfg.num_spam_sources = 3;
  cfg.max_pages_per_source = 30;
  cfg.seed = 41;
  const WebCorpus corpus = generate_web_corpus(cfg);
  Crawl crawl;
  std::ostringstream pages;
  for (NodeId p = 0; p < corpus.num_pages(); ++p)
    pages << p << " http://" << corpus.source_hosts[corpus.page_source[p]]
          << "/page" << p << '\n';
  crawl.pages = pages.str();
  std::ostringstream edges;
  write_edge_list(edges, corpus.pages);
  crawl.edges = edges.str();
  for (const NodeId s : corpus.spam_sources())
    crawl.labels += corpus.source_hosts[s] + '\n';
  return crawl;
}

/// One MiB and a half: longer than the readers' block.
constexpr std::size_t kOverlong = (std::size_t{3} << 20) / 2;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    out.push_back(text.substr(start, end - start));
    start = end;
  }
  return out;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

/// Replaces the first token of a random line with `token`.
void replace_first_token(std::vector<std::string>& lines, u32 at,
                         const std::string& token) {
  std::string& line = lines[at];
  const std::size_t end = line.find_first_of(" \t\n");
  line = token + (end == std::string::npos ? "" : line.substr(end));
}

/// Applies one mutation, chosen by `rng`, to `text`. `overlong` admits
/// the (slow) lines longer than a block.
void mutate(std::string& text, Pcg32& rng, bool overlong) {
  auto pos = [&](std::size_t extra) {
    return static_cast<std::size_t>(
        rng.next_below(static_cast<u32>(text.size() + extra)));
  };
  const u32 kind = rng.next_below(overlong ? 14 : 13);
  if (kind <= 4 && text.empty()) text = "0 1\n";
  switch (kind) {
    case 0:  // flip one bit
      text[pos(0)] ^= static_cast<char>(1u << rng.next_below(8));
      return;
    case 1:  // overwrite one byte with any value
      text[pos(0)] = static_cast<char>(rng.next_below(256));
      return;
    case 2:  // truncate
      text.resize(pos(0));
      return;
    case 3: {  // insert a control or separator byte
      static constexpr char kBytes[] = {'\r', '\0', '\t', ' ', '\n',
                                        '#',  '\v', '-',  '+', ':'};
      text.insert(pos(1), 1, kBytes[rng.next_below(sizeof kBytes)]);
      return;
    }
    case 4: {  // a sign in front of a token
      const std::size_t at = text.find_first_of(" \n", pos(0));
      if (at != std::string::npos)
        text.insert(at + 1, 1, rng.next_below(2) == 0 ? '-' : '+');
      return;
    }
    default:
      break;
  }
  std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) lines.push_back("0 1\n");
  const auto n = static_cast<u32>(lines.size());
  const u32 at = rng.next_below(n);
  switch (kind) {
    case 5:  // a 20-digit id
      replace_first_token(lines, at, "98765432109876543210");
      break;
    case 6: {  // an id at or past a limit
      static constexpr const char* kIds[] = {"4294967295", "4294967294",
                                             "4294967296", "0000000000007"};
      const std::string id = rng.next_below(2) == 0
                                 ? std::string(kIds[rng.next_below(4)])
                                 : std::to_string(n + rng.next_below(4));
      replace_first_token(lines, at, id);
      break;
    }
    case 7:  // delete a line
      lines.erase(lines.begin() + at);
      break;
    case 8:  // repeat a line elsewhere (a duplicate page id or link)
      lines.insert(lines.begin() + rng.next_below(n + 1), lines[at]);
      break;
    case 9:  // swap two lines
      std::swap(lines[at], lines[rng.next_below(n)]);
      break;
    case 10:  // shuffle every line
      for (u32 i = n - 1; i > 0; --i)
        std::swap(lines[i], lines[rng.next_below(i + 1)]);
      if (!lines.back().empty() && lines.back().back() != '\n')
        lines.back() += '\n';
      break;
    case 11:  // CRLF line endings throughout
      for (std::string& line : lines)
        if (!line.empty() && line.back() == '\n') line.insert(line.size() - 1, "\r");
      break;
    case 12: {  // the first token of another line
      const std::string& other = lines[rng.next_below(n)];
      replace_first_token(lines, at, other.substr(0, other.find(' ')));
      break;
    }
    case 13: {  // a line longer than the block: a comment, padding or digits
      const u32 shape = rng.next_below(3);
      std::string line = shape == 0   ? "#" + std::string(kOverlong, 'c')
                         : shape == 1 ? "0" + std::string(kOverlong, ' ') + "0"
                                      : std::string(kOverlong, '1') + " 0";
      lines.insert(lines.begin() + at, line + "\n");
      break;
    }
    default:
      break;
  }
  text = join(lines);
}

/// The Error message `read` throws, or nullopt when it returns. Any other
/// exception fails the test.
template <typename Read>
std::optional<std::string> thrown(Read read) {
  try {
    read();
  } catch (const Error& e) {
    return std::string(e.what());
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not an srsr::Error: " << e.what();
    return std::string();
  }
  return std::nullopt;
}

/// Reads `crawl` both ways and requires the same verdict.
void expect_same_verdict(const Crawl& crawl) {
  const Verdict ref = reference_corpus(crawl.pages, crawl.edges);
  std::optional<WebCorpus> got;
  const auto error = thrown([&] {
    std::istringstream pages(crawl.pages);
    std::istringstream edges(crawl.edges);
    got = read_url_corpus(pages, edges);
  });
  if (!ref.corpus) {
    ASSERT_TRUE(error.has_value()) << "accepted what the reference rejects at "
                                   << ref.where;
    EXPECT_NE(error->find(ref.where), std::string::npos)
        << "reference: " << ref.where << "\nreader: " << error->substr(0, 200);
    return;
  }
  ASSERT_FALSE(error.has_value()) << "rejected what the reference accepts: "
                                  << error->substr(0, 200);
  EXPECT_EQ(got->pages, ref.corpus->pages);
  EXPECT_EQ(got->page_source, ref.corpus->page_source);
  EXPECT_EQ(got->source_hosts, ref.corpus->source_hosts);
  EXPECT_EQ(got->source_page_count, ref.corpus->source_page_count);
  EXPECT_EQ(got->source_first_page, ref.corpus->source_first_page);
  EXPECT_EQ(got->source_is_spam, ref.corpus->source_is_spam);
  std::istringstream labels(crawl.labels);
  EXPECT_EQ(match_hosts(*got, labels), reference_match(*got, crawl.labels));
}

/// `count` mutants of one file of the crawl, each with one to three
/// mutations; every 40th may carry an overlong line.
void run_mutants(u64 seed, u32 count, std::string Crawl::*file) {
  const Crawl base = make_crawl();
  Pcg32 rng(seed);
  for (u32 i = 0; i < count; ++i) {
    Crawl crawl = base;
    const u32 mutations = 1 + rng.next_below(3);
    for (u32 m = 0; m < mutations; ++m)
      mutate(crawl.*file, rng, i % 40 == 39);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", mutant " +
                 std::to_string(i));
    expect_same_verdict(crawl);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(CrawlMutation, UnmutatedCrawlReadsAlike) {
  const Crawl crawl = make_crawl();
  ASSERT_TRUE(reference_corpus(crawl.pages, crawl.edges).corpus.has_value());
  expect_same_verdict(crawl);
}

TEST(CrawlMutation, PagesFile) { run_mutants(101, 800, &Crawl::pages); }

TEST(CrawlMutation, EdgesFile) { run_mutants(202, 800, &Crawl::edges); }

TEST(CrawlMutation, LabelsFile) { run_mutants(303, 150, &Crawl::labels); }

TEST(CrawlMutation, BothFiles) {
  const Crawl base = make_crawl();
  Pcg32 rng(404);
  for (u32 i = 0; i < 200; ++i) {
    Crawl crawl = base;
    mutate(crawl.pages, rng, false);
    mutate(crawl.edges, rng, false);
    SCOPED_TRACE("mutant " + std::to_string(i));
    expect_same_verdict(crawl);
    if (HasFailure()) return;
  }
}

TEST(CrawlMutation, MutantsAreNotAllAcceptedOrAllRejected) {
  // A corpus that only ever exercises one verdict would test half the
  // contract: both must occur among the edge mutants.
  const Crawl base = make_crawl();
  Pcg32 rng(505);
  u32 accepted = 0;
  u32 rejected = 0;
  for (u32 i = 0; i < 100; ++i) {
    Crawl crawl = base;
    mutate(crawl.edges, rng, false);
    (reference_corpus(crawl.pages, crawl.edges).corpus ? accepted : rejected)++;
  }
  EXPECT_GT(accepted, 10u);
  EXPECT_GT(rejected, 10u);
}

}  // namespace
}  // namespace srsr::graph
