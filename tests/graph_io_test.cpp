// Tests for graph/corpus (de)serialization (graph/io.hpp).
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>
#include <algorithm>
#include <filesystem>
#include <sstream>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace srsr::graph {
namespace {

/// RAII temp file path (removed on destruction).
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("srsr_test_" + name + "_" + std::to_string(::getpid())))
                  .string()) {}
  ~TempPath() { std::filesystem::remove(path_); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

TEST(EdgeListIo, RoundTripsThroughStream) {
  Pcg32 rng(21);
  const Graph g = erdos_renyi(50, 0.1, rng);
  std::stringstream ss;
  write_edge_list(ss, g);
  EXPECT_EQ(read_edge_list(ss, g.num_nodes()), g);
}

TEST(EdgeListIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# a comment\n\n0 1\n   \n# more\n1 0\n");
  const Graph g = read_edge_list(ss, 2);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeListIo, RejectsMalformedLines) {
  std::stringstream one_token("0\n");
  EXPECT_THROW(read_edge_list(one_token, 3), Error);
  std::stringstream three_tokens("0 1 2\n");
  EXPECT_THROW(read_edge_list(three_tokens, 3), Error);
  std::stringstream garbage("a b\n");
  EXPECT_THROW(read_edge_list(garbage, 3), Error);
}

/// The what() of the Error `read` throws ("" when it does not throw).
template <typename Read>
std::string error_of(Read read) {
  try {
    read();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(EdgeListIo, BadIdNamesItsLine) {
  for (const char* text : {"0 1\n# c\n2 x\n", "0 1\n\n-2 0\n",
                           "0 1\n0 2\n99999999999999999999 0\n"}) {
    std::stringstream ss(text);
    const std::string what = error_of([&] { read_edge_list(ss, 3); });
    EXPECT_NE(what.find("line 3"), std::string::npos) << text << ": " << what;
  }
  // An id past the node count is the line's fault too.
  std::stringstream ss("0 1\n0 2\n1 5\n");
  const std::string what = error_of([&] { read_edge_list(ss, 3); });
  EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  // A huge id fails on its line before anything is sized by it.
  std::stringstream huge("4000000000 0\n");
  const std::string huge_what = error_of([&] { read_edge_list(huge, 10); });
  EXPECT_NE(huge_what.find("line 1"), std::string::npos) << huge_what;
}

TEST(EdgeListIo, EmptyInputIsEmptyGraph) {
  std::stringstream ss("# nothing\n");
  const Graph g = read_edge_list(ss, 0);
  EXPECT_EQ(g.num_nodes(), 0u);
}

TEST(EdgeListIo, ExplicitNodeCountAddsIsolatedNodes) {
  std::stringstream ss("0 1\n");
  const Graph g = read_edge_list(ss, 10);
  EXPECT_EQ(g.num_nodes(), 10u);
}

TEST(EdgeListIo, FileRoundTrip) {
  Pcg32 rng(22);
  const Graph g = erdos_renyi(40, 0.1, rng);
  TempPath tmp("edges");
  write_edge_list_file(tmp.str(), g);
  EXPECT_EQ(read_edge_list_file(tmp.str(), g.num_nodes()), g);
}

TEST(EdgeListIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/nowhere.txt", 1), Error);
}

// The crawl readers fill one block of about a MiB at a time. These
// inputs run past it, so lines straddle refills and land on boundaries.
constexpr std::size_t kBlock = std::size_t{1} << 20;

/// The edge list of `g` as a plain ostream formats it, one `<<` per id:
/// the reference write_edge_list must match byte for byte.
std::string streamed_edge_list(const Graph& g) {
  std::ostringstream out;
  out << "# srsr edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const NodeId v : g.out_neighbors(u)) out << u << ' ' << v << '\n';
  return out.str();
}

/// `text`'s lines, without their '\n'.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

Graph read_text(const std::string& text, NodeId num_nodes) {
  std::istringstream in(text);
  return read_edge_list(in, num_nodes);
}

TEST(EdgeListIo, WriterMatchesStreamedFormatting) {
  Pcg32 rng(23);
  const Graph g = erdos_renyi(3000, 0.03, rng);  // well past one block
  std::ostringstream out;
  write_edge_list(out, g);
  ASSERT_GT(out.str().size(), 2 * kBlock);
  EXPECT_EQ(out.str(), streamed_edge_list(g));
  std::ostringstream empty;
  write_edge_list(empty, Graph());
  EXPECT_EQ(empty.str(), streamed_edge_list(Graph()));
}

TEST(EdgeListIo, InputLargerThanBlockRoundTrips) {
  Pcg32 rng(24);
  const Graph g = erdos_renyi(3000, 0.03, rng);
  const std::string text = streamed_edge_list(g);
  ASSERT_GT(text.size(), 2 * kBlock);
  EXPECT_EQ(read_text(text, g.num_nodes()), g);
}

TEST(EdgeListIo, LineLongerThanBlock) {
  const std::string text = "0 1\n# " + std::string(3 * kBlock, 'x') +
                           "\n2" + std::string(2 * kBlock, ' ') + "\t3\n1 2\n";
  const Graph g = read_text(text, 4);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_TRUE(g.has_edge(1, 2));
  const std::string bad = "0 1\n0 2\n" + std::string(2 * kBlock, '7') + " 0\n";
  const std::string what = error_of([&] { read_text(bad, 4); });
  EXPECT_NE(what.find("line 3:"), std::string::npos) << what.substr(0, 80);
}

TEST(EdgeListIo, LastLineWithoutNewline) {
  const Graph g = read_text("0 1\n1 2", 3);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(read_text("0 1\n# no newline", 2), read_text("0 1\n", 2));
  const std::string what = error_of([&] { read_text("0 1\n1 x", 2); });
  EXPECT_NE(what.find("line 2:"), std::string::npos) << what;
}

TEST(EdgeListIo, CrlfMatchesLf) {
  const std::string lf = "# header\n0 1\n\n2 0\n  1\t2  \n0 2\n";
  std::string crlf;
  for (const char c : lf) crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  EXPECT_EQ(read_text(crlf, 3), read_text(lf, 3));
  EXPECT_EQ(read_text(crlf, 3).num_edges(), 4u);
  const std::string what = error_of([&] { read_text("0 1\r\n2 x\r\n", 3); });
  EXPECT_NE(what.find("line 2:"), std::string::npos) << what;
}

TEST(EdgeListIo, CommentsAndBlanksOnBlockBoundaries) {
  const std::string tail = "\n# c\r\n\r\n0 1\n\n   \n1 0\n# end";
  const Graph expected = read_text(tail, 2);
  ASSERT_EQ(expected.num_edges(), 2u);
  // A filler comment ending a few bytes either side of the block edge
  // puts each of the tail's blank, comment and CRLF lines on it in turn.
  for (std::size_t end = kBlock - 8; end <= kBlock + 8; ++end) {
    const std::string text = "#" + std::string(end - 1, '.') + tail;
    EXPECT_EQ(read_text(text, 2), expected) << "filler ends at " << end;
    const std::string bad = text + "\n0 x\n";
    const std::string what = error_of([&] { read_text(bad, 2); });
    EXPECT_NE(what.find("line 9:"), std::string::npos) << end << ": " << what;
  }
}

TEST(EdgeListIo, UngroupedMatchesGrouped) {
  Pcg32 rng(25);
  const Graph g = erdos_renyi(300, 0.05, rng);
  std::vector<std::string> lines = lines_of(streamed_edge_list(g));
  // Repeat some links (the reader collapses duplicates), then shuffle.
  for (std::size_t i = 1; i < lines.size(); i += 7) lines.push_back(lines[i]);
  for (std::size_t i = lines.size() - 1; i > 0; --i)
    std::swap(lines[i], lines[rng.next_below(static_cast<u32>(i + 1))]);
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  EXPECT_EQ(read_text(text, g.num_nodes()), g);
  // Rows in descending order and rows split in two runs each.
  EXPECT_EQ(read_text("2 0\n1 2\n0 1\n", 3), read_text("0 1\n1 2\n2 0\n", 3));
  EXPECT_EQ(read_text("0 2\n1 0\n0 1\n1 0\n", 3),
            read_text("0 1\n0 2\n1 0\n", 3));
}

TEST(EdgeListIo, UngroupedErrorNamesItsLine) {
  std::string what =
      error_of([&] { read_text("3 0\n0 1\n3 2\n1 x\n0 2\n", 4); });
  EXPECT_NE(what.find("line 4:"), std::string::npos) << what;
  what = error_of([&] { read_text("2 0\n0 1\n\n1 9\n0 2\n", 3); });
  EXPECT_NE(what.find("line 4:"), std::string::npos) << what;
}

TEST(UrlCorpus, GroupsPagesByHost) {
  std::stringstream pages(
      "0 http://a.example/home\n"
      "1 http://a.example/about\n"
      "2 http://b.example/\n"
      "3 https://A.EXAMPLE/other\n");
  std::stringstream edges("0 2\n1 0\n3 2\n");
  const WebCorpus c = read_url_corpus(pages, edges);
  EXPECT_EQ(c.num_sources(), 2u);
  EXPECT_EQ(c.page_source[0], c.page_source[1]);
  EXPECT_EQ(c.page_source[0], c.page_source[3]);  // case-insensitive host
  EXPECT_NE(c.page_source[0], c.page_source[2]);
  EXPECT_EQ(c.source_page_count[c.page_source[0]], 3u);
  EXPECT_EQ(c.pages.num_edges(), 3u);
}

TEST(UrlCorpus, SourceIdsInFirstAppearanceOrder) {
  std::stringstream pages(
      "0 http://z.example/\n"
      "1 http://a.example/\n");
  std::stringstream edges("");
  const WebCorpus c = read_url_corpus(pages, edges);
  EXPECT_EQ(c.source_hosts[0], "z.example");
  EXPECT_EQ(c.source_hosts[1], "a.example");
}

TEST(UrlCorpus, RejectsSparseOrDuplicateIds) {
  {
    std::stringstream pages("0 http://a.example/\n5 http://b.example/\n");
    std::stringstream edges("");
    EXPECT_THROW(read_url_corpus(pages, edges), Error);
  }
  {
    std::stringstream pages("0 http://a.example/\n0 http://b.example/\n");
    std::stringstream edges("");
    EXPECT_THROW(read_url_corpus(pages, edges), Error);
  }
}

TEST(UrlCorpus, BadIdNamesItsLine) {
  {
    std::stringstream pages("0 http://a.example/\nx1 http://b.example/\n");
    std::stringstream edges("");
    const std::string what =
        error_of([&] { read_url_corpus(pages, edges); });
    EXPECT_NE(what.find("pages line 2"), std::string::npos) << what;
  }
  {
    std::stringstream pages("0 http://a.example/\n1 http://b.example/\n");
    std::stringstream edges("0 1\n1 +0\n");
    const std::string what =
        error_of([&] { read_url_corpus(pages, edges); });
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
  {
    std::stringstream pages("0 http://a.example/\n1 http://b.example/\n");
    std::stringstream edges("0 1\n1 7\n");
    const std::string what =
        error_of([&] { read_url_corpus(pages, edges); });
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(UrlCorpus, PagesInAnyOrder) {
  std::stringstream pages(
      "2 http://b.example/\n"
      "0 http://a.example/\n"
      "1 http://B.example/x\n");
  std::stringstream edges("2 0\n");
  const WebCorpus c = read_url_corpus(pages, edges);
  ASSERT_EQ(c.num_sources(), 2u);
  EXPECT_EQ(c.source_hosts[0], "b.example");
  EXPECT_EQ(c.page_source, (std::vector<NodeId>{1, 0, 0}));
  EXPECT_EQ(c.source_first_page, (std::vector<NodeId>{1, 0}));
  EXPECT_EQ(c.source_page_count, (std::vector<u32>{2, 1}));
}

TEST(UrlCorpus, SparseOrDuplicateIdNamesItsLine) {
  for (const auto& [text, where] :
       {std::pair{"0 http://a.example/\n# c\n5 http://b.example/\n",
                  "pages line 3:"},
        std::pair{"1 http://a.example/\n0 http://b.example/\n"
                  "1 http://c.example/\n",
                  "pages line 3:"},
        // The first line at fault in file order is named: 7 is past
        // the page count before line 3 repeats page 0.
        std::pair{"0 http://a.example/\n7 http://b.example/\n"
                  "0 http://c.example/\n",
                  "pages line 2:"}}) {
    std::stringstream pages(text);
    std::stringstream edges("");
    const std::string what = error_of([&] { read_url_corpus(pages, edges); });
    EXPECT_NE(what.find(where), std::string::npos) << text << ": " << what;
  }
}

TEST(UrlCorpus, CrlfMatchesLf) {
  std::stringstream lf_pages("0 http://a.example/\n1 http://b.example/x\n");
  std::stringstream lf_edges("0 1\n1 0\n");
  std::stringstream crlf_pages(
      "0 http://a.example/\r\n\r\n1 http://b.example/x\r\n");
  std::stringstream crlf_edges("0 1\r\n1 0\r\n");
  const WebCorpus lf = read_url_corpus(lf_pages, lf_edges);
  const WebCorpus crlf = read_url_corpus(crlf_pages, crlf_edges);
  EXPECT_EQ(crlf.source_hosts, lf.source_hosts);
  EXPECT_EQ(crlf.page_source, lf.page_source);
  EXPECT_EQ(crlf.pages, lf.pages);
  std::stringstream hosts("A.EXAMPLE\r\n");
  EXPECT_EQ(match_hosts(crlf, hosts), (std::vector<NodeId>{0}));
}

TEST(UrlCorpus, NoLabelsAssigned) {
  std::stringstream pages("0 http://a.example/\n");
  std::stringstream edges("");
  const WebCorpus c = read_url_corpus(pages, edges);
  for (const u8 flag : c.source_is_spam) EXPECT_EQ(flag, 0);
}

TEST(MatchHosts, FindsKnownHostsIgnoresUnknown) {
  std::stringstream pages(
      "0 http://a.example/\n"
      "1 http://b.example/\n");
  std::stringstream edges("");
  const WebCorpus c = read_url_corpus(pages, edges);
  std::stringstream hosts("B.EXAMPLE\nnot-in-corpus.example\n# comment\n");
  const auto ids = match_hosts(c, hosts);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(c.source_hosts[ids[0]], "b.example");
}

}  // namespace
}  // namespace srsr::graph
