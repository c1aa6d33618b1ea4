// Tests for graph/corpus (de)serialization (graph/io.hpp).
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <unistd.h>
#include <filesystem>
#include <sstream>

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

TEST(EdgeListIo, InfersNodeCountFromMaxId) {
  std::stringstream ss("0 3\n2 1\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(2, 1));
}

TEST(EdgeListIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# a comment\n\n0 1\n   \n# more\n1 0\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeListIo, RejectsMalformedLines) {
  std::stringstream one_token("0\n");
  EXPECT_THROW(read_edge_list(one_token), Error);
  std::stringstream three_tokens("0 1 2\n");
  EXPECT_THROW(read_edge_list(three_tokens), Error);
  std::stringstream garbage("a b\n");
  EXPECT_THROW(read_edge_list(garbage), Error);
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
    const std::string what = error_of([&] { read_edge_list(ss); });
    EXPECT_NE(what.find("line 3"), std::string::npos) << text << ": " << what;
  }
}

TEST(EdgeListIo, EmptyInputIsEmptyGraph) {
  std::stringstream ss("# nothing\n");
  const Graph g = read_edge_list(ss);
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
  EXPECT_THROW(read_edge_list_file("/nonexistent/nowhere.txt"), Error);
}

TEST(BinaryIo, RoundTripsExactly) {
  Pcg32 rng(23);
  const Graph g = erdos_renyi(100, 0.05, rng);
  TempPath tmp("bin");
  write_binary(tmp.str(), g);
  EXPECT_EQ(read_binary(tmp.str()), g);
}

TEST(BinaryIo, RoundTripsEmptyGraph) {
  TempPath tmp("binempty");
  write_binary(tmp.str(), Graph());
  EXPECT_EQ(read_binary(tmp.str()), Graph());
}

TEST(BinaryIo, RejectsBadMagic) {
  TempPath tmp("badmagic");
  {
    std::ofstream out(tmp.str(), std::ios::binary);
    out << "NOTAGRAPH-FILE";
  }
  EXPECT_THROW(read_binary(tmp.str()), Error);
}

TEST(BinaryIo, RejectsTruncatedFile) {
  Pcg32 rng(24);
  const Graph g = erdos_renyi(50, 0.1, rng);
  TempPath tmp("trunc");
  write_binary(tmp.str(), g);
  const auto size = std::filesystem::file_size(tmp.str());
  std::filesystem::resize_file(tmp.str(), size / 2);
  EXPECT_THROW(read_binary(tmp.str()), Error);
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
