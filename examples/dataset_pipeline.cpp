// dataset_pipeline: the file-based ingestion path a downstream user
// takes with a real crawl — URL table + edge list + host blocklist.
//
// This example is self-contained: it first writes a small crawl to
// temp files in the formats the library reads, then runs the full
// pipeline from disk:
//
//   pages.txt   "<page-id> <url>"      -> read_url_corpus (host grouping)
//   edges.txt   "<src> <dst>"          -> page graph
//   spam_hosts.txt  one host per line  -> match_hosts (blocklist seeds)
//
// and finishes with throttled Spam-Resilient SourceRank and a run
// report.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/srsr.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

int main() {
  using namespace srsr;
  namespace fs = std::filesystem;

  const fs::path dir = fs::temp_directory_path() / "srsr_pipeline_example";
  fs::create_directories(dir);

  // --- 1. Synthesize the input files (stand-in for a real crawl dump).
  {
    std::ofstream pages(dir / "pages.txt");
    pages << "0 http://portal.example/\n"
             "1 http://portal.example/a\n"
             "2 http://portal.example/b\n"
             "3 http://wiki.example/\n"
             "4 http://wiki.example/article\n"
             "5 http://shop.example/\n"
             "6 http://casino-spam.example/\n"
             "7 http://casino-spam.example/win\n";
    std::ofstream edges(dir / "edges.txt");
    edges << "# page-level hyperlinks\n"
             "0 1\n0 2\n1 0\n2 0\n"
             "3 4\n4 3\n3 0\n4 5\n"
             "5 0\n5 3\n"
             "6 7\n7 6\n6 5\n"      // spam farm + camouflage
             "4 6\n";               // hijacked wiki article
    std::ofstream blocklist(dir / "spam_hosts.txt");
    blocklist << "# known bad hosts (from an external blocklist)\n"
                 "casino-spam.example\n"
                 "not-in-this-crawl.example\n";
  }

  // --- 2. Ingest.
  std::ifstream pages_in(dir / "pages.txt");
  std::ifstream edges_in(dir / "edges.txt");
  graph::WebCorpus crawl = graph::read_url_corpus(pages_in, edges_in);
  std::cout << "ingested " << crawl.num_pages() << " pages into "
            << crawl.num_sources() << " sources, "
            << crawl.pages.num_edges() << " links\n";

  std::ifstream blocklist_in(dir / "spam_hosts.txt");
  const auto spam_seeds = graph::match_hosts(crawl, blocklist_in);
  std::cout << "blocklist matched " << spam_seeds.size()
            << " source(s) in this crawl\n\n";

  // --- 3. Rank with spam-proximity throttling from the blocklist,
  //        with the telemetry layer on: metrics + per-iteration trace
  //        feed a structured run report at the end.
  obs::set_metrics_enabled(true);
  obs::IterationTrace trace;
  const core::SourceMap sources = core::SourceMap::from_corpus(crawl);
  core::SrsrConfig cfg;
  cfg.throttle_mode = core::ThrottleMode::kTeleportDiscard;
  cfg.convergence.trace = &trace;
  const core::SpamResilientSourceRank model(crawl.pages, sources, cfg);
  const auto baseline = model.rank_baseline();
  trace.clear();  // keep only the throttled solve's iteration series
  // top_k = 2: the proximity walk flags the spam host itself AND the
  // source carrying the hijacked link — exactly the paper's intent
  // ("tune kappa higher for known spam sources and those sources that
  // link to known spam sources", Sec. 3.3/5).
  const auto throttled = model.rank_with_spam_seeds(spam_seeds, /*top_k=*/2);

  TextTable t({"Host", "Spam proximity", "Kappa", "Baseline", "Throttled"});
  for (u32 s = 0; s < crawl.num_sources(); ++s) {
    t.add_row({crawl.source_hosts[s],
               TextTable::fixed(throttled.proximity.scores[s], 4),
               TextTable::fixed(throttled.kappa[s], 1),
               TextTable::fixed(baseline.scores[s], 4),
               TextTable::fixed(throttled.ranking.scores[s], 4)});
  }
  std::cout << t.render(
      "Spam proximity + SourceRank before/after blocklist throttling");

  // --- 4. Emit the structured run report (what a production pipeline
  //        would archive next to the ranking output).
  obs::RunReport report("example.dataset_pipeline");
  report.set_meta("pages", static_cast<u64>(crawl.num_pages()));
  report.set_meta("sources", static_cast<u64>(crawl.num_sources()));
  obs::SolverRun run;
  run.solver = "srsr";
  run.iterations = throttled.ranking.iterations;
  run.residual = throttled.ranking.residual;
  run.converged = throttled.ranking.converged;
  run.seconds = throttled.ranking.seconds;
  run.trace = throttled.ranking.trace;
  report.set_solver(run);
  report.set_trace(trace);
  report.capture_metrics();
  const std::string report_path = (dir / "run_report.json").string();
  report.write(report_path);
  std::cout << "\nrun report (" << trace.size()
            << " iteration records) written to " << report_path << "\n";

  fs::remove_all(dir);
  return 0;
}
