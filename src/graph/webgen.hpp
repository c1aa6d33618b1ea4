// Synthetic web-corpus generator.
//
// The paper evaluates on three crawls (WB2001, UK2002, IT2004) that are
// not redistributable; this generator is the documented substitution
// (DESIGN.md Sec. 2). It produces a page graph *with host structure* —
// the properties Spam-Resilient SourceRank actually depends on:
//
//   - heavy-tailed pages-per-source (Zipf), as observed in crawls;
//   - strong link locality: a tunable fraction of out-links stay inside
//     the page's own source (the Bharat/Davison/Kamvar line of work the
//     paper cites reports ~75-85%);
//   - preferential attachment for inter-source links, with a bias
//     toward the target source's front page (heavy-tailed source
//     in-degree, hub homepages);
//   - a small fraction of dangling pages;
//   - a planted spam community (the analogue of the paper's 10,315
//     hand-labeled pornography sources): densely intra-linked spam
//     sources (link farms), inter-spam collusion (link exchanges),
//     camouflage out-links to legitimate sources, and a configurable
//     hijack rate — legitimate pages carrying an injected link into the
//     spam cluster, exactly the vulnerability of Sec. 2.
//
// Generation is fully deterministic given the config seed.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace srsr::graph {

struct WebGenConfig {
  /// Total sources (hosts), including spam sources.
  u32 num_sources = 1000;
  /// Zipf exponent for pages-per-source (larger => more skew).
  f64 source_size_exponent = 1.6;
  u32 min_pages_per_source = 1;
  u32 max_pages_per_source = 2000;

  /// Mean page out-degree (degrees are Zipf-distributed with this mean,
  /// truncated at max_out_degree).
  f64 mean_out_degree = 10.0;
  u32 max_out_degree = 120;
  /// Fraction of pages with no out-links at all.
  f64 dangling_fraction = 0.02;

  /// Probability an out-link stays within the page's own source.
  f64 intra_locality = 0.78;
  /// For inter-source links, probability of landing on the target
  /// source's front page (page 0) rather than a uniform page of it.
  f64 front_page_bias = 0.6;
  /// Exponent of the popularity weights used for preferential selection
  /// of inter-source link targets.
  f64 popularity_exponent = 1.1;

  /// Number of spam sources (planted at the end of the id space and
  /// then shuffled into random positions).
  u32 num_spam_sources = 0;
  /// Extra intra-source farm links added per spam page.
  u32 spam_farm_links = 6;
  /// Link-exchange degree: spam sources each exchange links with this
  /// many other spam sources.
  u32 spam_exchange_degree = 4;
  /// Fraction of spam pages that also emit a camouflage link to a
  /// legitimate source.
  f64 spam_camouflage = 0.3;
  /// Fraction of *legitimate* pages that carry a hijacked link into the
  /// spam cluster.
  f64 hijack_rate = 0.003;

  u64 seed = 42;
};

/// A generated corpus: the page graph plus the source structure and
/// ground-truth spam labels.
struct WebCorpus {
  Graph pages;
  /// page id -> source id.
  std::vector<NodeId> page_source;
  /// source id -> synthetic host name ("www.src000123.example").
  std::vector<std::string> source_hosts;
  /// source id -> ground-truth spam label (planted by the generator).
  std::vector<u8> source_is_spam;
  /// source id -> number of pages.
  std::vector<u32> source_page_count;
  /// source id -> first page id (pages of a source are contiguous).
  std::vector<NodeId> source_first_page;

  u32 num_sources() const { return static_cast<u32>(source_page_count.size()); }
  NodeId num_pages() const { return pages.num_nodes(); }

  /// Ids of all planted spam sources.
  std::vector<NodeId> spam_sources() const;

  /// Fraction of page edges that stay within their source (measured).
  f64 measured_locality() const;
};

/// Generates a corpus from the config. Deterministic in config.seed.
WebCorpus generate_web_corpus(const WebGenConfig& config);

/// Named scaled-down stand-ins for the paper's Table 1 datasets. The
/// relative ordering of sizes (UK2002 < IT2004 << WB2001) is preserved.
enum class ScaledDataset { kUK2002S, kIT2004S, kWB2001S };

/// Canonical config for a named dataset (2% planted spam sources).
WebGenConfig scaled_dataset_config(ScaledDataset which);

/// Human-readable name ("UK2002S", ...).
std::string dataset_name(ScaledDataset which);

}  // namespace srsr::graph
