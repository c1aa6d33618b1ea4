#include "graph/webgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "graph/builder.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace srsr::graph {

namespace {

/// Standard-normal draw (Box–Muller; one value per call, simple over fast).
f64 normal(Pcg32& rng) {
  const f64 u1 = 1.0 - rng.next_real();  // (0, 1]
  const f64 u2 = rng.next_real();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// Discrete log-normal out-degree with the requested mean, clamped to
/// [1, max_degree]. sigma = 0.9 gives a realistic right-skewed spread.
u32 sample_out_degree(Pcg32& rng, f64 mean, u32 max_degree) {
  constexpr f64 kSigma = 0.9;
  const f64 mu = std::log(mean) - 0.5 * kSigma * kSigma;
  const f64 d = std::exp(mu + kSigma * normal(rng));
  const u32 di = static_cast<u32>(std::lround(d));
  return std::clamp(di, 1u, max_degree);
}

}  // namespace

std::vector<NodeId> WebCorpus::spam_sources() const {
  std::vector<NodeId> out;
  for (NodeId s = 0; s < source_is_spam.size(); ++s)
    if (source_is_spam[s]) out.push_back(s);
  return out;
}

f64 WebCorpus::measured_locality() const {
  if (pages.num_edges() == 0) return 0.0;
  u64 intra = 0;
  for (NodeId u = 0; u < pages.num_nodes(); ++u)
    for (const NodeId v : pages.out_neighbors(u))
      if (page_source[u] == page_source[v]) ++intra;
  return static_cast<f64>(intra) / static_cast<f64>(pages.num_edges());
}

WebCorpus generate_web_corpus(const WebGenConfig& cfg) {
  obs::StageTimer stage("graph.webgen.generate");
  SRSR_CHECK(cfg.num_sources > 0, "webgen: num_sources must be positive");
  SRSR_CHECK(cfg.num_spam_sources < cfg.num_sources,
             "webgen: spam sources must be a strict subset");
  SRSR_CHECK(cfg.intra_locality >= 0.0 && cfg.intra_locality <= 1.0,
             "webgen: intra_locality must be in [0,1]");
  SRSR_CHECK(cfg.min_pages_per_source >= 1,
             "webgen: sources must be non-empty");
  SRSR_CHECK(cfg.max_pages_per_source >= cfg.min_pages_per_source,
             "webgen: max_pages_per_source < min_pages_per_source");

  SplitMix64 seeder(cfg.seed);
  Pcg32 rng(seeder.next(), 1);

  WebCorpus corpus;
  const u32 ns = cfg.num_sources;

  // --- 1. Source sizes: Zipf-distributed page counts, contiguous ids.
  ZipfSampler size_dist(cfg.max_pages_per_source - cfg.min_pages_per_source + 1,
                        cfg.source_size_exponent);
  corpus.source_page_count.resize(ns);
  corpus.source_first_page.resize(ns);
  u64 total_pages = 0;
  for (u32 s = 0; s < ns; ++s) {
    const u32 count = cfg.min_pages_per_source + size_dist.sample(rng) - 1;
    corpus.source_page_count[s] = count;
    corpus.source_first_page[s] = static_cast<NodeId>(total_pages);
    total_pages += count;
  }
  SRSR_CHECK(total_pages < kInvalidNode, "webgen: page id space overflow");
  const NodeId np = static_cast<NodeId>(total_pages);

  corpus.page_source.resize(np);
  for (u32 s = 0; s < ns; ++s)
    for (u32 i = 0; i < corpus.source_page_count[s]; ++i)
      corpus.page_source[corpus.source_first_page[s] + i] = s;

  // --- 2. Labels and host names (names are label-neutral on purpose:
  // nothing downstream may infer spam from the host string).
  corpus.source_is_spam.assign(ns, 0);
  if (cfg.num_spam_sources > 0) {
    const auto spam_ids =
        sample_without_replacement(rng, ns, cfg.num_spam_sources);
    for (const u32 s : spam_ids) corpus.source_is_spam[s] = 1;
  }
  corpus.source_hosts.resize(ns);
  for (u32 s = 0; s < ns; ++s) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "www.host%07u.example", s);
    corpus.source_hosts[s] = buf;
  }

  // --- 3. Popularity weights for inter-source target selection.
  // Legitimate sources get Zipf-ranked popularity (a random permutation
  // assigns ranks); spam sources get a negligible organic weight — the
  // only legitimate links into the spam cluster come from hijacking,
  // which mirrors how real spam sources acquire legitimate in-links.
  std::vector<u32> ranks(ns);
  for (u32 s = 0; s < ns; ++s) ranks[s] = s + 1;
  shuffle(rng, ranks);
  std::vector<f64> popularity(ns);
  for (u32 s = 0; s < ns; ++s) {
    popularity[s] =
        corpus.source_is_spam[s]
            ? 1e-9
            : std::pow(static_cast<f64>(ranks[s]), -cfg.popularity_exponent);
  }
  AliasSampler source_picker(popularity);

  // Helper: uniform page of source s.
  auto page_of = [&](u32 s) -> NodeId {
    const u32 count = corpus.source_page_count[s];
    return corpus.source_first_page[s] + rng.next_below(count);
  };
  // Helper: inter-source landing page (front-page-biased).
  auto landing_page = [&](u32 s) -> NodeId {
    if (corpus.source_page_count[s] == 1 || rng.next_bool(cfg.front_page_bias))
      return corpus.source_first_page[s];
    return page_of(s);
  };

  GraphBuilder builder(np);
  builder.reserve_edges(static_cast<std::size_t>(
      static_cast<f64>(np) * cfg.mean_out_degree * 1.2));

  // --- 4. Organic links.
  for (NodeId p = 0; p < np; ++p) {
    if (rng.next_bool(cfg.dangling_fraction)) continue;
    const u32 s = corpus.page_source[p];
    const u32 degree =
        sample_out_degree(rng, cfg.mean_out_degree, cfg.max_out_degree);
    for (u32 e = 0; e < degree; ++e) {
      NodeId target;
      if (corpus.source_page_count[s] > 1 && rng.next_bool(cfg.intra_locality)) {
        do {
          target = page_of(s);
        } while (target == p);
      } else {
        const u32 t = source_picker.sample(rng);
        target = landing_page(t);
        if (target == p) continue;  // rare self-hit on front pages
      }
      builder.add_edge(p, target);
    }
  }

  // --- 5. Planted spam structure.
  const auto spam = [&] {
    std::vector<u32> ids;
    for (u32 s = 0; s < ns; ++s)
      if (corpus.source_is_spam[s]) ids.push_back(s);
    return ids;
  }();

  for (const u32 s : spam) {
    const u32 count = corpus.source_page_count[s];
    const NodeId first = corpus.source_first_page[s];
    // Link farm: every spam page pumps the source's front page and a few
    // random siblings.
    for (u32 i = 0; i < count; ++i) {
      const NodeId p = first + i;
      if (p != first) builder.add_edge(p, first);
      for (u32 f = 0; f + 1 < cfg.spam_farm_links && count > 1; ++f) {
        NodeId q = page_of(s);
        if (q != p) builder.add_edge(p, q);
      }
      // Camouflage: look like a normal site by citing popular sources.
      if (rng.next_bool(cfg.spam_camouflage)) {
        const u32 t = source_picker.sample(rng);
        builder.add_edge(p, landing_page(t));
      }
    }
    // Link exchange with other spam sources.
    if (spam.size() > 1) {
      for (u32 x = 0; x < cfg.spam_exchange_degree; ++x) {
        u32 other = spam[rng.next_below(static_cast<u32>(spam.size()))];
        if (other == s) continue;
        builder.add_edge(page_of(s), corpus.source_first_page[other]);
      }
    }
  }

  // --- 6. Hijacked links: legitimate pages that carry an injected link
  // into the spam cluster (Sec. 2 vulnerability #1).
  if (!spam.empty() && cfg.hijack_rate > 0.0) {
    for (NodeId p = 0; p < np; ++p) {
      if (corpus.source_is_spam[corpus.page_source[p]]) continue;
      if (!rng.next_bool(cfg.hijack_rate)) continue;
      const u32 target = spam[rng.next_below(static_cast<u32>(spam.size()))];
      builder.add_edge(p, corpus.source_first_page[target]);
    }
  }

  corpus.pages = builder.build();

  // --- 7. Optional page content (the search substrate's input).
  if (cfg.generate_terms) {
    SRSR_CHECK(cfg.num_topics >= 1, "webgen: need at least one topic");
    SRSR_CHECK(cfg.vocab_size >= 20 * cfg.num_topics,
               "webgen: vocabulary too small for the topic partition");
    corpus.vocab_size = cfg.vocab_size;
    const u32 background = cfg.vocab_size / 20;
    const u32 topic_span = (cfg.vocab_size - background) / cfg.num_topics;

    corpus.source_topic.resize(ns);
    for (u32 s = 0; s < ns; ++s)
      corpus.source_topic[s] = rng.next_below(cfg.num_topics);

    // Zipf samplers: term popularity inside the background vocabulary
    // and inside each topic slice (shared shape).
    ZipfSampler background_dist(background, 1.1);
    ZipfSampler topic_dist(topic_span, 1.1);
    constexpr f64 kLenSigma = 0.6;
    const f64 len_mu =
        std::log(cfg.terms_per_page_mean) - 0.5 * kLenSigma * kLenSigma;

    corpus.page_terms.resize(np);
    for (NodeId p = 0; p < np; ++p) {
      const u32 topic = corpus.source_topic[corpus.page_source[p]];
      const u32 topic_base = background + topic * topic_span;
      const f64 gauss = std::sqrt(-2.0 * std::log(1.0 - rng.next_real())) *
                        std::cos(6.283185307179586 * rng.next_real());
      const u32 len = std::max<u32>(
          3, static_cast<u32>(std::lround(
                 std::exp(len_mu + kLenSigma * gauss))));
      auto& terms = corpus.page_terms[p];
      terms.reserve(len + cfg.stuffed_terms);
      for (u32 i = 0; i < len; ++i) {
        if (rng.next_bool(cfg.topic_term_fraction)) {
          terms.push_back(topic_base + topic_dist.sample(rng) - 1);
        } else {
          terms.push_back(background_dist.sample(rng) - 1);
        }
      }
      // Keyword stuffing: a spam page picks a few target topics and
      // repeats each topic's head term many times — raw tf is how real
      // stuffers game lexical rankers (BM25's saturation blunts but
      // does not remove the payoff).
      if (corpus.source_is_spam[corpus.page_source[p]]) {
        const u32 targets = std::min<u32>(3, cfg.num_topics);
        const u32 reps = targets > 0 ? cfg.stuffed_terms / targets : 0;
        for (u32 t = 0; t < targets; ++t) {
          const u32 topic_id = rng.next_below(cfg.num_topics);
          const u32 head_term = background + topic_id * topic_span;
          for (u32 i = 0; i < reps; ++i) terms.push_back(head_term);
        }
      }
    }
  }

  log_debug("webgen: ", ns, " sources, ", np, " pages, ",
            corpus.pages.num_edges(), " edges");
  return corpus;
}

WebGenConfig scaled_dataset_config(ScaledDataset which) {
  WebGenConfig cfg;
  cfg.source_size_exponent = 1.6;
  cfg.max_pages_per_source = 400;
  cfg.intra_locality = 0.78;
  switch (which) {
    case ScaledDataset::kUK2002S:
      cfg.num_sources = 6000;
      cfg.mean_out_degree = 9.0;
      cfg.seed = 20020601;
      break;
    case ScaledDataset::kIT2004S:
      cfg.num_sources = 9000;
      cfg.mean_out_degree = 10.0;
      cfg.seed = 20040901;
      break;
    case ScaledDataset::kWB2001S:
      cfg.num_sources = 20000;
      cfg.mean_out_degree = 10.0;
      cfg.seed = 20010301;
      break;
  }
  cfg.num_spam_sources = cfg.num_sources / 50;  // 2%, mirroring WB2001's 1.4%
  return cfg;
}

std::string dataset_name(ScaledDataset which) {
  switch (which) {
    case ScaledDataset::kUK2002S:
      return "UK2002S";
    case ScaledDataset::kIT2004S:
      return "IT2004S";
    case ScaledDataset::kWB2001S:
      return "WB2001S";
  }
  return "?";
}

}  // namespace srsr::graph
