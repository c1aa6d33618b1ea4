#include "spam/campaign.hpp"

#include "util/check.hpp"

namespace srsr::spam {

CampaignOutcome apply_campaign(const WebCorpus& corpus, NodeId target_page,
                               const CampaignSpec& spec, Pcg32& rng) {
  SRSR_CHECK(target_page < corpus.num_pages(),
             "apply_campaign: target page out of range");
  CampaignOutcome out{corpus, {}};

  if (spec.intra_farm_pages > 0) {
    out.corpus =
        add_intra_source_farm(out.corpus, target_page, spec.intra_farm_pages);
    out.receipt.pages_added += spec.intra_farm_pages;
  }
  if (spec.cross_farm_pages > 0 && spec.colluding_source != kInvalidNode) {
    out.corpus = add_cross_source_farm(out.corpus, target_page,
                                       spec.colluding_source,
                                       spec.cross_farm_pages);
    out.receipt.pages_added += spec.cross_farm_pages;
  }
  if (spec.colluding_sources > 0) {
    out.corpus = add_colluding_sources(out.corpus, target_page,
                                       spec.colluding_sources,
                                       spec.pages_per_colluding_source);
    out.receipt.sources_added += spec.colluding_sources;
    out.receipt.pages_added +=
        spec.colluding_sources * spec.pages_per_colluding_source;
  }
  if (spec.hijacked_links > 0) {
    // Hijack random legitimate (non-labeled-spam) pages of the ORIGINAL
    // corpus — the spammer compromises pages it does not own.
    std::vector<NodeId> victims;
    victims.reserve(spec.hijacked_links);
    while (victims.size() < spec.hijacked_links) {
      const NodeId p = rng.next_below(corpus.num_pages());
      if (corpus.source_is_spam[corpus.page_source[p]]) continue;
      if (corpus.page_source[p] == corpus.page_source[target_page]) continue;
      victims.push_back(p);
    }
    out.corpus = add_hijack_links(out.corpus, victims, target_page);
    out.receipt.links_injected += spec.hijacked_links;
  }
  if (spec.honeypot_pages > 0) {
    out.corpus = add_honeypot(out.corpus, target_page, spec.honeypot_pages,
                              spec.honeypot_lures, rng);
    out.receipt.pages_added += spec.honeypot_pages;
    out.receipt.sources_added += 1;
    out.receipt.links_injected += spec.honeypot_lures;
  }
  return out;
}

}  // namespace srsr::spam
