//! The website catalog: "10 popular news websites" (§4.2), each with a
//! resource manifest splitting content from ads — the split that makes
//! Brave's blocking and Japan's smaller ads (Fig. 6) observable.

use serde::Serialize;

/// One test page's resource manifest.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Website {
    /// Domain, used as the URL the automation types.
    pub domain: String,
    /// First-party bytes: HTML, CSS, JS, images.
    pub content_bytes: u64,
    /// Third-party ad payload bytes (UK baseline; scaled per region).
    pub ad_bytes: u64,
    /// First-party script work, abstract CPU units (seconds of one core).
    pub js_work: f64,
    /// Ad-script work, CPU units.
    pub ad_js_work: f64,
}

impl Website {
    /// The URL the workload script enters.
    pub fn url(&self) -> String {
        format!("https://{}", self.domain)
    }
}

/// The ten news sites of §4.2. Sizes reflect 2019-era mobile news pages
/// (≈2–4.5 MB, roughly a third of it ads).
pub fn news_sites() -> Vec<Website> {
    fn site(domain: &str, content_kb: u64, ad_kb: u64, js: f64, ad_js: f64) -> Website {
        Website {
            domain: domain.to_string(),
            content_bytes: content_kb * 1024,
            ad_bytes: ad_kb * 1024,
            js_work: js,
            ad_js_work: ad_js,
        }
    }
    vec![
        site("news.bbc.co.uk", 1650, 620, 0.9, 0.55),
        site("cnn.com", 2900, 1450, 1.6, 0.95),
        site("nytimes.com", 2200, 980, 1.3, 0.75),
        site("theguardian.com", 1800, 760, 1.0, 0.60),
        site("washingtonpost.com", 2100, 1050, 1.25, 0.80),
        site("foxnews.com", 2600, 1350, 1.45, 0.90),
        site("usatoday.com", 2450, 1300, 1.4, 0.92),
        site("reuters.com", 1500, 540, 0.85, 0.50),
        site("dailymail.co.uk", 3300, 1700, 1.7, 1.05),
        site("huffpost.com", 2350, 1200, 1.35, 0.85),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_ten_sites() {
        assert_eq!(news_sites().len(), 10);
    }

    #[test]
    fn sizes_are_2019_plausible() {
        for s in news_sites() {
            let total = s.content_bytes + s.ad_bytes;
            assert!(
                (1_500_000..6_000_000).contains(&total),
                "{}: {total} bytes",
                s.domain
            );
            let ad_fraction = s.ad_bytes as f64 / total as f64;
            assert!(
                (0.2..0.55).contains(&ad_fraction),
                "{}: ad fraction {ad_fraction}",
                s.domain
            );
        }
    }

    #[test]
    fn urls_are_https() {
        for s in news_sites() {
            assert!(s.url().starts_with("https://"));
        }
    }

    #[test]
    fn domains_unique() {
        let sites = news_sites();
        for (i, a) in sites.iter().enumerate() {
            for b in &sites[i + 1..] {
                assert_ne!(a.domain, b.domain);
            }
        }
    }
}
