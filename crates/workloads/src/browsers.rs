//! Browser engine profiles for the §4.2 demonstration.
//!
//! The paper automates Chrome, Firefox, Edge and Brave and finds Brave
//! cheapest (it blocks ads → less network *and* less script work; median
//! CPU 12 % vs Chrome's 20 %) and Firefox dearest. The profiles below
//! encode *why* each browser costs what it costs; the energy ordering in
//! Fig. 3 is an emergent result of running the actual workload through the
//! device model, not a lookup table.

/// How a browser engine spends resources on a page.
#[derive(Clone, Debug, PartialEq)]
pub struct BrowserProfile {
    /// Display name.
    pub name: String,
    /// Android package.
    pub package: String,
    /// Whether ads (and their scripts) are blocked (Brave).
    pub blocks_ads: bool,
    /// Whether the browser supports Google's Lite Pages proxy (Chrome).
    pub supports_lite_pages: bool,
    /// Multiplier on page JS/parse CPU work (engine efficiency).
    pub js_factor: f64,
    /// Multiplier on layout/paint CPU work.
    pub render_factor: f64,
    /// CPU utilisation while the page sits in the foreground (timers,
    /// animations, decoder) — before ad extras.
    pub dwell_util: f64,
    /// Extra dwell utilisation caused by ad animation/tracking when ads
    /// are present.
    pub ad_dwell_util: f64,
    /// CPU utilisation of a scroll (fling + repaint).
    pub scroll_util: f64,
}

impl BrowserProfile {
    /// Brave 1.x: Chromium with an ad/tracker blocker.
    pub fn brave() -> Self {
        BrowserProfile {
            name: "Brave".to_string(),
            package: "com.brave.browser".to_string(),
            blocks_ads: true,
            supports_lite_pages: false,
            js_factor: 1.0,
            render_factor: 1.0,
            dwell_util: 0.085,
            ad_dwell_util: 0.075,
            scroll_util: 0.16,
        }
    }

    /// Chrome 74-era stable.
    pub fn chrome() -> Self {
        BrowserProfile {
            name: "Chrome".to_string(),
            package: "com.android.chrome".to_string(),
            blocks_ads: false,
            supports_lite_pages: true,
            js_factor: 1.0,
            render_factor: 1.0,
            dwell_util: 0.105,
            ad_dwell_util: 0.075,
            scroll_util: 0.18,
        }
    }

    /// Edge (Chromium-based, with Microsoft service layers).
    pub fn edge() -> Self {
        BrowserProfile {
            name: "Edge".to_string(),
            package: "com.microsoft.emmx".to_string(),
            blocks_ads: false,
            supports_lite_pages: false,
            js_factor: 1.08,
            render_factor: 1.06,
            dwell_util: 0.12,
            ad_dwell_util: 0.08,
            scroll_util: 0.19,
        }
    }

    /// Firefox 66-era (Gecko).
    pub fn firefox() -> Self {
        BrowserProfile {
            name: "Firefox".to_string(),
            package: "org.mozilla.firefox".to_string(),
            blocks_ads: false,
            supports_lite_pages: false,
            js_factor: 1.22,
            render_factor: 1.18,
            dwell_util: 0.135,
            ad_dwell_util: 0.09,
            scroll_util: 0.22,
        }
    }

    /// The paper's four browsers, in its reporting order.
    pub fn all_four() -> Vec<BrowserProfile> {
        vec![Self::brave(), Self::chrome(), Self::edge(), Self::firefox()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_brave_blocks_ads() {
        for p in BrowserProfile::all_four() {
            assert_eq!(p.blocks_ads, p.name == "Brave", "{}", p.name);
        }
    }

    #[test]
    fn only_chrome_supports_lite_pages() {
        for p in BrowserProfile::all_four() {
            assert_eq!(p.supports_lite_pages, p.name == "Chrome", "{}", p.name);
        }
    }

    #[test]
    fn firefox_is_the_heaviest_engine() {
        let all = BrowserProfile::all_four();
        let firefox = all.iter().find(|p| p.name == "Firefox").unwrap();
        for p in &all {
            if p.name != "Firefox" {
                assert!(firefox.js_factor >= p.js_factor);
                assert!(firefox.dwell_util >= p.dwell_util);
            }
        }
    }

    #[test]
    fn packages_are_distinct() {
        let all = BrowserProfile::all_four();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.package, b.package);
            }
        }
    }
}
