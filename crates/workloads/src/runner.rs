//! The browser workload runner: executes the §4.2 experiment — "load 10
//! popular news websites, wait 6 s emulating page-load time, scroll up and
//! down" — against a simulated device through an automation backend.
//!
//! The split of responsibilities mirrors reality: the *backend* injects
//! input (typing the URL, swiping); the *browser engine* then does the
//! work (fetch, parse, render, animate ads), which the runner applies to
//! the device according to the [`BrowserProfile`] and the regional content
//! catalog.

use batterylab_automation::{Action, AutomationBackend, AutomationError, ScrollDir};
use batterylab_device::AndroidDevice;
use batterylab_net::{Direction, Region, RegionalContent};
use batterylab_sim::{SimDuration, SimTime};

use crate::browsers::BrowserProfile;
use crate::sites::Website;

/// Dwell per page, emulating typical PLT on fast networks (§4.2).
pub const PAGE_DWELL: SimDuration = SimDuration::from_secs(6);

/// Outcome of one page visit.
#[derive(Clone, Copy, Debug)]
pub struct PageVisit {
    /// Bytes fetched (after ad blocking / regional scaling).
    pub bytes: u64,
    /// Time from URL submission to render completion.
    pub load_time: SimDuration,
}

/// Aggregate outcome of a full workload run.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadStats {
    /// Pages visited.
    pub pages: usize,
    /// Total bytes fetched.
    pub bytes: u64,
    /// Virtual time consumed, start to finish.
    pub duration: SimDuration,
    /// When the run started (device clock).
    pub started_at: SimTime,
}

/// Drives one browser on one device through one region's content.
pub struct BrowserRunner<'a, B: AutomationBackend> {
    device: AndroidDevice,
    backend: &'a mut B,
    profile: BrowserProfile,
    region: Region,
    /// Chrome's Lite Pages toggle. The §4.3 protocol turns it off for
    /// comparability; it defaults to the regional behaviour.
    lite_pages_enabled: bool,
}

impl<'a, B: AutomationBackend> BrowserRunner<'a, B> {
    /// A runner for `profile` on `device` through `backend`, with content
    /// served as at `region`. Installs the browser package.
    pub fn new(
        device: AndroidDevice,
        backend: &'a mut B,
        profile: BrowserProfile,
        region: Region,
    ) -> Self {
        device.install_package(&profile.package);
        let lite_pages_enabled =
            profile.supports_lite_pages && RegionalContent::for_region(region).lite_pages_default;
        BrowserRunner {
            device,
            backend,
            profile,
            region,
            lite_pages_enabled,
        }
    }

    /// The profile in use.
    pub fn profile(&self) -> &BrowserProfile {
        &self.profile
    }

    /// Whether Lite Pages is currently on (Chrome, SA/Japan defaults).
    pub fn lite_pages_enabled(&self) -> bool {
        self.lite_pages_enabled
    }

    /// Force the Lite Pages toggle (the paper turns it off, §4.3).
    pub fn set_lite_pages(&mut self, on: bool) {
        self.lite_pages_enabled = on && self.profile.supports_lite_pages;
    }

    /// Clean state and launch: force-stop, `pm clear`, start, first-run
    /// setup (accepting ToS etc. — Chrome needs this, §4.2).
    pub fn prepare(&mut self) -> Result<(), AutomationError> {
        self.backend
            .perform(&Action::ForceStop(self.profile.package.clone()))?;
        self.backend
            .perform(&Action::ClearAppData(self.profile.package.clone()))?;
        self.backend
            .perform(&Action::LaunchApp(self.profile.package.clone()))?;
        // First-run dialogs: a few taps' worth of input.
        self.backend.perform(&Action::KeyEvent(66))?;
        self.backend.perform(&Action::KeyEvent(66))?;
        Ok(())
    }

    /// Bytes a visit to `site` will fetch under current settings.
    pub fn page_bytes(&self, site: &Website) -> u64 {
        let content = RegionalContent::for_region(self.region);
        let mut bytes = site.content_bytes;
        if self.profile.blocks_ads {
            // Blocked ad requests still cost the filter-list lookups and a
            // few aborted connections — a sliver of the payload.
            bytes += (site.ad_bytes as f64 * 0.02) as u64;
        } else {
            bytes += (site.ad_bytes as f64 * content.ad_size_factor) as u64;
        }
        // Lite Pages would proxy-compress content, but none of the
        // catalog's news pages support it (the paper's anecdote) — the
        // toggle therefore changes nothing for these sites.
        bytes
    }

    /// Visit one page: type the URL (backend input), fetch + parse +
    /// render (engine work), then dwell out the remainder of the 6 s.
    pub fn visit(&mut self, site: &Website) -> Result<PageVisit, AutomationError> {
        let t0 = self.device.with_sim(|s| s.now());
        self.backend.perform(&Action::EnterUrl(site.url()))?;

        let bytes = self.page_bytes(site);
        let content = RegionalContent::for_region(self.region);

        // Fetch with concurrent parse: network-bound phase.
        let parse_util = (0.28 * self.profile.js_factor).min(0.9);
        self.device
            .with_sim(|s| s.transfer(bytes, Direction::Down, parse_util));

        // Script + layout + paint burst. Ad scripts run unless blocked.
        let mut js_work = site.js_work * self.profile.js_factor;
        if !self.profile.blocks_ads {
            js_work += site.ad_js_work * content.ad_cpu_factor;
        }
        // Work units are core-seconds; the burst runs at ~45 % of the SoC.
        let burst_util = (0.42 * self.profile.render_factor).min(0.9);
        let burst_secs = js_work / (8.0 * burst_util);
        self.device
            .with_sim(|s| s.run_activity(SimDuration::from_secs_f64(burst_secs), burst_util, 0.75));

        let load_time = self.device.with_sim(|s| s.now()) - t0;

        // Dwell out the rest of the 6 s with the engine's idle-page load
        // (ads animating if present).
        let dwell = PAGE_DWELL.saturating_sub(load_time);
        if !dwell.is_zero() {
            self.dwell(dwell);
        }
        Ok(PageVisit { bytes, load_time })
    }

    /// Foreground dwell: timers, animations, (unblocked) ads.
    pub fn dwell(&mut self, dur: SimDuration) {
        let content = RegionalContent::for_region(self.region);
        let mut util = self.profile.dwell_util;
        let mut change = 0.07;
        if !self.profile.blocks_ads {
            util += self.profile.ad_dwell_util * content.ad_cpu_factor;
            change = 0.16; // ad carousels keep the screen moving
        }
        self.device.with_sim(|s| s.run_activity(dur, util, change));
    }

    /// One scroll: input gesture (backend) + engine repaint work.
    pub fn scroll(&mut self, dir: ScrollDir) -> Result<(), AutomationError> {
        self.backend.perform(&Action::Scroll(dir))?;
        let util = (self.profile.scroll_util * self.profile.render_factor).min(0.9);
        self.device
            .with_sim(|s| s.run_activity(SimDuration::from_millis(350), util, 0.45));
        Ok(())
    }

    /// The full §4.2 workload: prepare, then for each site visit + scroll
    /// `scrolls_per_page` times alternating down/up, then stop.
    pub fn run_workload(
        &mut self,
        sites: &[Website],
        scrolls_per_page: usize,
    ) -> Result<WorkloadStats, AutomationError> {
        let started_at = self.device.with_sim(|s| s.now());
        self.prepare()?;
        let mut bytes = 0;
        for site in sites {
            let visit = self.visit(site)?;
            bytes += visit.bytes;
            for i in 0..scrolls_per_page {
                let dir = if i % 2 == 0 {
                    ScrollDir::Down
                } else {
                    ScrollDir::Up
                };
                self.scroll(dir)?;
            }
        }
        self.backend
            .perform(&Action::ForceStop(self.profile.package.clone()))?;
        let now = self.device.with_sim(|s| s.now());
        Ok(WorkloadStats {
            pages: sites.len(),
            bytes,
            duration: now - started_at,
            started_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::news_sites;
    use batterylab_adb::{AdbKey, TransportKind};
    use batterylab_automation::AdbBackend;
    use batterylab_device::boot_j7_duo;
    use batterylab_net::VpnLocation;
    use batterylab_sim::SimRng;
    use batterylab_stats::Cdf;

    fn setup(seed: u64) -> (AndroidDevice, AdbBackend) {
        let device = boot_j7_duo(&SimRng::new(seed), "wl-dev");
        let backend = AdbBackend::connect(
            device.clone(),
            TransportKind::WiFi,
            AdbKey::generate("c", seed),
        )
        .unwrap();
        (device, backend)
    }

    #[test]
    fn brave_fetches_fewer_bytes_than_chrome() {
        let (device, mut backend) = setup(1);
        let sites = news_sites();
        let brave = BrowserRunner::new(
            device.clone(),
            &mut backend,
            BrowserProfile::brave(),
            Region::Local,
        );
        let brave_bytes: u64 = sites.iter().map(|s| brave.page_bytes(s)).sum();
        drop(brave);
        let chrome = BrowserRunner::new(
            device,
            &mut backend,
            BrowserProfile::chrome(),
            Region::Local,
        );
        let chrome_bytes: u64 = sites.iter().map(|s| chrome.page_bytes(s)).sum();
        assert!(
            (brave_bytes as f64) < chrome_bytes as f64 * 0.75,
            "ad blocking must cut traffic: {brave_bytes} vs {chrome_bytes}"
        );
    }

    #[test]
    fn chrome_in_japan_fetches_about_20_percent_less() {
        let (device, mut backend) = setup(2);
        let sites = news_sites();
        let uk = BrowserRunner::new(
            device.clone(),
            &mut backend,
            BrowserProfile::chrome(),
            Region::Local,
        );
        let uk_bytes: u64 = sites.iter().map(|s| uk.page_bytes(s)).sum();
        drop(uk);
        let jp = BrowserRunner::new(
            device,
            &mut backend,
            BrowserProfile::chrome(),
            Region::Vpn(VpnLocation::Japan),
        );
        let jp_bytes: u64 = sites.iter().map(|s| jp.page_bytes(s)).sum();
        let drop_frac = 1.0 - jp_bytes as f64 / uk_bytes as f64;
        assert!(
            (0.12..0.28).contains(&drop_frac),
            "Japan should cut Chrome traffic ≈20 %, got {:.1} %",
            drop_frac * 100.0
        );
    }

    #[test]
    fn brave_unaffected_by_japan_ads() {
        let (device, mut backend) = setup(3);
        let sites = news_sites();
        let uk = BrowserRunner::new(
            device.clone(),
            &mut backend,
            BrowserProfile::brave(),
            Region::Local,
        );
        let uk_bytes: u64 = sites.iter().map(|s| uk.page_bytes(s)).sum();
        drop(uk);
        let jp = BrowserRunner::new(
            device,
            &mut backend,
            BrowserProfile::brave(),
            Region::Vpn(VpnLocation::Japan),
        );
        let jp_bytes: u64 = sites.iter().map(|s| jp.page_bytes(s)).sum();
        let rel = (uk_bytes as f64 - jp_bytes as f64).abs() / uk_bytes as f64;
        assert!(rel < 0.02, "Brave blocks ads everywhere: {rel}");
    }

    #[test]
    fn lite_pages_defaults_match_region_and_do_nothing_here() {
        let (device, mut backend) = setup(4);
        let mut jp_chrome = BrowserRunner::new(
            device.clone(),
            &mut backend,
            BrowserProfile::chrome(),
            Region::Vpn(VpnLocation::Japan),
        );
        assert!(
            jp_chrome.lite_pages_enabled(),
            "Japan defaults Lite Pages on"
        );
        let site = &news_sites()[0];
        let with = jp_chrome.page_bytes(site);
        jp_chrome.set_lite_pages(false);
        let without = jp_chrome.page_bytes(site);
        assert_eq!(with, without, "no catalog page supports Lite Pages (§4.3)");
        drop(jp_chrome);
        let uk_chrome = BrowserRunner::new(
            device,
            &mut backend,
            BrowserProfile::chrome(),
            Region::Local,
        );
        assert!(!uk_chrome.lite_pages_enabled());
    }

    #[test]
    fn full_workload_runs_and_takes_realistic_time() {
        let (device, mut backend) = setup(5);
        let sites = news_sites();
        let mut runner = BrowserRunner::new(
            device.clone(),
            &mut backend,
            BrowserProfile::chrome(),
            Region::Local,
        );
        let stats = runner.run_workload(&sites, 4).unwrap();
        assert_eq!(stats.pages, 10);
        assert!(stats.bytes > 20_000_000, "ten news pages are tens of MB");
        let mins = stats.duration.as_secs_f64() / 60.0;
        assert!((1.0..5.0).contains(&mins), "workload took {mins:.1} min");
    }

    #[test]
    fn chrome_cpu_median_near_20_percent_brave_near_12() {
        let run = |profile: BrowserProfile, seed: u64| -> f64 {
            let (device, mut backend) = setup(seed);
            let sites = news_sites();
            let mut runner =
                BrowserRunner::new(device.clone(), &mut backend, profile, Region::Local);
            let stats = runner.run_workload(&sites, 4).unwrap();
            // Sample the CPU trace at 1 Hz like the paper's monitoring.
            let samples: Vec<f64> = (0..stats.duration.as_micros() / 1_000_000)
                .map(|sec| {
                    device.with_sim(|s| {
                        s.cpu_trace()
                            .at(stats.started_at + SimDuration::from_secs(sec))
                    }) * 100.0
                })
                .collect();
            Cdf::from_samples(&samples).median()
        };
        let chrome = run(BrowserProfile::chrome(), 6);
        let brave = run(BrowserProfile::brave(), 6);
        assert!(
            (14.0..27.0).contains(&chrome),
            "Chrome median CPU {chrome:.1}%, paper ≈20%"
        );
        assert!(
            (8.0..16.0).contains(&brave),
            "Brave median CPU {brave:.1}%, paper ≈12%"
        );
        assert!(chrome > brave + 4.0, "Chrome must sit clearly above Brave");
    }
}
