//! End-to-end interaction latency of the mirroring pipeline.
//!
//! §4.2 measures "latency" as the time between a click in the browser and
//! the first frame showing its effect, hand-annotated from A/V recordings
//! (ELAN): **1.44 ± 0.12 s over 40 trials**, co-located with the vantage
//! point (1 ms network RTT).
//!
//! The simulated pipeline timestamps the same interval directly. Each
//! stage's cost is modelled where it lives conceptually: browser event
//! loop → WebSocket → noVNC backend → ADB `input` injection → app
//! response/render → capture wait → encode → stream → browser decode and
//! paint.

use batterylab_net::LinkProfile;
use batterylab_sim::{SimDuration, SimRng};
use batterylab_stats::Summary;
use serde::Serialize;

/// Mean cost of each pipeline stage, milliseconds. The defaults are
/// calibrated so a co-located trial distribution matches §4.2.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LatencyModel {
    /// Browser JS event handling + WebSocket send.
    pub browser_send_ms: f64,
    /// noVNC backend + GUI REST dispatch on the controller.
    pub backend_ms: f64,
    /// ADB `input` round trip to the device (WiFi automation path).
    pub adb_inject_ms: f64,
    /// App reacts and renders the change.
    pub app_render_ms: f64,
    /// Wait for the next capture frame (half a 60 fps period on average)
    /// plus encode.
    pub capture_encode_ms: f64,
    /// Controller re-frames into VNC and pushes to the socket.
    pub restream_ms: f64,
    /// Browser receives, decodes and paints.
    pub browser_paint_ms: f64,
    /// Multiplicative log-normal jitter applied to the software stages.
    pub jitter_sigma: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            browser_send_ms: 35.0,
            backend_ms: 60.0,
            adb_inject_ms: 160.0,
            app_render_ms: 430.0,
            capture_encode_ms: 230.0,
            restream_ms: 130.0,
            browser_paint_ms: 390.0,
            jitter_sigma: 0.17,
        }
    }
}

/// One measured trial.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LatencyTrial {
    /// Click-to-display interval.
    pub total: SimDuration,
}

/// Click-to-display latency probe over a viewer↔controller path.
pub struct LatencyProbe {
    model: LatencyModel,
    /// Path between the experimenter's browser and the controller.
    viewer_path: LinkProfile,
}

impl LatencyProbe {
    /// Probe with the default (calibrated) model.
    pub fn new(viewer_path: LinkProfile) -> Self {
        LatencyProbe {
            model: LatencyModel::default(),
            viewer_path,
        }
    }

    /// Probe with an explicit model (ablations).
    pub fn with_model(viewer_path: LinkProfile, model: LatencyModel) -> Self {
        LatencyProbe { model, viewer_path }
    }

    /// Execute one trial.
    pub fn trial(&self, rng: &mut SimRng) -> LatencyTrial {
        let m = &self.model;
        let jitter = |rng: &mut SimRng, mean: f64| -> f64 {
            mean * rng.log_normal(1.0, m.jitter_sigma).clamp(0.6, 1.8)
        };
        // Network appears twice: click upstream, frame downstream.
        let network_ms = self.viewer_path.rtt_ms; // one-way up + one-way down
        let total_ms = jitter(rng, m.browser_send_ms)
            + network_ms / 2.0
            + jitter(rng, m.backend_ms)
            + jitter(rng, m.adb_inject_ms)
            + jitter(rng, m.app_render_ms)
            + jitter(rng, m.capture_encode_ms)
            + jitter(rng, m.restream_ms)
            + network_ms / 2.0
            + jitter(rng, m.browser_paint_ms);
        LatencyTrial {
            total: SimDuration::from_secs_f64(total_ms / 1e3),
        }
    }

    /// Run the paper's protocol: `n` trials, return per-trial results and
    /// the summary (mean ± std in seconds).
    pub fn run_trials(&self, n: usize, rng: &mut SimRng) -> (Vec<LatencyTrial>, Summary) {
        assert!(n > 0);
        let trials: Vec<LatencyTrial> = (0..n).map(|_| self.trial(rng)).collect();
        let secs: Vec<f64> = trials.iter().map(|t| t.total.as_secs_f64()).collect();
        let summary = Summary::of(&secs);
        (trials, summary)
    }
}

/// A co-located viewer (the paper's measurement setup: 1 ms RTT).
pub fn colocated_path() -> LinkProfile {
    LinkProfile::new(900.0, 900.0, 1.0, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocated_latency_matches_section_4_2() {
        let probe = LatencyProbe::new(colocated_path());
        let mut rng = SimRng::new(42).derive("latency");
        let (trials, summary) = probe.run_trials(40, &mut rng);
        assert_eq!(trials.len(), 40);
        assert!(
            (1.30..1.60).contains(&summary.mean),
            "mean {:.3} s, paper reports 1.44 s",
            summary.mean
        );
        assert!(
            (0.04..0.25).contains(&summary.std_dev),
            "std {:.3} s, paper reports 0.12 s",
            summary.std_dev
        );
    }

    #[test]
    fn remote_viewer_pays_network_rtt() {
        let mut rng_a = SimRng::new(1).derive("lat");
        let mut rng_b = SimRng::new(1).derive("lat");
        let local = LatencyProbe::new(colocated_path())
            .run_trials(20, &mut rng_a)
            .1;
        let remote_path = LinkProfile::new(50.0, 50.0, 300.0, 0.0);
        let remote = LatencyProbe::new(remote_path).run_trials(20, &mut rng_b).1;
        let delta = remote.mean - local.mean;
        assert!(
            (0.25..0.35).contains(&delta),
            "300 ms RTT should add ≈0.3 s, added {delta:.3}"
        );
    }

    #[test]
    fn trials_vary_but_deterministically() {
        let probe = LatencyProbe::new(colocated_path());
        let mut rng = SimRng::new(9).derive("lat");
        let (trials, summary) = probe.run_trials(10, &mut rng);
        assert!(summary.std_dev > 0.0, "trials must differ");
        let mut rng2 = SimRng::new(9).derive("lat");
        let (trials2, _) = probe.run_trials(10, &mut rng2);
        for (a, b) in trials.iter().zip(trials2.iter()) {
            assert_eq!(a.total, b.total);
        }
    }

    #[test]
    fn faster_model_reduces_latency() {
        let fast_model = LatencyModel {
            app_render_ms: 50.0,
            browser_paint_ms: 50.0,
            ..Default::default()
        };
        let mut rng_a = SimRng::new(2).derive("lat");
        let mut rng_b = SimRng::new(2).derive("lat");
        let default = LatencyProbe::new(colocated_path())
            .run_trials(20, &mut rng_a)
            .1;
        let fast = LatencyProbe::with_model(colocated_path(), fast_model)
            .run_trials(20, &mut rng_b)
            .1;
        assert!(fast.mean < default.mean - 0.5);
    }
}
