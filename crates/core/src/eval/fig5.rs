//! Figure 5: CDF of CPU utilisation **at the controller** (Raspberry Pi
//! 3B+) during the Chrome experiments, with and without mirroring.
//!
//! Shape requirements: without mirroring the controller sits at a
//! constant ≈25 % (Monsoon polling at the highest frequency); with
//! mirroring the median rises to ≈75 % and ≈10 % of samples exceed 95 %.

use batterylab_net::Region;
use batterylab_stats::Cdf;
use batterylab_workloads::BrowserProfile;

use crate::eval::common::{measured_browser_run, EvalConfig};
use crate::eval::par;
use crate::platform::Platform;

/// One CDF line.
pub struct Fig5Line {
    /// Mirroring active?
    pub mirroring: bool,
    /// Controller CPU samples (fraction 0–1, 1 Hz).
    pub cpu: Cdf,
}

/// The figure's data.
pub struct Fig5 {
    /// Two lines: plain and mirroring.
    pub lines: Vec<Fig5Line>,
}

impl Fig5 {
    /// Look up a line.
    pub fn line(&self, mirroring: bool) -> &Fig5Line {
        self.lines
            .iter()
            .find(|l| l.mirroring == mirroring)
            .expect("line exists")
    }

    /// Render quantiles.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 5: CDF of CPU utilisation at the controller (Pi 3B+)\n");
        out.push_str(&format!(
            "{:<16} {:>8} {:>8} {:>8} {:>10}\n",
            "line", "p25", "p50", "p90", "P(>95%)"
        ));
        for l in &self.lines {
            out.push_str(&format!(
                "{:<16} {:>7.1}% {:>7.1}% {:>7.1}% {:>9.1}%\n",
                if l.mirroring {
                    "mirroring"
                } else {
                    "no-mirroring"
                },
                l.cpu.quantile(0.25) * 100.0,
                l.cpu.median() * 100.0,
                l.cpu.quantile(0.90) * 100.0,
                l.cpu.fraction_above(0.95) * 100.0,
            ));
        }
        out
    }
}

/// Run Figure 5: Chrome workload; sample the controller CPU at 1 Hz over
/// the measurement window.
///
/// The two lines are independent runs on fresh platforms — seeds derive
/// from `(config.seed, run index)` — so they fan out across
/// `config.jobs` workers and merge back in legend order.
pub fn run(config: &EvalConfig) -> Fig5 {
    let lines = par::run_ordered(
        config.effective_jobs(),
        &[false, true],
        |index, &mirroring| {
            let mut platform = Platform::paper_testbed(par::run_seed(config.seed, "fig5", index));
            let serial = platform.j7_serial().to_string();
            let vp = platform.node1();
            // Keep mirroring alive while we sample the controller: arm it
            // before the measured run and leave it on for the sampling pass.
            if mirroring {
                vp.device_mirroring(&serial).expect("mirroring starts");
            }
            let report = measured_browser_run(
                vp,
                &serial,
                BrowserProfile::chrome(),
                Region::Local,
                mirroring,
                config,
            );
            let (from, to) = report.window;
            let samples = vp
                .controller_cpu_samples(&serial, from, to, 1.0)
                .expect("device attached");
            if mirroring {
                vp.device_mirroring(&serial).expect("mirroring stops");
            }
            Fig5Line {
                mirroring,
                cpu: Cdf::from_samples(&samples),
            }
        },
    );
    Fig5 { lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5() -> Fig5 {
        run(&EvalConfig::quick(17))
    }

    #[test]
    fn no_mirroring_is_constant_quarter() {
        let f = fig5();
        let cdf = &f.line(false).cpu;
        assert!(
            (0.18..0.33).contains(&cdf.median()),
            "median {}",
            cdf.median()
        );
        // "Constant": tight distribution.
        let spread = cdf.quantile(0.9) - cdf.quantile(0.1);
        assert!(spread < 0.12, "no-mirroring spread {spread}");
    }

    #[test]
    fn mirroring_median_and_tail_match_paper() {
        // One quick run holds ~27 one-second samples, so its P(>95%)
        // moves in steps of ~3.7 % and reads 0 at some seeds. Pool the
        // line over fixed seeds (~350 samples) for a stable tail.
        let pooled: Vec<f64> = (1..=12)
            .chain([17])
            .flat_map(|seed| {
                let f = run(&EvalConfig::quick(seed));
                f.line(true).cpu.sorted_samples().to_vec()
            })
            .collect();
        let cdf = Cdf::from_samples(&pooled);
        let median = cdf.median();
        assert!(
            (0.55..0.92).contains(&median),
            "median {median}, paper ≈0.75"
        );
        let above95 = cdf.fraction_above(0.95);
        assert!(
            (0.01..0.35).contains(&above95),
            "P(>95%) = {above95}, paper ≈0.10"
        );
    }

    #[test]
    fn mirroring_roughly_doubles_load() {
        let f = fig5();
        let plain = f.line(false).cpu.mean();
        let mirrored = f.line(true).cpu.mean();
        // §4.2: "higher CPU utilisation is the main extra cost caused by
        // device mirroring (extra 50 %, on average)".
        let extra = mirrored - plain;
        assert!((0.3..0.8).contains(&extra), "extra controller CPU {extra}");
    }

    #[test]
    fn render_mentions_both_lines() {
        let text = fig5().render();
        assert!(text.contains("no-mirroring"));
        assert!(text.contains("mirroring"));
    }
}
