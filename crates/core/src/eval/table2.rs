//! Table 2: ProtonVPN tunnel characterisation — download/upload bandwidth
//! and latency measured by SpeedTest against the nearest server, for the
//! five emulated locations.

use batterylab_net::{table2_row, LinkProfile, SpeedtestResult, VpnLocation};
use batterylab_sim::SimRng;

use crate::eval::common::EvalConfig;

/// The table's data.
pub struct Table2 {
    /// One row per location, in the paper's order.
    pub rows: Vec<(VpnLocation, SpeedtestResult)>,
}

impl Table2 {
    /// Row for a location.
    pub fn row(&self, loc: VpnLocation) -> &SpeedtestResult {
        &self
            .rows
            .iter()
            .find(|(l, _)| *l == loc)
            .expect("all locations present")
            .1
    }

    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::from("Table 2: ProtonVPN statistics. D=down/U=up/L=RTT\n");
        out.push_str(&format!(
            "{:<14} {:<20} {:>9} {:>9} {:>9}\n",
            "Location", "Speedtest server (km)", "D (Mbps)", "U (Mbps)", "L (ms)"
        ));
        for (loc, r) in &self.rows {
            out.push_str(&format!(
                "{:<14} {:<20} {:>9.2} {:>9.2} {:>9.2}\n",
                loc.country(),
                format!("{} ({:.2})", r.server, r.server_km),
                r.down_mbps,
                r.up_mbps,
                r.latency_ms,
            ));
        }
        out
    }
}

/// Run the Table 2 measurement through the vantage point's uplink.
///
/// Each location's RNG stream derives from the parent seed, so the five
/// rows are independent measurements. Together they take about 10 µs,
/// less than starting one worker thread, so they run in a plain loop on
/// the calling thread whatever `config.jobs` says.
pub fn run(config: &EvalConfig) -> Table2 {
    let rng = SimRng::new(config.seed).derive("table2");
    Table2 {
        rows: VpnLocation::ALL
            .into_iter()
            .map(|loc| (loc, table2_row(LinkProfile::campus_uplink(), loc, &rng)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2() -> Table2 {
        run(&EvalConfig::quick(23))
    }

    #[test]
    fn five_rows_in_paper_order() {
        let t = t2();
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0].0, VpnLocation::SouthAfrica);
        assert_eq!(t.rows[4].0, VpnLocation::California);
    }

    #[test]
    fn values_near_paper() {
        let t = t2();
        // Paper: SA 6.26/9.77/222.04; CA 10.63/14.87/215.16.
        let sa = t.row(VpnLocation::SouthAfrica);
        assert!(
            (sa.down_mbps - 6.26).abs() < 1.0,
            "SA down {}",
            sa.down_mbps
        );
        assert!(
            (sa.latency_ms - 222.0).abs() < 20.0,
            "SA lat {}",
            sa.latency_ms
        );
        let ca = t.row(VpnLocation::California);
        assert!(
            (ca.down_mbps - 10.63).abs() < 1.5,
            "CA down {}",
            ca.down_mbps
        );
        assert!(ca.up_mbps > 12.0, "CA up {}", ca.up_mbps);
    }

    #[test]
    fn ascending_download_order() {
        let t = t2();
        for w in t.rows.windows(2) {
            assert!(w[1].1.down_mbps > w[0].1.down_mbps * 0.95);
        }
    }

    #[test]
    fn render_has_all_countries() {
        let text = t2().render();
        for loc in VpnLocation::ALL {
            assert!(text.contains(loc.country()));
        }
    }
}
