//! Export evaluation results as plot-ready data.
//!
//! Each figure exports the exact series a plotting script needs: CDFs as
//! `(x, P)` point files, bar charts as `(label, mean, std)` rows —
//! CSV for gnuplot/matplotlib, JSON for everything else. This is the
//! "logs available within the job's workspace" (§3.1) story applied to
//! the evaluation itself.

use batterylab_stats::{Cdf, Summary};
use serde::{Serialize, Value};

use crate::eval::{fig2, fig3, fig4, fig5, fig6, table2};

/// Points on a CDF curve, ready for a line plot.
#[derive(Debug)]
pub struct CdfSeries {
    /// Legend label.
    pub label: String,
    /// `(value, cumulative probability)` pairs.
    pub points: Vec<(f64, f64)>,
}

/// One bar of a bar chart.
#[derive(Debug)]
pub struct Bar {
    /// Group (x-axis category).
    pub group: String,
    /// Series within the group.
    pub series: String,
    /// Height.
    pub mean: f64,
    /// Error bar.
    pub std_dev: f64,
}

/// How many points to sample per CDF curve.
const CDF_POINTS: usize = 101;

fn cdf_series(label: &str, cdf: &Cdf) -> CdfSeries {
    CdfSeries {
        label: label.to_string(),
        points: cdf.curve(CDF_POINTS),
    }
}

fn bar(group: &str, series: &str, s: &Summary) -> Bar {
    Bar {
        group: group.to_string(),
        series: series.to_string(),
        mean: s.mean,
        std_dev: s.std_dev,
    }
}

/// Figure 2 as CDF series.
pub fn fig2_series(f: &fig2::Fig2) -> Vec<CdfSeries> {
    f.scenarios
        .iter()
        .map(|(scenario, cdf)| cdf_series(scenario.label(), cdf))
        .collect()
}

/// Figure 3 as bars.
pub fn fig3_bars(f: &fig3::Fig3) -> Vec<Bar> {
    f.bars
        .iter()
        .map(|b| {
            bar(
                &b.browser,
                if b.mirroring { "mirroring" } else { "plain" },
                &b.discharge_mah,
            )
        })
        .collect()
}

/// Figure 4 as CDF series.
pub fn fig4_series(f: &fig4::Fig4) -> Vec<CdfSeries> {
    f.lines
        .iter()
        .map(|l| {
            cdf_series(
                &format!("{}{}", l.browser, if l.mirroring { "+mirror" } else { "" }),
                &l.cpu,
            )
        })
        .collect()
}

/// Figure 5 as CDF series.
pub fn fig5_series(f: &fig5::Fig5) -> Vec<CdfSeries> {
    f.lines
        .iter()
        .map(|l| {
            cdf_series(
                if l.mirroring {
                    "mirroring"
                } else {
                    "no-mirroring"
                },
                &l.cpu,
            )
        })
        .collect()
}

/// Figure 6 as bars (grouped by location).
pub fn fig6_bars(f: &fig6::Fig6) -> Vec<Bar> {
    f.bars
        .iter()
        .map(|b| bar(b.location.country(), &b.browser, &b.discharge_mah))
        .collect()
}

/// Table 2 as JSON-ready rows.
#[derive(Debug)]
pub struct Table2Row {
    /// Country label.
    pub location: String,
    /// Server city.
    pub server: String,
    /// km to the server.
    pub server_km: f64,
    /// Download Mbps.
    pub down_mbps: f64,
    /// Upload Mbps.
    pub up_mbps: f64,
    /// RTT ms.
    pub latency_ms: f64,
}

impl Serialize for Table2Row {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("location".to_string(), self.location.to_value()),
            ("server".to_string(), self.server.to_value()),
            ("server_km".to_string(), self.server_km.to_value()),
            ("down_mbps".to_string(), self.down_mbps.to_value()),
            ("up_mbps".to_string(), self.up_mbps.to_value()),
            ("latency_ms".to_string(), self.latency_ms.to_value()),
        ])
    }
}

/// Table 2 rows.
pub fn table2_rows(t: &table2::Table2) -> Vec<Table2Row> {
    t.rows
        .iter()
        .map(|(loc, r)| Table2Row {
            location: loc.country().to_string(),
            server: r.server.clone(),
            server_km: r.server_km,
            down_mbps: r.down_mbps,
            up_mbps: r.up_mbps,
            latency_ms: r.latency_ms,
        })
        .collect()
}

/// Render CDF series as CSV: `label,x,p` rows.
pub fn cdf_series_csv(series: &[CdfSeries]) -> String {
    let mut out = String::from("label,value,probability\n");
    for s in series {
        for (x, p) in &s.points {
            out.push_str(&format!("{},{x},{p}\n", s.label));
        }
    }
    out
}

/// Render bars as CSV: `group,series,mean,std` rows.
pub fn bars_csv(bars: &[Bar]) -> String {
    let mut out = String::from("group,series,mean,std_dev\n");
    for b in bars {
        out.push_str(&format!(
            "{},{},{},{}\n",
            b.group, b.series, b.mean, b.std_dev
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalConfig;

    fn config() -> EvalConfig {
        EvalConfig {
            fig2_duration_s: 10.0,
            ..EvalConfig::quick(901)
        }
    }

    #[test]
    fn fig2_exports_four_monotonic_curves() {
        let series = fig2_series(&fig2::run(&config()));
        assert_eq!(series.len(), 4);
        for s in &series {
            assert_eq!(s.points.len(), 101);
            for w in s.points.windows(2) {
                assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1, "{}", s.label);
            }
            assert_eq!(s.points[0].1, 0.0);
            assert_eq!(s.points[100].1, 1.0);
        }
    }

    #[test]
    fn fig3_exports_eight_bars() {
        let bars = fig3_bars(&fig3::run(&config()));
        assert_eq!(bars.len(), 8); // 4 browsers × 2 modes
        assert!(bars.iter().all(|b| b.mean > 0.0));
    }

    #[test]
    fn csv_shapes() {
        let t2 = table2_rows(&table2::run(&config()));
        assert_eq!(t2.len(), 5);
        let json = serde_json::to_string(&t2).unwrap();
        assert!(json.contains("Johannesburg"));

        let bars = vec![Bar {
            group: "Japan".into(),
            series: "Chrome".into(),
            mean: 8.0,
            std_dev: 0.1,
        }];
        let csv = bars_csv(&bars);
        assert!(csv.starts_with("group,series,mean,std_dev\n"));
        assert!(csv.contains("Japan,Chrome,8,0.1"));
    }

    #[test]
    fn table2_json_layout_is_pinned() {
        let rows = vec![Table2Row {
            location: "Japan".into(),
            server: "Tokyo".into(),
            server_km: 12.5,
            down_mbps: 95.0,
            up_mbps: 40.25,
            latency_ms: 8.0,
        }];
        let expected = r#"[
  {
    "location": "Japan",
    "server": "Tokyo",
    "server_km": 12.5,
    "down_mbps": 95.0,
    "up_mbps": 40.25,
    "latency_ms": 8.0
  }
]"#;
        assert_eq!(serde_json::to_string_pretty(&rows).unwrap(), expected);
    }

    #[test]
    fn cdf_csv_has_header_and_rows() {
        let series = vec![CdfSeries {
            label: "direct".into(),
            points: vec![(100.0, 0.0), (200.0, 1.0)],
        }];
        let csv = cdf_series_csv(&series);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "direct,100,0");
    }
}
