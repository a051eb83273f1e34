//! The evaluation harness: one module per table/figure of the paper's §4,
//! each running the corresponding experiment end to end on the simulated
//! platform and rendering the same rows/series the paper reports.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig2`] | Fig. 2 — current CDF: direct/relay × mirroring |
//! | [`fig3`] | Fig. 3 — per-browser discharge (through the job queue) |
//! | [`fig4`] | Fig. 4 — device CPU CDF, Brave vs Chrome × mirroring |
//! | [`fig5`] | Fig. 5 — controller CPU CDF × mirroring |
//! | [`table2`] | Table 2 — VPN speedtest characterisation |
//! | [`fig6`] | Fig. 6 — Brave/Chrome energy across VPN locations |
//! | [`sysperf`] | §4.2 prose — CPU/mem/upload/latency numbers |

//!
//! Every figure enumerates its independent runs as descriptors and
//! executes them through [`par::run_ordered`], so `EvalConfig::jobs`
//! scales wall-clock without changing a byte of output. Table 2's five
//! runs take about 10 µs together, less than starting a worker, so they
//! run in a plain loop.

pub mod common;
pub mod export;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod par;
pub mod sysperf;
pub mod table2;

pub use common::EvalConfig;

use std::io;
use std::path::Path;

/// Every target, in the order `eval all` runs and prints them.
pub const ALL_TARGETS: [&str; 7] = ["fig2", "fig3", "fig4", "fig5", "table2", "fig6", "sysperf"];

/// Run one target of [`ALL_TARGETS`] and return its rendering. With
/// `out`, the target's plot-ready CSV/JSON series are also written into
/// that directory (Fig. 3 adds the sweep's deterministic
/// `platform_metrics.json`); without it, no export is built.
///
/// # Panics
///
/// On a `name` outside [`ALL_TARGETS`].
pub fn run_target(name: &str, config: &EvalConfig, out: Option<&Path>) -> io::Result<String> {
    let write = |file: &str, content: &dyn Fn() -> String| -> io::Result<()> {
        let Some(dir) = out else { return Ok(()) };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file);
        std::fs::write(&path, content())?;
        eprintln!("wrote {}", path.display());
        Ok(())
    };
    Ok(match name {
        "fig2" => {
            let f = fig2::run(config);
            write("fig2_cdf.csv", &|| {
                export::cdf_series_csv(&export::fig2_series(&f))
            })?;
            f.render()
        }
        "fig3" => {
            let f = fig3::run(config);
            write("fig3_bars.csv", &|| {
                export::bars_csv(&export::fig3_bars(&f))
            })?;
            write("platform_metrics.json", &|| f.metrics.to_json())?;
            f.render()
        }
        "fig4" => {
            let f = fig4::run(config);
            write("fig4_cdf.csv", &|| {
                export::cdf_series_csv(&export::fig4_series(&f))
            })?;
            f.render()
        }
        "fig5" => {
            let f = fig5::run(config);
            write("fig5_cdf.csv", &|| {
                export::cdf_series_csv(&export::fig5_series(&f))
            })?;
            f.render()
        }
        "table2" => {
            let t = table2::run(config);
            write("table2.json", &|| {
                serde_json::to_string_pretty(&export::table2_rows(&t)).expect("serialise")
            })?;
            t.render()
        }
        "fig6" => {
            let f = fig6::run(config);
            write("fig6_bars.csv", &|| {
                export::bars_csv(&export::fig6_bars(&f))
            })?;
            f.render()
        }
        "sysperf" => sysperf::run(config).render(),
        other => panic!("unknown eval target {other:?}"),
    })
}
