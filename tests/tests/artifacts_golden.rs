//! Committed artifacts match the code: rendering the paper-scale
//! `eval all` reproduces `eval_output.txt` byte for byte below its
//! header line (which names the worker count), and every measured block
//! EXPERIMENTS.md quotes is verbatim from that file. A change that moves
//! any figure fails here until the file is regenerated with
//!
//! ```sh
//! cargo run --release -p batterylab-bench --bin eval -- --jobs 1 all > eval_output.txt
//! ```
//!
//! and EXPERIMENTS.md's blocks and shape tables are updated to match.

use batterylab::eval::{fig2, fig3, fig4, fig5, fig6, sysperf, table2, EvalConfig};

#[test]
fn eval_output_matches_paper_scale_eval_all() {
    // Output is byte-identical at any worker count, so use every core.
    let config = EvalConfig::default().with_jobs(0);
    // The `eval` binary prints each target's rendering followed by a
    // blank line, in the order `all` expands to.
    let rendered: String = [
        fig2::run(&config).render(),
        fig3::run(&config).render(),
        fig4::run(&config).render(),
        fig5::run(&config).render(),
        table2::run(&config).render(),
        fig6::run(&config).render(),
        sysperf::run(&config).render(),
    ]
    .iter()
    .map(|text| format!("{text}\n"))
    .collect();

    let committed = include_str!("../../eval_output.txt");
    let (header, body) = committed
        .split_once('\n')
        .expect("eval_output.txt has a header line");
    assert!(
        header.starts_with("# BatteryLab evaluation | seed=20191113 | paper-scale"),
        "unexpected header: {header}"
    );
    let body = body
        .strip_prefix('\n')
        .expect("blank line after the header");
    if body != rendered {
        let (line, (want, got)) = body
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (want, got))| want != got)
            .unwrap_or((0, ("<length differs>", "")));
        panic!(
            "eval_output.txt is stale at body line {}:\n  committed: {want}\n  code:      {got}\n\
             regenerate it with `eval --jobs 1 all` and update EXPERIMENTS.md",
            line + 1
        );
    }
}

#[test]
fn experiments_md_quotes_eval_output_verbatim() {
    // Every untagged fenced block of EXPERIMENTS.md is measured output and
    // must appear in eval_output.txt as contiguous lines; tagged blocks
    // (```sh) are commands.
    let experiments = include_str!("../../EXPERIMENTS.md");
    let output: Vec<&str> = include_str!("../../eval_output.txt").lines().collect();
    let mut lines = experiments.lines();
    let mut quoted = 0;
    while let Some(fence) = lines.next() {
        let Some(tag) = fence.strip_prefix("```") else {
            continue;
        };
        let block: Vec<&str> = lines.by_ref().take_while(|l| *l != "```").collect();
        if !tag.is_empty() {
            continue;
        }
        quoted += 1;
        assert!(
            !block.is_empty() && output.windows(block.len()).any(|w| w == block),
            "EXPERIMENTS.md block starting `{}` is not in eval_output.txt; \
             copy it from the regenerated file",
            block.first().unwrap_or(&"")
        );
    }
    assert_eq!(quoted, 7, "one measured block per figure, table and §4.2");
}
