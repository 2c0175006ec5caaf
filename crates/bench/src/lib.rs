//! # leime-bench
//!
//! Experiment harness regenerating every table and figure of the LEIME
//! paper's evaluation (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results).
//!
//! Each figure has its own binary (`cargo run --release -p leime-bench
//! --bin fig7_network`); this library holds the shared testbed presets and
//! table-printing helpers.

use std::path::PathBuf;

pub mod perf;

use leime::{ModelKind, Scenario};
use leime_offload::DeviceParams;
use leime_telemetry::Registry;

/// The paper's testbed fleet: 4 Raspberry Pi 3B+ and 2 Jetson Nano behind
/// WiFi, an i7-3770 edge, a V100 cloud (§IV-A, Fig. 5).
pub fn paper_testbed(model: ModelKind, arrival_mean: f64) -> Scenario {
    let mut s = Scenario::raspberry_pi_cluster(model, 4, arrival_mean);
    s.devices.push(DeviceParams::jetson_nano(arrival_mean));
    s.devices.push(DeviceParams::jetson_nano(arrival_mean));
    s
}

/// A single-device scenario (the per-device measurements of Figs. 7–9).
pub fn single_device(model: ModelKind, nano: bool, arrival_mean: f64) -> Scenario {
    if nano {
        Scenario::jetson_nano_cluster(model, 1, arrival_mean)
    } else {
        Scenario::raspberry_pi_cluster(model, 1, arrival_mean)
    }
}

/// Parses a `--json <path>` flag from the process arguments, if present.
///
/// Every experiment binary accepts this flag; when given, the binary dumps
/// its telemetry registry snapshot (schema `leime-telemetry/1`) to `path`
/// after printing its tables.
///
/// Exits with status 2 (a usage error, not a panic) if `--json` is passed
/// without a following path.
pub fn json_out_path() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let Some(path) = args.next() else {
                eprintln!("--json requires a <path> argument");
                std::process::exit(2);
            };
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Serialises `registry`'s snapshot as pretty-printed JSON to `path`.
///
/// Exits with status 1 if serialisation or the file write fails: the
/// experiment's whole purpose is producing this artefact, so failure
/// must be loud — but it is an I/O failure, not a bug, so no panic.
pub fn write_telemetry(registry: &Registry, path: &std::path::Path) {
    let snapshot = registry.snapshot();
    let json = match serde_json::to_string_pretty(&snapshot) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("telemetry snapshot failed to serialise: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("telemetry written to {}", path.display());
}

/// Renders an aligned text table: a header row plus data rows.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Shorthand for building a header row from string literals.
pub fn header(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|s| s.to_string()).collect()
}

/// Formats seconds as adaptive ms/s text.
pub fn fmt_time(seconds: f64) -> String {
    if !seconds.is_finite() {
        "inf".to_string()
    } else if seconds < 1.0 {
        format!("{:.1}ms", seconds * 1e3)
    } else {
        format!("{seconds:.3}s")
    }
}

/// Formats a speedup multiplier.
pub fn fmt_speedup(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}x")
    } else {
        "inf".to_string()
    }
}

/// Renders a unicode sparkline for a value series (8 block heights),
/// scaled to the series' own min–max range; flat series render mid-blocks.
///
/// ```
/// let s = leime_bench::sparkline(&[0.0, 1.0, 2.0, 3.0]);
/// assert_eq!(s.chars().count(), 4);
/// ```
// The `hi - lo < EPSILON` width test is a flat-series check, not equality.
#[allow(clippy::float_equality_without_abs, reason = "flat-series test")]
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                '?'
            } else if hi - lo < f64::EPSILON {
                BLOCKS[3]
            } else {
                let idx = ((v - lo) / (hi - lo) * 7.0).round() as usize;
                BLOCKS[idx.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[1.0, 2.0, 3.0, 2.0, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 5);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[2], '█');
        assert_eq!(chars[0], chars[4]);
    }

    #[test]
    fn sparkline_flat_and_empty() {
        assert_eq!(sparkline(&[]), "");
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        assert!(flat.chars().all(|c| c == '▄'));
        assert!(sparkline(&[1.0, f64::INFINITY]).contains('?'));
    }

    #[test]
    fn table_alignment() {
        let t = render_table(
            &header(&["a", "long-col"]),
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-col"));
        assert!(lines[2].ends_with("2"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn table_rejects_ragged_rows() {
        render_table(&header(&["a"]), &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(0.0123), "12.3ms");
        assert_eq!(fmt_time(2.5), "2.500s");
        assert_eq!(fmt_time(f64::INFINITY), "inf");
        assert_eq!(fmt_speedup(4.417), "4.42x");
    }

    #[test]
    fn testbed_has_six_devices() {
        let s = paper_testbed(ModelKind::InceptionV3, 5.0);
        assert_eq!(s.devices.len(), 6);
        assert!(s.devices[4].flops > s.devices[0].flops);
        assert!(s.validate().is_ok());
    }
}
