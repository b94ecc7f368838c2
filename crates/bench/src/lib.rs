//! # srumma-bench — experiment harness support
//!
//! Shared plumbing for the per-figure binaries in `src/bin/`: aligned
//! table printing, CSV output (under `results/`), and the measurement
//! helpers every figure uses (SRUMMA GFLOP/s, block-size-tuned
//! SUMMA/pdgemm GFLOP/s — the paper chose "optimum block sizes …
//! empirically for all matrix sizes and processor counts", so the
//! harness does the same sweep).

use srumma_core::driver::{measure_gflops, measure_modeled};
use srumma_core::{Algorithm, GemmSpec, SrummaOptions, SummaOptions};
use srumma_model::Machine;
use srumma_sim::RunStats;
use std::io::Write;

pub mod timing;

/// Write a JSON report under `<results_dir>/BENCH_<name>.json` (the
/// unified trace + metrics document the figure harnesses emit). The
/// directory is the repo's `results/` — or `SRUMMA_RESULTS_DIR` —
/// regardless of the cwd the binary was launched from
/// (`srumma_trace::results_dir`).
pub fn write_bench_json(name: &str, json: &str) {
    let Ok(dir) = srumma_trace::ensure_results_dir() else {
        return;
    };
    let path = dir.join(format!("BENCH_{name}.json"));
    if std::fs::write(&path, json).is_ok() {
        eprintln!("wrote {}", path.display());
    }
}

/// Print an aligned text table (paper-style).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Write the same table as CSV under `<results_dir>/<name>.csv`.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let Ok(dir) = srumma_trace::ensure_results_dir() else {
        return;
    };
    let path = dir.join(format!("{name}.csv"));
    let Ok(mut f) = std::fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(f, "{}", headers.join(","));
    for row in rows {
        let _ = writeln!(f, "{}", row.join(","));
    }
    eprintln!("wrote {}", path.display());
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// SRUMMA GFLOP/s with default (paper) options, modeled at scale.
pub fn srumma_gflops(machine: &Machine, nranks: usize, spec: &GemmSpec) -> f64 {
    measure_gflops(machine, nranks, &Algorithm::srumma_default(), spec)
}

/// SRUMMA run stats (for overlap and byte accounting).
pub fn srumma_stats(machine: &Machine, nranks: usize, spec: &GemmSpec) -> RunStats {
    measure_modeled(machine, nranks, &Algorithm::srumma_default(), spec)
}

/// SRUMMA with explicit options.
pub fn srumma_gflops_opts(
    machine: &Machine,
    nranks: usize,
    spec: &GemmSpec,
    opts: SrummaOptions,
) -> f64 {
    measure_gflops(machine, nranks, &Algorithm::Srumma(opts), spec)
}

/// The pdgemm stand-in: SUMMA with the empirically best panel width
/// from a small sweep (as the paper tuned ScaLAPACK's block size).
pub fn pdgemm_gflops(machine: &Machine, nranks: usize, spec: &GemmSpec) -> f64 {
    pdgemm_best(machine, nranks, spec).0
}

/// Best (GFLOP/s, panel width) over the sweep. `None` width = natural
/// block panels.
pub fn pdgemm_best(machine: &Machine, nranks: usize, spec: &GemmSpec) -> (f64, Option<usize>) {
    let mut best = (0.0f64, None);
    for nb in [None, Some(64), Some(128), Some(256)] {
        // Skip panel widths wider than the problem.
        if let Some(w) = nb {
            if w * 2 > spec.k {
                continue;
            }
        }
        let g = measure_gflops(
            machine,
            nranks,
            &Algorithm::Summa(SummaOptions {
                panel_nb: nb,
                ..Default::default()
            }),
            spec,
        );
        if g > best.0 {
            best = (g, nb);
        }
    }
    best
}

/// Cannon's algorithm GFLOP/s (square grids only).
pub fn cannon_gflops(machine: &Machine, nranks: usize, spec: &GemmSpec) -> f64 {
    measure_gflops(machine, nranks, &Algorithm::Cannon, spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_precision_bands() {
        assert_eq!(fmt(384.2), "384");
        assert_eq!(fmt(33.91), "33.9");
        assert_eq!(fmt(6.4), "6.40");
    }

    #[test]
    fn srumma_measurement_is_positive_and_bounded() {
        let m = Machine::linux_myrinet();
        let spec = GemmSpec::square(600);
        let g = srumma_gflops(&m, 4, &spec);
        // Cannot exceed 4 processors' peak.
        assert!(g > 0.0 && g < 4.0 * m.cpu.peak_flops / 1e9);
    }

    #[test]
    fn pdgemm_sweep_returns_a_candidate() {
        let m = Machine::linux_myrinet();
        let spec = GemmSpec::square(600);
        let (g, _nb) = pdgemm_best(&m, 4, &spec);
        assert!(g > 0.0);
    }
}
