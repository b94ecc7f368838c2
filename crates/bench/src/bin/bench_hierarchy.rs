//! The 64k-rank crossover study: flat SRUMMA vs hierarchical vs
//! hierarchical + replicated.
//!
//! Models a weak-scaling sweep (`n = 64·√P`, so per-rank tile work is
//! constant) on the Linux + Myrinet cluster profile widened to 8-way
//! SMP nodes, at 1k / 4k / 16k / 64k ranks. Every configuration runs
//! on the per-rank virtual-clock backend (`virtual_run`): `P` LogGP
//! clocks multiplexed onto a small host worker pool, which is what
//! makes the 64k point feasible at all — the discrete-event simulator
//! schedules rank threads one at a time and cannot go there.
//!
//! Three schedules per rank count:
//!
//! * **flat** — the paper's SRUMMA: every rank fetches its own panels;
//! * **hier** — two-level node-group staging (`srumma_hier`): one
//!   elected fetcher per group per shared off-node panel;
//! * **hier+repl** — the same staging inside `c = 4` replica teams
//!   (`srumma_replicated` with stage sets), each sweeping a quarter of `k`.
//!
//! Headline metrics per point: LogGP-modeled makespan and total
//! inter-node bytes (plus intra-group bytes for the staged runs).
//!
//! **Hard gate** (exit 1): the hierarchical schedule must move
//! *strictly fewer* inter-node bytes than flat at every swept rank
//! count ≥ 4096. The model is deterministic — a violation is an
//! algorithm or cost-model regression, never noise.
//!
//! Emits `results/BENCH_hierarchy.json`; `bench_diff` gates the
//! `internode_bytes_*` keys (registered lower-is-better) at warn level
//! in CI.
//!
//! Usage: `cargo run --release -p srumma-bench --bin bench_hierarchy
//! [-- --quick] [-- --smoke] [-- --out PATH] [-- --workers W]`
//! (`--quick`: 1k/4k only; `--smoke`: the CI configuration, 4k only.)

use srumma_bench::{print_table, write_bench_json};
use srumma_core::request::{Backend, Multiply};
use srumma_core::{Algorithm, GemmSpec, ReplicationFactor, SrummaOptions};
use srumma_model::machine::RanksPerDomain;
use srumma_model::Machine;
use srumma_trace::bench_report_json;
use srumma_trace::json::JsonObject;

struct Config {
    quick: bool,
    smoke: bool,
    out: Option<String>,
    workers: Option<usize>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        quick: false,
        smoke: false,
        out: None,
        workers: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--smoke" => cfg.smoke = true,
            "--out" => cfg.out = args.next(),
            "--workers" => cfg.workers = args.next().and_then(|v| v.parse().ok()),
            other => {
                eprintln!(
                    "unknown arg {other:?} (expected --quick, --smoke, --out PATH, --workers W)"
                );
                std::process::exit(2);
            }
        }
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    let rank_counts: &[usize] = if cfg.smoke {
        &[4096]
    } else if cfg.quick {
        &[1024, 4096]
    } else {
        &[1024, 4096, 16384, 65536]
    };
    let workers = cfg.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    // 8-way SMP nodes on the Myrinet cluster profile: wide enough that
    // a node covers only part of a 2^k-square grid row, so shared
    // off-node A demand exists at every swept rank count.
    let machine = {
        let mut m = Machine::linux_myrinet();
        m.ranks_per_domain = RanksPerDomain::Fixed(8);
        m
    };
    let opts = SrummaOptions::default();
    let repl = ReplicationFactor::Fixed(4);

    let mut metrics = JsonObject::new();
    metrics.num("ranks_per_node", 8.0);
    metrics.num("replication_factor", 4.0);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut gate_ok = true;
    for &p in rank_counts {
        // Weak scaling: constant per-rank tile volume.
        let n = 64 * (p as f64).sqrt() as usize;
        let spec = GemmSpec::square(n).with_scalars(1.0, 0.0);

        let virt = Backend::Virtual {
            machine: &machine,
            workers,
        };
        let request = Multiply::modeled(Algorithm::Srumma(opts), spec);
        let run = |request: Multiply| request.run(p, &virt).expect("a valid modeled request");
        let flat = run(request.clone()).stats;
        eprintln!(
            "p={p} n={n} flat: makespan {:.3}s, internode {} B",
            flat.makespan,
            flat.total_internode_bytes()
        );
        let hier = run(request.clone().hier()).stats;
        eprintln!(
            "p={p} n={n} hier: makespan {:.3}s, internode {} B",
            hier.makespan,
            hier.total_internode_bytes()
        );
        let out = run(request.hier().replicated(repl));
        let (hr, c) = (out.stats, out.replication);
        eprintln!(
            "p={p} n={n} hier+repl(c={c}): makespan {:.3}s, internode {} B",
            hr.makespan,
            hr.total_internode_bytes()
        );

        metrics.num(&format!("n_p{p}"), n as f64);
        metrics.num(&format!("makespan_flat_p{p}"), flat.makespan);
        metrics.num(&format!("makespan_hier_p{p}"), hier.makespan);
        metrics.num(&format!("makespan_hier_repl_p{p}"), hr.makespan);
        metrics.num(
            &format!("internode_bytes_flat_p{p}"),
            flat.total_internode_bytes() as f64,
        );
        metrics.num(
            &format!("internode_bytes_hier_p{p}"),
            hier.total_internode_bytes() as f64,
        );
        metrics.num(
            &format!("internode_bytes_hier_repl_p{p}"),
            hr.total_internode_bytes() as f64,
        );
        metrics.num(
            &format!("intragroup_bytes_hier_p{p}"),
            hier.total_intragroup_bytes() as f64,
        );

        rows.push(vec![
            p.to_string(),
            n.to_string(),
            format!("{:.3}", flat.makespan),
            format!("{:.3}", hier.makespan),
            format!("{:.3}", hr.makespan),
            flat.total_internode_bytes().to_string(),
            hier.total_internode_bytes().to_string(),
            hr.total_internode_bytes().to_string(),
        ]);

        if p >= 4096 && hier.total_internode_bytes() >= flat.total_internode_bytes() {
            eprintln!(
                "HIERARCHY GATE VIOLATED at p={p}: hier internode {} B >= flat {} B",
                hier.total_internode_bytes(),
                flat.total_internode_bytes()
            );
            gate_ok = false;
        }
    }

    print_table(
        "flat vs hierarchical vs hierarchical+replicated (weak scaling n=64·√P, \
         Linux+Myrinet, 8 ranks/node, c=4)",
        &[
            "ranks",
            "n",
            "flat s",
            "hier s",
            "h+r s",
            "flat inter-B",
            "hier inter-B",
            "h+r inter-B",
        ],
        &rows,
    );

    let report = bench_report_json("hierarchy", "virtual", "[]", &metrics.finish());
    match &cfg.out {
        Some(path) => match std::fs::write(path, &report) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        },
        None => write_bench_json("hierarchy", &report),
    }
    if !gate_ok {
        std::process::exit(1);
    }
}
