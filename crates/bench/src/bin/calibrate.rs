//! Calibration probe: check the machine profiles against the paper's
//! anchor points (DESIGN.md §6), sweep the host's gemm cache-block
//! sizes (`--blocks`), compare the micro-kernel flavors and pack
//! layouts (`--kernels`), find the Strassen recursion cutoff
//! (`--strassen`), probe the work-stealing executor's worker count and
//! prefetch depth (`--workers`), find the batched-driver amortization
//! crossover and best slot-ring window (`--batch`), and probe
//! node-group sizes / replication factors for the hierarchical driver
//! (`--topology`, which also writes `topology_profile.json`).
//!
//! Every probe flag merge-updates the persisted host profile
//! (`<results_dir>/host_profile.json`, see `srumma_core::tune`), which
//! `SrummaOptions::from_profile` loads to resolve the `Auto` knobs;
//! `--all` runs every probe and writes the whole profile in one go.
//! `--list-kernels` prints the kernels available on this host one per
//! line (the `scripts/ci.sh` flavor loop consumes it). Not a figure —
//! a development tool.

use srumma_bench::{fmt, pdgemm_best, srumma_gflops, srumma_stats};
use srumma_core::batch::{multiply_batch_exec, BatchEntry, BatchSpec};
use srumma_core::driver::{multiply_exec, multiply_threads};
use srumma_core::memory::replicated_arena_footprint;
use srumma_core::repl::admissible_factor;
use srumma_core::request::{Backend, Multiply};
use srumma_core::{Algorithm, GemmSpec, HostProfile, ReplicationFactor, SrummaOptions};
use srumma_dense::blocked::{blocked_gemm_ws, BlockSizes, STRASSEN_MIN_CUTOFF};
use srumma_dense::kernel::host_kernel_summary;
use srumma_dense::{active_kernel, dgemm_ws, GemmWorkspace, Matrix, Microkernel, Op, PackLayout};
use srumma_model::{Machine, Topology};
use srumma_trace::json::JsonObject;
use std::time::Instant;

/// Probe candidate `MC/KC/NC` block sizes on this host: time a
/// representative SRUMMA task-block multiply under each candidate and
/// report GFLOP/s, so the [`BlockSizes`] default can be retuned from
/// evidence instead of guesswork. Returns the winner as a partial
/// profile.
fn probe_block_sizes() -> HostProfile {
    let n = 384; // between the 256/500 task-block sizes, exceeds MC/NC
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut c = Matrix::zeros(n, n);
    let flops = 2.0 * (n as f64).powi(3);
    println!(
        "block-size probe on this host (kernel {}, n={n}):",
        active_kernel().name()
    );
    let mut best = (0.0f64, BlockSizes::default());
    for &mc in &[32usize, 64, 128] {
        for &kc in &[128usize, 256, 512] {
            for &nc in &[256usize, 512, 1024] {
                let blocks = BlockSizes::new(mc, kc, nc);
                let mut ws = GemmWorkspace::with_blocks(blocks);
                let mut run = |c: &mut Matrix| {
                    blocked_gemm_ws(
                        Op::N,
                        Op::N,
                        1.0,
                        a.as_ref(),
                        b.as_ref(),
                        0.0,
                        c.as_mut(),
                        &mut ws,
                    )
                };
                run(&mut c); // warm-up sizes the workspace
                let mut min = f64::INFINITY;
                for _ in 0..3 {
                    let t = Instant::now();
                    run(&mut c);
                    min = min.min(t.elapsed().as_secs_f64());
                }
                let gf = flops / min / 1e9;
                println!("  mc={mc:<4} kc={kc:<4} nc={nc:<5} {:>6} GFLOP/s", fmt(gf));
                if gf > best.0 {
                    best = (gf, blocks);
                }
            }
        }
    }
    println!(
        "best: mc={} kc={} nc={} at {} GFLOP/s (defaults mc={} kc={} nc={})",
        best.1.mc,
        best.1.kc,
        best.1.nc,
        fmt(best.0),
        BlockSizes::default().mc,
        BlockSizes::default().kc,
        BlockSizes::default().nc,
    );
    HostProfile {
        blocks: Some(best.1),
        ..HostProfile::new()
    }
}

/// Probe the micro-kernel flavors on this host: GFLOP/s of every
/// available kernel at SRUMMA task-block sizes, under both pack
/// layouts, so the `SRUMMA_KERNEL` / `SRUMMA_LAYOUT` defaults for a
/// deployment come from evidence instead of ISA folklore (a one-FMA-
/// port AVX-512 host can genuinely prefer the AVX2 kernel).
fn probe_kernels() -> HostProfile {
    println!(
        "micro-kernel probe on this host ({})",
        host_kernel_summary()
    );
    // Profile winner: best GFLOP/s at the largest probed size (the
    // most representative of real task blocks).
    let mut overall = (0.0f64, active_kernel(), PackLayout::Linear);
    for &n in &[128usize, 256, 500] {
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let mut c = Matrix::zeros(n, n);
        let flops = 2.0 * (n as f64).powi(3);
        println!("n={n}:");
        let mut best = (0.0f64, "", PackLayout::Linear);
        for &kernel in Microkernel::all() {
            if !kernel.available() {
                println!("  {:<8} (unavailable on this host)", kernel.name());
                continue;
            }
            for layout in [PackLayout::Linear, PackLayout::ZOrder] {
                let mut ws = GemmWorkspace::with_kernel(kernel).with_layout(layout);
                let mut run = |c: &mut Matrix| {
                    blocked_gemm_ws(
                        Op::N,
                        Op::N,
                        1.0,
                        a.as_ref(),
                        b.as_ref(),
                        0.0,
                        c.as_mut(),
                        &mut ws,
                    )
                };
                run(&mut c); // warm-up sizes the workspace
                let mut min = f64::INFINITY;
                for _ in 0..3 {
                    let t = Instant::now();
                    run(&mut c);
                    min = min.min(t.elapsed().as_secs_f64());
                }
                let gf = flops / min / 1e9;
                println!(
                    "  {:<8} layout={:<7} {:>7} GFLOP/s",
                    kernel.name(),
                    layout.name(),
                    fmt(gf)
                );
                if gf > best.0 {
                    best = (gf, kernel.name(), layout);
                }
                if n == 500 && gf > overall.0 {
                    overall = (gf, kernel, layout);
                }
            }
        }
        println!(
            "  best: {} / {} at {} GFLOP/s",
            best.1,
            best.2.name(),
            fmt(best.0)
        );
    }
    HostProfile {
        kernel: Some(overall.1),
        layout: Some(overall.2),
        ..HostProfile::new()
    }
}

/// Probe the Strassen cutoff on this host: time a large square multiply
/// blocked-only and Strassen-routed at a range of cutoffs, and report
/// the break-even point — the value a deployment should feed
/// `SRUMMA_STRASSEN` (or leave it off if no cutoff wins).
fn probe_strassen() -> HostProfile {
    let n = 1024;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut c = Matrix::zeros(n, n);
    let flops = 2.0 * (n as f64).powi(3);
    let kernel = active_kernel();
    println!("strassen cutoff probe (kernel {}, n={n}):", kernel.name());

    let mut time_with = |cutoff: Option<usize>| {
        let mut ws = GemmWorkspace::with_kernel(kernel).with_strassen(cutoff);
        let mut run = |c: &mut Matrix| {
            dgemm_ws(
                Op::N,
                Op::N,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
                &mut ws,
            )
        };
        run(&mut c); // warm-up sizes workspace and arena
        let mut min = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            run(&mut c);
            min = min.min(t.elapsed().as_secs_f64());
        }
        min
    };

    let base = time_with(None);
    println!(
        "  blocked only          {:>7} GFLOP/s",
        fmt(flops / base / 1e9)
    );
    let mut best: Option<(usize, f64)> = None;
    let mut cutoff = n / 2;
    while cutoff >= STRASSEN_MIN_CUTOFF.max(64) {
        let t = time_with(Some(cutoff));
        let levels = srumma_dense::strassen::strassen_levels(n, n, n, cutoff);
        println!(
            "  cutoff={cutoff:<5} levels={levels} {:>7} GFLOP/s ({:+.1}% vs blocked)",
            fmt(flops / t / 1e9),
            (base / t - 1.0) * 100.0
        );
        if t < base && best.is_none_or(|(_, bt)| t < bt) {
            best = Some((cutoff, t));
        }
        cutoff /= 2;
    }
    match best {
        Some((cutoff, t)) => println!(
            "break-even: SRUMMA_STRASSEN={cutoff} wins ({:.1}% over blocked) on this host",
            (base / t - 1.0) * 100.0
        ),
        None => println!("break-even: none — leave SRUMMA_STRASSEN off on this host"),
    }
    HostProfile {
        // Probed either way: `Some(None)` records "recursion loses
        // here" so a stale win in an old profile gets overwritten.
        strassen: Some(best.map(|(cutoff, _)| cutoff)),
        ..HostProfile::new()
    }
}

/// Probe executor worker counts on this host: run an oversubscribed
/// SRUMMA multiply (64 logical ranks) on pools of 1..8 workers and
/// report wall time, occupancy and steal rate, so deployments can pick
/// a ranks-per-worker ratio from evidence instead of guesswork. A
/// second sweep at the winning pool size probes the prefetch depth.
fn probe_workers() -> HostProfile {
    let nranks = 64;
    let spec = GemmSpec::square(256);
    let a = Matrix::random(spec.m, spec.k, 1);
    let b = Matrix::random(spec.k, spec.n, 2);
    let alg = Algorithm::srumma_default();
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "executor worker probe ({nranks} SRUMMA ranks, n={}, host cores {host}):",
        spec.m
    );
    let mut best = (f64::INFINITY, 0usize);
    for &workers in &[1usize, 2, 4, 8] {
        let _ = multiply_exec(nranks, workers, &alg, &spec, &a, &b); // warm-up
        let mut min = f64::INFINITY;
        let mut occ = 0.0;
        let mut steal = 0.0;
        for _ in 0..3 {
            let (_, res) = multiply_exec(nranks, workers, &alg, &spec, &a, &b);
            if res.wall_seconds < min {
                min = res.wall_seconds;
                let e = res.stats.exec.expect("executor stats present");
                occ = e.occupancy();
                steal = e.steal_rate();
            }
        }
        println!(
            "  workers={workers:<2} {:>8.2} ms  occupancy {:>5} steal rate {:>5}  ({} ranks/worker)",
            min * 1e3,
            fmt(occ),
            fmt(steal),
            nranks / workers
        );
        if min < best.0 {
            best = (min, workers);
        }
    }
    println!(
        "best: {} workers ({} ranks/worker) at {:.2} ms",
        best.1,
        nranks / best.1,
        best.0 * 1e3
    );

    // Prefetch-depth sweep at the winning pool size.
    println!("prefetch-depth probe at workers={}:", best.1);
    let mut best_depth = (f64::INFINITY, 1usize);
    for &depth in &[1usize, 2, 4] {
        let opts = SrummaOptions {
            prefetch_depth: depth,
            ..SrummaOptions::default()
        };
        let alg = Algorithm::Srumma(opts);
        let _ = multiply_exec(nranks, best.1, &alg, &spec, &a, &b); // warm-up
        let mut min = f64::INFINITY;
        for _ in 0..3 {
            let (_, res) = multiply_exec(nranks, best.1, &alg, &spec, &a, &b);
            min = min.min(res.wall_seconds);
        }
        println!("  depth={depth:<2} {:>8.2} ms", min * 1e3);
        if min < best_depth.0 {
            best_depth = (min, depth);
        }
    }
    println!("best: prefetch depth {}", best_depth.1);
    HostProfile {
        workers: Some(best.1),
        prefetch_depth: Some(best_depth.1),
        ..HostProfile::new()
    }
}

/// Probe the batched driver's amortization crossover on this host: run
/// streams of B small multiplies as a loop of standalone `multiply_exec`
/// calls and as one `multiply_batch_exec`, and report the smallest B
/// where the batched path wins — the point past which callers with a
/// stream of tiles should switch to `BatchSpec`. A second sweep at the
/// longest stream probes the slot-ring window.
fn probe_batch() -> HostProfile {
    let (nranks, n) = (16usize, 64usize);
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8);
    let alg = Algorithm::srumma_default();
    println!(
        "batched-driver probe ({nranks} ranks on {workers} workers, {n}x{n} tiles, best of 3):"
    );
    let mut crossover: Option<usize> = None;
    for &b in &[1usize, 2, 4, 8, 16, 32] {
        let mut batch = BatchSpec::new();
        for e in 0..b {
            let spec = GemmSpec::square(n);
            let a = Matrix::random(n, n, 500 + 2 * e as u64);
            let bm = Matrix::random(n, n, 501 + 2 * e as u64);
            batch.push(BatchEntry::new(spec, a, bm));
        }
        // Warm both paths, then take best-of-3 wall clock around each.
        for e in &batch.entries {
            let _ = multiply_exec(nranks, workers, &alg, &e.spec, &e.a, &e.b);
        }
        let _ = multiply_batch_exec(&batch, nranks, workers);
        let mut t_loop = f64::INFINITY;
        let mut t_batched = f64::INFINITY;
        let mut overlap = 0.0;
        for _ in 0..3 {
            let t0 = Instant::now();
            for e in &batch.entries {
                let _ = multiply_exec(nranks, workers, &alg, &e.spec, &e.a, &e.b);
            }
            t_loop = t_loop.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let res = multiply_batch_exec(&batch, nranks, workers);
            let t = t0.elapsed().as_secs_f64();
            if t < t_batched {
                t_batched = t;
                overlap = res.stats.inter_entry_overlap();
            }
        }
        let speedup = t_loop / t_batched;
        if speedup > 1.0 && crossover.is_none() {
            crossover = Some(b);
        }
        println!(
            "  batch={b:<3} loop {:>8.2} ms  batched {:>8.2} ms  ({speedup:.2}x, overlap {})",
            t_loop * 1e3,
            t_batched * 1e3,
            fmt(overlap)
        );
    }
    match crossover {
        Some(b) => println!("crossover: batched wins from batch size {b} on this host"),
        None => println!("crossover: batched never won up to batch size 32 on this host"),
    }

    // Window sweep on a 16-entry stream: how much look-ahead (and
    // therefore slot-ring memory) actually pays on this host.
    let mut batch = BatchSpec::new();
    for e in 0..16 {
        let spec = GemmSpec::square(n);
        let a = Matrix::random(n, n, 700 + 2 * e as u64);
        let bm = Matrix::random(n, n, 701 + 2 * e as u64);
        batch.push(BatchEntry::new(spec, a, bm));
    }
    println!("slot-ring window probe (16 entries, {n}x{n} tiles, best of 3):");
    let mut best_window = (f64::INFINITY, 3usize);
    for &w in &[1usize, 2, 3, 4, 6, 8] {
        let wb = batch.clone().with_window(w);
        let _ = multiply_batch_exec(&wb, nranks, workers); // warm-up
        let mut min = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            let _ = multiply_batch_exec(&wb, nranks, workers);
            min = min.min(t0.elapsed().as_secs_f64());
        }
        println!("  window={w:<2} {:>8.2} ms", min * 1e3);
        if min < best_window.0 {
            best_window = (min, w);
        }
    }
    println!("best: window {}", best_window.1);
    HostProfile {
        batch_window: Some(best_window.1),
        ..HostProfile::new()
    }
}

/// Probe node-group sizes and replication factors on this host: run
/// the flat, hierarchical and replicated thread-backend requests over
/// the admissible `ranks_per_node` / `c` values at a fixed rank count,
/// report wall times and the crossover (best group size, best factor), and write
/// the result as a small JSON profile to
/// `<results_dir>/topology_profile.json` so deployments can feed the
/// measured winners back into `SrummaOptions` instead of guessing.
///
/// Host threads are real but the "network" between node groups is
/// shared memory, so the hierarchical schedule pays its staging copies
/// without banking the inter-node savings — on most hosts flat wins
/// and the profile records *by how much*, which is exactly the
/// overhead a real cluster run must amortize.
fn probe_topology() -> HostProfile {
    let nranks = 16usize;
    let spec = GemmSpec::square(512);
    let a = Matrix::random(spec.m, spec.k, 1);
    let b = Matrix::random(spec.k, spec.n, 2);
    let opts = SrummaOptions::default();
    let alg = Algorithm::srumma_default();
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "topology probe ({nranks} ranks on host threads, n={}, best of 3):",
        spec.m
    );

    let mut profile = JsonObject::new();
    profile.num("nranks", nranks as f64);
    profile.num("n", spec.m as f64);
    profile.num("host_cores", host as f64);

    let best_of_3 = |run: &mut dyn FnMut()| {
        run(); // warm-up
        let mut min = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            run();
            min = min.min(t.elapsed().as_secs_f64());
        }
        min
    };

    let flat = best_of_3(&mut || {
        let _ = multiply_threads(nranks, &alg, &spec, &a, &b);
    });
    println!("  flat                  {:>8.2} ms", flat * 1e3);
    profile.num("flat_seconds", flat);

    // Group-size sweep: every divisor of nranks, from "every rank its
    // own node" (no staging possible) to "one node = whole machine"
    // (nothing is off-node). The interesting crossover lives between.
    let mut best_group = (f64::INFINITY, 1usize);
    for rpn in (1..=nranks).filter(|w| nranks.is_multiple_of(*w)) {
        let hier = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b).hier();
        let nodes = Backend::Threads {
            ranks_per_node: Some(rpn),
        };
        let t = best_of_3(&mut || {
            let _ = hier.run(nranks, &nodes);
        });
        println!(
            "  hier  rpn={rpn:<3}        {:>8.2} ms ({:+.1}% vs flat)",
            t * 1e3,
            (t / flat - 1.0) * 100.0
        );
        profile.num(&format!("hier_seconds_rpn{rpn}"), t);
        if t < best_group.0 {
            best_group = (t, rpn);
        }
    }
    profile.num("best_ranks_per_node", best_group.1 as f64);

    // Replication sweep at the winning group size: admissible factors
    // only, with the per-rank arena cost alongside the time so the
    // profile captures the memory side of the trade too.
    let topo = Topology::new(nranks, best_group.1);
    let mut best_c = (f64::INFINITY, 1usize, 0u64);
    for c in (1..=nranks).filter(|&c| admissible_factor(nranks, topo, spec.k, c)) {
        let arena = replicated_arena_footprint(&spec, nranks, c, &opts).buffer_bytes;
        let repl = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b)
            .replicated(ReplicationFactor::Fixed(c));
        let nodes = Backend::Threads {
            ranks_per_node: Some(best_group.1),
        };
        let t = best_of_3(&mut || {
            let _ = repl.run(nranks, &nodes);
        });
        println!(
            "  repl  c={c:<3} rpn={:<3}  {:>8.2} ms ({:+.1}% vs flat, arena {} B/rank)",
            best_group.1,
            t * 1e3,
            (t / flat - 1.0) * 100.0,
            arena
        );
        profile.num(&format!("repl_seconds_c{c}"), t);
        profile.num(&format!("repl_arena_bytes_c{c}"), arena as f64);
        if t < best_c.0 {
            best_c = (t, c, arena as u64);
        }
    }
    profile.num("best_replication_factor", best_c.1 as f64);

    println!(
        "crossover: rpn={} ({:+.1}% vs flat), c={} ({:+.1}% vs flat) on this host",
        best_group.1,
        (best_group.0 / flat - 1.0) * 100.0,
        best_c.1,
        (best_c.0 / flat - 1.0) * 100.0
    );
    match srumma_trace::ensure_results_dir().and_then(|dir| {
        let path = dir.join("topology_profile.json");
        std::fs::write(&path, profile.finish() + "\n")?;
        Ok(path)
    }) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write topology_profile.json: {e}");
            std::process::exit(1);
        }
    }
    HostProfile {
        ranks_per_node: Some(best_group.1),
        // Budget the replication arena at the measured winner: Auto will
        // then pick the largest admissible c that fits what this host
        // demonstrably benefited from.
        replication_budget_bytes: Some(best_c.2),
        ..HostProfile::new()
    }
}

fn main() {
    if std::env::args().any(|a| a == "--list-kernels") {
        // Machine-readable: one available kernel env-name per line
        // (consumed by the scripts/ci.sh per-flavor test loop).
        for kernel in Microkernel::all() {
            if kernel.available() {
                println!("{}", kernel.env_name());
            }
        }
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);
    // Probe order is deliberate: the kernel/layout winner is baked into
    // the process-global gemm state, so it runs first and the remaining
    // probes measure the host as the profile will configure it.
    type Probe = (&'static str, fn() -> HostProfile);
    let probes: Vec<Probe> = vec![
        ("--kernels", probe_kernels),
        ("--blocks", probe_block_sizes),
        ("--strassen", probe_strassen),
        ("--workers", probe_workers),
        ("--batch", probe_batch),
        ("--topology", probe_topology),
    ];
    if probes.iter().any(|(flag, _)| want(flag)) {
        // Merge-update: each probe yields a partial profile; fields it
        // did not measure stay whatever a previous calibration wrote.
        let mut profile = HostProfile::load_default().unwrap_or_else(|_| HostProfile::new());
        for (flag, probe) in probes {
            if want(flag) {
                profile.merge(&probe());
            }
        }
        match profile.save_default() {
            Ok(()) => println!("wrote {}", HostProfile::default_path().display()),
            Err(e) => {
                eprintln!("failed to write host profile: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let t0 = std::time::Instant::now();
    let anchors: Vec<(&str, Machine, usize, usize, f64, f64)> = vec![
        // name, machine, P, N, paper SRUMMA, paper pdgemm
        (
            "Altix  N=1000 P=128",
            Machine::sgi_altix(),
            128,
            1000,
            f64::NAN,
            f64::NAN,
        ),
        (
            "Altix  N=4000 P=128",
            Machine::sgi_altix(),
            128,
            4000,
            384.0,
            33.9,
        ),
        (
            "X1     N=2000 P=128",
            Machine::cray_x1(),
            128,
            2000,
            922.0,
            128.0,
        ),
        (
            "Linux  N=12000 P=128",
            Machine::linux_myrinet(),
            128,
            12000,
            323.2,
            138.6,
        ),
        (
            "SP     N=8000 P=256",
            Machine::ibm_sp(),
            256,
            8000,
            223.0,
            186.0,
        ),
        (
            "Altix  N=8000 P=128",
            Machine::sgi_altix(),
            128,
            8000,
            f64::NAN,
            96.0,
        ),
        (
            "X1     N=8000 P=?64",
            Machine::cray_x1(),
            64,
            8000,
            f64::NAN,
            243.0,
        ),
    ];
    for (name, machine, p, n, paper_s, paper_p) in anchors {
        let spec = GemmSpec::square(n);
        let s = srumma_gflops(&machine, p, &spec);
        let (pd, nb) = pdgemm_best(&machine, p, &spec);
        let stats = srumma_stats(&machine, p, &spec);
        let ov = stats.mean_overlap().map(|o| o * 100.0).unwrap_or(0.0);
        println!(
            "{name}: SRUMMA {} (paper {paper_s}), pdgemm {} nb={nb:?} (paper {paper_p}), ratio {:.1} (paper {:.1}), overlap {ov:.0}%",
            fmt(s), fmt(pd), s / pd, paper_s / paper_p
        );
    }
    eprintln!("elapsed: {:?}", t0.elapsed());
}
