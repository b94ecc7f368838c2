//! The four workloads and the pieces they share: output verification,
//! the decomposed (traced) drivers and the dense-layer microbenchmarks.

pub mod papersim;
pub mod scf;
pub mod small;
pub mod stream;

use crate::tally::Tally;
use srumma::comm::{exec_run_tasks, thread_run_traced, Comm, DistMatrix};
use srumma::core::driver::{default_grid, serial_reference};
use srumma::core::layout::{dist_a, dist_b, dist_c, scatter_operands};
use srumma::core::{parallel_gemm, SrummaOptions, SrummaRankTask};
use srumma::dense::{dgemm_ws, GemmWorkspace, Op};
use srumma::sim::RunStats;
use srumma::{Algorithm, GemmSpec, Matrix};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metric values by name; names absent here report 0 (the
/// workload does not pass through that layer).
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload: a seeded set of inputs and a closed loop of calls
/// into one public entry point.
pub trait Workload {
    type Out;
    /// Ranks of the parallel run, and worker threads where the pool
    /// size differs from the rank count.
    fn pool(&self) -> (usize, Option<usize>);
    /// Calls of the untimed warm-up that ends set-up.
    fn warmup_calls(&self) -> usize {
        1
    }
    /// Distinct inputs the calls cycle through.
    fn distinct_inputs(&self) -> usize;
    /// Operations call `i` completes.
    fn ops(&self, i: usize) -> u64;
    /// Useful flops of call `i`.
    fn flops(&self, i: usize) -> f64;
    /// Call `i` through the public entry point, tracing off.
    fn call(&mut self, i: usize) -> Self::Out;
    /// Verify call `i`'s output; returns the operations that failed.
    fn check(&mut self, i: usize, out: Self::Out) -> u64;
    /// Call `i` rebuilt from the public pieces its driver is made of,
    /// with benchmark-side spans and the program's counters in `t`.
    fn traced_call(&mut self, i: usize, t: &mut Tally) -> Self::Out;
    /// Per-layer metrics from the traced calls, the untraced call
    /// times `(i, seconds)` and microbenchmarks run within `budget_s`.
    fn layers(&mut self, t: &Tally, untraced: &[(usize, f64)], budget_s: f64) -> Layers;
    /// In-pool rows of the time table: (counter, label).
    fn pool_rows(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("pool.compute", "compute (rank-s)"),
            ("pool.wait", "wait on gets (rank-s)"),
            ("pool.barrier", "barrier/fence (rank-s)"),
        ]
    }
}

/// Bitwise equality (NaN-safe, distinguishes ±0).
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn amax(m: &Matrix) -> f64 {
    m.as_slice().iter().fold(0.0f64, |acc, x| acc.max(x.abs()))
}

/// Forward-error tolerance of a length-`k` dot product of entries
/// bounded by `amax`, `bmax`: `16·ε·k · (k·amax·bmax)`.
fn tolerance(k: usize, amax: f64, bmax: f64) -> f64 {
    16.0 * f64::EPSILON * k as f64 * (k as f64 * amax * bmax).max(1.0)
}

/// `got` agrees with `expect` within the tolerance of `C = A·B`.
pub fn close(got: &Matrix, expect: &Matrix, k: usize, a: &Matrix, b: &Matrix) -> bool {
    got.rows() == expect.rows()
        && got.cols() == expect.cols()
        && srumma::max_abs_diff(got, expect) <= tolerance(k, amax(a), amax(b))
}

/// First results per distinct input, the oracle for repeats: the first
/// is checked against the serial reference, each repeat bitwise.
#[derive(Default)]
pub struct FirstResults {
    seen: BTreeMap<usize, (Matrix, bool)>,
}

impl FirstResults {
    /// Check `got` for input `key`; `reference` runs only the first time.
    pub fn check(
        &mut self,
        key: usize,
        got: &Matrix,
        reference: impl FnOnce(&Matrix) -> bool,
    ) -> bool {
        match self.seen.get(&key) {
            Some((first, ok)) => *ok && same_bits(first, got),
            None => {
                let ok = reference(got);
                self.seen.insert(key, (got.clone(), ok));
                ok
            }
        }
    }
}

/// `C = A·B` against `serial_reference` on the logical operands.
pub fn reference_ok(spec: &GemmSpec, a: &Matrix, b: &Matrix, got: &Matrix) -> bool {
    close(got, &serial_reference(spec, a, b), spec.k, a, b)
}

/// Shape of one SRUMMA task on the default grid: the rank's C block
/// and one merged k-segment, with the spec's storage orientation.
pub fn task_shape(spec: &GemmSpec, nranks: usize) -> (Op, Op, usize, usize, usize) {
    let g = default_grid(nranks);
    (
        spec.transa,
        spec.transb,
        spec.m.div_ceil(g.p),
        spec.n.div_ceil(g.q),
        spec.k.div_ceil(g.p.max(g.q)),
    )
}

/// Bytes the standalone drivers copy outside the pool, computed from
/// the shapes: the transposed temporaries of `T` operands, the scatter
/// of A and B and the gather of C.
pub fn layout_bytes(spec: &GemmSpec) -> f64 {
    let (mk, kn, mn) = (
        (spec.m * spec.k) as f64,
        (spec.k * spec.n) as f64,
        (spec.m * spec.n) as f64,
    );
    let transposed =
        if spec.transa == Op::T { mk } else { 0.0 } + if spec.transb == Op::T { kn } else { 0.0 };
    8.0 * (mk + kn + mn + transposed)
}

fn gemm_seconds(
    (ta, tb, a, b, c): &mut (Op, Op, Matrix, Matrix, Matrix),
    reps: usize,
    ws: &mut GemmWorkspace,
) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        dgemm_ws(*ta, *tb, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), ws);
        std::hint::black_box(&c);
    }
    t.elapsed().as_secs_f64()
}

/// Median single-thread GFLOP/s of `dgemm_ws` with one reused
/// workspace over rounds of `shapes` (`(opA, opB, m, n, k)`), run until
/// `budget_s` is spent (at least three rounds). Small shapes repeat
/// within a round so one round does at least 10 MFLOP.
pub fn dgemm_gflops(shapes: &[(Op, Op, usize, usize, usize)], budget_s: f64) -> f64 {
    let mut ws = GemmWorkspace::new();
    let mut cases: Vec<(Op, Op, Matrix, Matrix, Matrix)> = shapes
        .iter()
        .enumerate()
        .map(|(s, &(ta, tb, m, n, k))| {
            let (ar, ac) = if ta == Op::N { (m, k) } else { (k, m) };
            let (br, bc) = if tb == Op::N { (k, n) } else { (n, k) };
            let a = Matrix::random(ar, ac, 2 * s as u64 + 1);
            let b = Matrix::random(br, bc, 2 * s as u64 + 2);
            (ta, tb, a, b, Matrix::zeros(m, n))
        })
        .collect();
    let flops: f64 = shapes
        .iter()
        .map(|&(_, _, m, n, k)| 2.0 * (m * n * k) as f64)
        .sum();
    let reps = (1e7 / flops).ceil().max(1.0) as usize;
    let mut round = || -> f64 {
        cases
            .iter_mut()
            .map(|c| gemm_seconds(c, reps, &mut ws))
            .sum()
    };
    // The first round grows the workspace and first-touches C.
    round();
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        rates.push(reps as f64 * flops / round() / 1e9);
    }
    crate::stats::median(&rates)
}

/// Add the counters of one pool run to `t`: in-pool rank-seconds, bytes
/// fetched, tasks, overlap and the executor's scheduling counts.
pub fn add_run_stats(t: &mut Tally, stats: &RunStats) {
    let sum = |f: fn(&srumma::trace::RankStats) -> f64| stats.ranks.iter().map(f).sum::<f64>();
    t.add("pool.compute", sum(|r| r.compute_time));
    t.add("pool.wait", sum(|r| r.wait_time));
    t.add("pool.barrier", sum(|r| r.barrier_time));
    t.add("bytes_fetched", stats.total_fetched_bytes() as f64);
    t.add("tasks", stats.total_tasks() as f64);
    t.add("task_skew", stats.task_skew());
    if let Some(o) = stats.mean_overlap() {
        t.add("overlap", o);
        t.add("overlap_runs", 1.0);
    }
    if let Some(e) = &stats.exec {
        t.add("exec.parks", e.parks as f64);
        t.add("exec.worker_parks", e.worker_parks as f64);
        t.add("exec.steals", e.steals as f64);
        t.add("exec.occupancy", e.occupancy());
    }
}

/// What a pool run reports: its own wall seconds, statistics and, where
/// the program returns them, workspace growths.
type PoolRun = (f64, RunStats, Option<u64>);

/// A standalone driver rebuilt from its public pieces, each under a
/// span: allocate and scatter the operands, `run` the pool (`names` are
/// the in-pool and spawn/join phases), gather C and free the layout.
fn traced_standalone(
    t: &mut Tally,
    nranks: usize,
    spec: &GemmSpec,
    (a, b): (&Matrix, &Matrix),
    names: [&'static str; 2],
    run: impl FnOnce(&DistMatrix, &DistMatrix, &DistMatrix) -> PoolRun,
) -> Matrix {
    let start = Instant::now();
    let grid = default_grid(nranks);
    let (da, db, dc) = t.span("layout.dist_a/b/c (alloc)", || {
        (
            dist_a(spec, grid, true),
            dist_b(spec, grid, true),
            dist_c(spec, grid, true),
        )
    });
    t.span("layout.scatter_operands", || {
        scatter_operands(spec, &da, &db, a, b)
    });
    let pool = Instant::now();
    let (wall, stats, grows) = run(&da, &db, &dc);
    let pool_s = pool.elapsed().as_secs_f64();
    t.add_span(names[0], wall);
    t.add_span(names[1], pool_s - wall);
    t.add("pool.capacity", nranks as f64 * wall);
    t.add("dense.ws_grows", grows.unwrap_or(0) as f64);
    add_run_stats(t, &stats);
    let c = t.span("DistMatrix::gather", || dc.gather());
    t.span("drop distributed matrices", || drop((da, db, dc)));
    t.end_call(start.elapsed().as_secs_f64(), 1);
    c
}

/// Phase names of the pool call, in-pool and around it.
const THREAD_PHASES: [&str; 2] = ["thread_run(parallel_gemm) in-pool", "thread_run spawn/join"];
const EXEC_PHASES: [&str; 2] = [
    "exec_run_tasks(SrummaRankTask) in-pool",
    "exec_run_tasks spawn/join",
];

/// `multiply_threads`, rebuilt with spans; `thread_run_traced` gives the
/// in-pool split and each rank returns its workspace growths.
pub fn traced_threads(
    t: &mut Tally,
    nranks: usize,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> Matrix {
    let alg = Algorithm::srumma_default();
    traced_standalone(t, nranks, spec, (a, b), THREAD_PHASES, |da, db, dc| {
        let res = thread_run_traced(nranks, |comm| {
            parallel_gemm(comm, &alg, spec, da, db, dc);
            comm.ws_grow_count()
        });
        (res.wall_seconds, res.stats, Some(res.outputs.iter().sum()))
    })
}

/// `multiply_exec` (SRUMMA), rebuilt with spans on a traced executor.
/// Its rank tasks own their communicators, so workspace growths are not
/// reported on this path.
pub fn traced_exec(
    t: &mut Tally,
    nranks: usize,
    workers: usize,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> Matrix {
    let opts = SrummaOptions::default();
    traced_standalone(t, nranks, spec, (a, b), EXEC_PHASES, |da, db, dc| {
        let res = exec_run_tasks(nranks, workers, true, |comm| {
            Box::new(SrummaRankTask::new(comm, spec, da, db, dc, &opts))
        });
        (res.wall_seconds, res.stats, None)
    })
}

/// GFLOP/s of the untraced calls `(i, seconds)` of a traced run.
pub fn caller_gflops(untraced: &[(usize, f64)], flops: impl Fn(usize) -> f64) -> f64 {
    let secs: f64 = untraced.iter().map(|&(_, s)| s).sum();
    untraced.iter().map(|&(i, _)| flops(i)).sum::<f64>() / secs / 1e9
}

/// The dense-layer rates a real-data workload measured.
pub struct Dense {
    pub kernel_gflops: f64,
    pub serial_gflops: f64,
}

/// Layers every real-data workload reports: the dense rates, the pool's
/// counters per call, the computed bytes its layout copies and the
/// parallel efficiency of the untraced calls.
pub fn pool_layers(
    t: &Tally,
    nranks: usize,
    caller_gflops: f64,
    dense: Dense,
    bytes_copied: f64,
    pool_overhead_s: f64,
) -> Layers {
    let mut l = Layers::new();
    l.insert("dense.kernel_gflops", dense.kernel_gflops);
    l.insert("dense.serial_gflops", dense.serial_gflops);
    l.insert("layout.bytes_copied", bytes_copied);
    l.insert("comm.pool_overhead_s", pool_overhead_s);
    l.insert("comm.wait_s", t.per_call("pool.wait"));
    l.insert("comm.barrier_s", t.per_call("pool.barrier"));
    l.insert("srumma.compute_s", t.per_call("pool.compute"));
    for (key, counter) in [
        ("dense.ws_grows", "dense.ws_grows"),
        ("comm.bytes_fetched", "bytes_fetched"),
        ("srumma.tasks", "tasks"),
        ("srumma.task_skew", "task_skew"),
        ("exec.parks", "exec.parks"),
        ("exec.worker_parks", "exec.worker_parks"),
        ("exec.steals", "exec.steals"),
        ("exec.occupancy", "exec.occupancy"),
    ] {
        l.insert(key, t.per_call(counter));
    }
    l.insert(
        "srumma.mean_overlap",
        t.get("overlap") / t.get("overlap_runs").max(1.0),
    );
    l.insert(
        "srumma.parallel_eff",
        caller_gflops / (nranks as f64 * dense.kernel_gflops),
    );
    l
}

/// [`pool_layers`] plus the layout spans of the standalone drivers.
pub fn standalone_layers(
    t: &Tally,
    nranks: usize,
    caller_gflops: f64,
    dense: Dense,
    bytes_copied: f64,
) -> Layers {
    let alloc = t.phase_per_call("layout.dist_a/b/c (alloc)");
    let scatter = t.phase_per_call("layout.scatter_operands");
    let gather = t.phase_per_call("DistMatrix::gather");
    let spawn = t.phase_per_call(THREAD_PHASES[1]) + t.phase_per_call(EXEC_PHASES[1]);
    let wall = t.wall / t.calls.max(1) as f64;
    let mut l = pool_layers(t, nranks, caller_gflops, dense, bytes_copied, spawn);
    l.insert("layout.alloc_s", alloc);
    l.insert("layout.scatter_s", scatter);
    l.insert("layout.gather_s", gather);
    l.insert("layout.share", (alloc + scatter + gather) / wall);
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_results_check_reference_once_then_bits() {
        let m = Matrix::random(3, 3, 1);
        let mut f = FirstResults::default();
        let mut calls = 0;
        assert!(f.check(0, &m, |_| {
            calls += 1;
            true
        }));
        assert!(f.check(0, &m.clone(), |_| unreachable!()));
        let mut off = m.clone();
        let x = &mut off.as_mut_slice()[4];
        *x = f64::from_bits(x.to_bits() ^ 1);
        assert!(!f.check(0, &off, |_| unreachable!()));
        assert!(!f.check(1, &m, |_| false));
        assert!(
            !f.check(1, &m, |_| unreachable!()),
            "a failed first result fails its repeats"
        );
        assert_eq!(calls, 1);
    }

    #[test]
    fn bitwise_equality_sees_signed_zero() {
        let a = Matrix::zeros(1, 1);
        let mut b = Matrix::zeros(1, 1);
        b.as_mut_slice()[0] = -0.0;
        assert!(!same_bits(&a, &b));
        assert!(same_bits(&a, &a.clone()));
    }

    #[test]
    fn tolerance_catches_a_wrong_block() {
        let spec = GemmSpec::square(32);
        let a = Matrix::random(32, 32, 1);
        let b = Matrix::random(32, 32, 2);
        let good = serial_reference(&spec, &a, &b);
        assert!(reference_ok(&spec, &a, &b, &good));
        let mut bad = good.clone();
        bad.as_mut_slice()[5] += 1e-3;
        assert!(!reference_ok(&spec, &a, &b, &bad));
    }

    #[test]
    fn task_shapes_follow_the_grid() {
        assert_eq!(
            task_shape(&GemmSpec::square(64), 16),
            (Op::N, Op::N, 16, 16, 16)
        );
        let spec = GemmSpec::new(Op::N, Op::T, 1536, 1536, 384);
        assert_eq!(task_shape(&spec, 2), (Op::N, Op::T, 1536, 768, 192));
    }

    #[test]
    fn layout_bytes_count_transposed_temporaries() {
        assert_eq!(layout_bytes(&GemmSpec::square(2)), 8.0 * 12.0);
        assert_eq!(
            layout_bytes(&GemmSpec::new(Op::T, Op::N, 2, 2, 2)),
            8.0 * 16.0
        );
    }
}
