//! Zero-copy oracle: flat host runs multiply the caller's A and B in
//! place and write each C block straight into the returned matrix.
//! Every such run must give exactly the bits of the arena path rebuilt
//! from the public pieces (`dist_*` + `scatter_operands` + a runner +
//! `DistMatrix::gather`) and leave the caller's operands untouched.

use srumma_comm::{
    exec_run, exec_run_tasks, exec_run_traced, thread_run, thread_run_traced, FaultPlan,
};
use srumma_core::driver::{default_grid, SparseMasks};
use srumma_core::layout::{dist_a, dist_b, dist_c, scatter_operands, set_a_mask, set_b_mask};
use srumma_core::request::SUPPORTED;
use srumma_core::{
    parallel_gemm, Algorithm, Backend, GemmSpec, Multiply, ShmemFlavor, SrummaOptions,
    SrummaRankTask,
};
use srumma_dense::{BlockMask, Matrix, Op};
// Only the debug-only write-under-read test below adopts C by hand.
#[cfg(debug_assertions)]
use {srumma_comm::DistMatrix, srumma_model::ProcGrid, std::ptr::NonNull};

const RANKS: [usize; 5] = [1, 2, 3, 4, 6];
const WORKERS: usize = 2;
const OPS: [(Op, Op); 4] = [
    (Op::N, Op::N),
    (Op::N, Op::T),
    (Op::T, Op::N),
    (Op::T, Op::T),
];

/// Uneven chunking on every grid above.
fn spec(ta: Op, tb: Op) -> GemmSpec {
    GemmSpec::new(ta, tb, 37, 29, 41).with_scalars(1.5, 0.0)
}

fn same_bits(x: &Matrix, y: &Matrix) -> bool {
    (x.rows(), x.cols()) == (y.rows(), y.cols())
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

fn masks(nranks: usize) -> SparseMasks {
    let grid = default_grid(nranks);
    SparseMasks::new(
        BlockMask::random(grid.p, grid.q, 0.5, 0xA11CE),
        BlockMask::random(grid.p, grid.q, 0.5, 0xB0B),
    )
}

/// Stragglers and get spikes, plus a rank death where the executor can
/// re-execute it on a survivor.
fn faults(backend: &str, nranks: usize) -> FaultPlan {
    let plan = FaultPlan::random_stragglers(11, nranks).with_get_spikes(0.25, 1e-4);
    if backend == "exec" && nranks > 1 {
        plan.with_death(nranks - 1, 1)
    } else {
        plan
    }
}

/// The request for one supported row's features.
fn request<'a>(
    alg: Algorithm,
    spec: GemmSpec,
    a: &'a Matrix,
    b: &'a Matrix,
    backend: &str,
    features: &str,
    nranks: usize,
) -> Multiply<'a> {
    let mut r = Multiply::new(alg, spec, a, b);
    for f in features.split('+') {
        r = match f {
            "plain" => r,
            "sparse" => r.masks(masks(nranks)),
            "chaos" => r.faults(faults(backend, nranks)),
            "traced" => r.traced(),
            other => panic!("not a flat feature: {other}"),
        };
    }
    r
}

/// C through private arenas: scatter, run healthy, gather.
fn arena_path(r: &Multiply, backend: &str, nranks: usize) -> Matrix {
    let (spec, alg) = (&r.spec, &r.alg);
    let (a, b) = r.operands.expect("real operands");
    let grid = default_grid(nranks);
    let (mut da, mut db, dc) = (
        dist_a(spec, grid, true),
        dist_b(spec, grid, true),
        dist_c(spec, grid, true),
    );
    scatter_operands(spec, &da, &db, a, b);
    if let Some(m) = &r.masks.a {
        set_a_mask(spec, &mut da, m.clone());
    }
    if let Some(m) = &r.masks.b {
        set_b_mask(spec, &mut db, m.clone());
    }
    let rank = |comm: &mut _| {
        parallel_gemm(comm, alg, spec, &da, &db, &dc);
    };
    match (backend, alg) {
        ("threads", _) if r.trace => drop(thread_run_traced(nranks, rank)),
        ("threads", _) => drop(thread_run(nranks, rank)),
        ("exec", Algorithm::Srumma(opts)) => {
            drop(exec_run_tasks(nranks, WORKERS, r.trace, |comm| {
                Box::new(SrummaRankTask::new(comm, spec, &da, &db, &dc, opts))
            }))
        }
        ("exec", _) if r.trace => drop(exec_run_traced(nranks, WORKERS, |comm| {
            parallel_gemm(comm, alg, spec, &da, &db, &dc);
        })),
        ("exec", _) => drop(exec_run(nranks, WORKERS, |comm| {
            parallel_gemm(comm, alg, spec, &da, &db, &dc);
        })),
        _ => unreachable!("{backend} is not a host backend"),
    }
    dc.gather()
}

fn host(name: &str) -> Backend<'static> {
    match name {
        "threads" => Backend::threads(),
        _ => Backend::exec(WORKERS),
    }
}

/// Run `r` in place and check it against the arena path, the caller's
/// operands and the staged-byte count.
fn check_in_place(r: &Multiply, backend: &str, nranks: usize, label: &str) {
    let (a, b) = r.operands.unwrap();
    let (a0, b0) = (a.clone(), b.clone());
    let out = r
        .run(nranks, &host(backend))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(same_bits(a, &a0), "{label}: A changed");
    assert!(same_bits(b, &b0), "{label}: B changed");
    assert_eq!(out.staged_bytes, 0, "{label}: staged bytes");
    let healthy = Multiply {
        faults: None,
        ..r.clone()
    };
    let want = arena_path(&healthy, backend, nranks);
    assert!(
        same_bits(out.c.as_ref().unwrap(), &want),
        "{label}: C differs from the arena path"
    );
}

/// Every flat Threads/Exec row of `SUPPORTED`, every transpose case,
/// one to six ranks.
#[test]
fn in_place_runs_match_the_arena_path_bitwise() {
    let rows = SUPPORTED.iter().filter(|r| {
        matches!(r.0, "threads" | "exec") && !r.1.contains("hier") && !r.1.contains("replicated")
    });
    let mut runs = 0;
    for &(backend, features, _, any_algorithm) in rows {
        let algs = if any_algorithm {
            vec![Algorithm::srumma_default(), Algorithm::summa_default()]
        } else {
            vec![Algorithm::srumma_default()]
        };
        for alg in algs {
            for (ta, tb) in OPS {
                let s = spec(ta, tb);
                let (a, b) = (Matrix::random(s.m, s.k, 1), Matrix::random(s.k, s.n, 2));
                for nranks in RANKS {
                    let r = request(alg, s, &a, &b, backend, features, nranks);
                    let label = format!(
                        "{backend} {features} {} {} on {nranks}",
                        alg.name(),
                        s.case_label()
                    );
                    check_in_place(&r, backend, nranks, &label);
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 12 * OPS.len() * RANKS.len(), "flat host rows");
}

/// Forced copies fetch every remote block through `copy_block_into`,
/// which walks an adopted block row by row.
#[test]
fn forced_copy_fetches_strided_blocks_bitwise() {
    let alg = Algorithm::Srumma(SrummaOptions {
        shmem: ShmemFlavor::ForceCopy,
        ..SrummaOptions::default()
    });
    for backend in ["threads", "exec"] {
        for (ta, tb) in OPS {
            let s = spec(ta, tb);
            let (a, b) = (Matrix::random(s.m, s.k, 3), Matrix::random(s.k, s.n, 4));
            for nranks in RANKS {
                let r = Multiply::new(alg, s, &a, &b);
                let label = format!("{backend} force-copy {} on {nranks}", s.case_label());
                check_in_place(&r, backend, nranks, &label);
            }
        }
    }
}

/// The access checker guards adopted blocks like arena regions.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "discipline violation")]
fn checker_catches_a_write_under_read_on_an_adopted_block() {
    let mut c = Matrix::zeros(6, 5);
    let base = NonNull::from(c.as_mut_slice()).cast();
    // SAFETY: `c` outlives `dc` (declared first, so dropped last) and is
    // touched only through `dc` while it lives.
    let dc = unsafe { DistMatrix::adopt(ProcGrid::new(1, 2), 6, 5, base, true) };
    let _read = dc.read_block(1);
    dc.scale_block(1, 0.0);
}
