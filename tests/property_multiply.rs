//! Property test: all three backends agree with the serial kernel over
//! randomized problems — shapes (including degenerate ones), transpose
//! cases, PBLAS scalars, rank counts, worker-pool sizes and SRUMMA
//! scheduling options.
//!
//! Seeds are deterministic (SplitMix64) and embedded in every assertion
//! message together with a copy-pasteable rerun command; set
//! `SRUMMA_PROP_SEED` to pin one case or `SRUMMA_PROP_CASES` to widen
//! the sweep (see `srumma::dense::prop`).

use srumma::core::driver::{
    default_grid, multiply_exec, multiply_threads, serial_reference, sparse_serial_reference,
};
use srumma::dense::{max_abs_diff, prop_rerun, prop_seeds, Rng};
use srumma::{
    Algorithm, BlockMask, GemmSpec, Machine, Matrix, Multiply, Op, ShmemFlavor, SparseMasks,
    SrummaOptions,
};

const CASES: u64 = 24;

fn random_spec(rng: &mut Rng) -> GemmSpec {
    let dim = |rng: &mut Rng| match rng.below(8) {
        0 => 1,
        1 => 2,
        _ => rng.range(3, 40),
    };
    let op = |rng: &mut Rng| if rng.chance(0.5) { Op::T } else { Op::N };
    let scalar = |rng: &mut Rng| match rng.below(3) {
        0 => 1.0,
        1 => 0.0,
        _ => rng.unit() * 2.0,
    };
    GemmSpec::new(op(rng), op(rng), dim(rng), dim(rng), dim(rng))
        .with_scalars(scalar(rng), scalar(rng))
}

fn random_srumma(rng: &mut Rng) -> SrummaOptions {
    SrummaOptions {
        smp_first: rng.chance(0.5),
        diagonal_shift: rng.chance(0.5),
        double_buffer: rng.chance(0.75),
        prefetch_depth: rng.range(1, 3),
        shmem: *rng.pick(&[
            ShmemFlavor::Auto,
            ShmemFlavor::ForceCopy,
            ShmemFlavor::ForceDirect,
        ]),
        gemm: None,
        tuner: None,
    }
}

/// Per-element absolute tolerance: each C element is a k-term dot
/// product, so the roundoff budget grows with k.
fn tolerance(k: usize) -> f64 {
    1e-12 * (k.max(1) as f64) * 100.0
}

/// Which backend a property case runs on.
#[derive(Clone, Copy, Debug)]
enum Backend {
    /// One OS thread per rank (`ThreadComm`).
    Threads,
    /// Virtual-time simulator (`SimComm`).
    Sim,
    /// Work-stealing executor: ranks multiplexed onto a random worker
    /// pool (often oversubscribed).
    Exec,
}

/// `β·C + α·op(A)·op(B)` with a random nonzero starting C, checked
/// against the serial kernel run on the same inputs.
fn check_case(seed: u64, backend: Backend, test: &str) {
    let mut rng = Rng::new(seed);
    let spec = random_spec(&mut rng);
    let nranks = *rng.pick(&[1usize, 2, 3, 4, 6, 8]);
    let a = Matrix::random(spec.m, spec.k, seed ^ 0xA);
    let b = Matrix::random(spec.k, spec.n, seed ^ 0xB);

    // The drivers start C at zero, so the serial reference must apply
    // the same alpha (beta scales zeros away).
    let mut expect = serial_reference(&spec, &a, &b);
    for i in 0..spec.m {
        for j in 0..spec.n {
            expect[(i, j)] *= spec.alpha;
        }
    }

    let alg = if rng.chance(0.7) {
        Algorithm::Srumma(random_srumma(&mut rng))
    } else if spec.alpha == 1.0 && rng.chance(0.5) {
        Algorithm::summa_default()
    } else {
        Algorithm::Srumma(random_srumma(&mut rng))
    };

    let c = match backend {
        Backend::Threads => multiply_threads(nranks, &alg, &spec, &a, &b).0,
        Backend::Sim => Multiply::new(alg, spec, &a, &b)
            .run(nranks, &srumma::Backend::Sim(&Machine::linux_myrinet()))
            .unwrap()
            .c
            .unwrap(),
        Backend::Exec => {
            // Workers chosen independently of ranks: frequently an
            // oversubscribed pool, sometimes more workers than ranks.
            let workers = *rng.pick(&[1usize, 2, 3, 4]);
            multiply_exec(nranks, workers, &alg, &spec, &a, &b).0
        }
    };
    let diff = max_abs_diff(&c, &expect);
    assert!(
        diff < tolerance(spec.k),
        "seed {seed:#x}: {} {} m={} n={} k={} alpha={} beta={} x{nranks} ({backend:?}): |diff|={diff:e}\n{}",
        alg.name(),
        spec.case_label(),
        spec.m,
        spec.n,
        spec.k,
        spec.alpha,
        spec.beta,
        prop_rerun(seed, test),
    );
}

/// Random logical masks for the grid of `nranks`: mostly mid-density,
/// with the degenerate ends (density 0 — everything pruned, every rank
/// exercises the empty-rank fence path — and density 1 — the mask is
/// all-ones and must change nothing) drawn often enough to hit every
/// run.
fn random_masks(rng: &mut Rng, nranks: usize, seed: u64) -> SparseMasks {
    let grid = default_grid(nranks);
    let density = |rng: &mut Rng| match rng.below(5) {
        0 => 0.0,
        1 => 1.0,
        _ => 0.2 + 0.15 * rng.below(4) as f64,
    };
    SparseMasks::new(
        BlockMask::random(grid.p, grid.q, density(rng), seed ^ 0xAAAA),
        BlockMask::random(grid.p, grid.q, density(rng), seed ^ 0xBBBB),
    )
}

/// Block-sparse multiply on each backend, checked against the masked
/// serial reference. The operands carry full random data *everywhere*
/// — including inside masked blocks — so agreement proves the pruned
/// schedule never reads a dead block.
fn check_sparse_case(seed: u64, backend: Backend, test: &str) {
    let mut rng = Rng::new(seed);
    let spec = random_spec(&mut rng);
    let nranks = *rng.pick(&[1usize, 2, 3, 4, 6, 8]);
    let a = Matrix::random(spec.m, spec.k, seed ^ 0xA);
    let b = Matrix::random(spec.k, spec.n, seed ^ 0xB);
    let masks = random_masks(&mut rng, nranks, seed);
    let opts = random_srumma(&mut rng);

    // Drivers start C at zero, so beta scales zeros away and the
    // reference only needs alpha.
    let mut expect = sparse_serial_reference(&spec, &a, &b, &masks);
    for i in 0..spec.m {
        for j in 0..spec.n {
            expect[(i, j)] *= spec.alpha;
        }
    }

    let sparse = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b).masks(masks.clone());
    let run = |backend: srumma::Backend| sparse.run(nranks, &backend).unwrap().c.unwrap();
    let c = match backend {
        Backend::Threads => run(srumma::Backend::threads()),
        Backend::Sim => run(srumma::Backend::Sim(&Machine::linux_myrinet())),
        Backend::Exec => {
            let workers = *rng.pick(&[1usize, 2, 3, 4]);
            run(srumma::Backend::exec(workers))
        }
    };
    let diff = max_abs_diff(&c, &expect);
    assert!(
        diff < tolerance(spec.k),
        "seed {seed:#x}: sparse {} m={} n={} k={} alpha={} beta={} x{nranks} ({backend:?}) \
         da={:.2} db={:.2}: |diff|={diff:e}\n{}",
        spec.case_label(),
        spec.m,
        spec.n,
        spec.k,
        spec.alpha,
        spec.beta,
        masks.a.as_ref().map_or(1.0, |m| m.density()),
        masks.b.as_ref().map_or(1.0, |m| m.density()),
        prop_rerun(seed, test),
    );
}

#[test]
fn threads_match_serial_reference_on_random_problems() {
    for seed in prop_seeds(0xE2E_7EAD, CASES) {
        check_case(
            seed,
            Backend::Threads,
            "threads_match_serial_reference_on_random_problems",
        );
    }
}

#[test]
fn simulator_matches_serial_reference_on_random_problems() {
    for seed in prop_seeds(0xE2E_0512, CASES) {
        check_case(
            seed,
            Backend::Sim,
            "simulator_matches_serial_reference_on_random_problems",
        );
    }
}

#[test]
fn executor_matches_serial_reference_on_random_problems() {
    for seed in prop_seeds(0xE2E_0EC5, CASES) {
        check_case(
            seed,
            Backend::Exec,
            "executor_matches_serial_reference_on_random_problems",
        );
    }
}

#[test]
fn sparse_threads_match_masked_serial_reference() {
    for seed in prop_seeds(0x5BA_57EAD, CASES) {
        check_sparse_case(
            seed,
            Backend::Threads,
            "sparse_threads_match_masked_serial_reference",
        );
    }
}

#[test]
fn sparse_simulator_matches_masked_serial_reference() {
    for seed in prop_seeds(0x5BA_50512, CASES) {
        check_sparse_case(
            seed,
            Backend::Sim,
            "sparse_simulator_matches_masked_serial_reference",
        );
    }
}

#[test]
fn sparse_executor_matches_masked_serial_reference() {
    for seed in prop_seeds(0x5BA_50EC5, CASES) {
        check_sparse_case(
            seed,
            Backend::Exec,
            "sparse_executor_matches_masked_serial_reference",
        );
    }
}

/// Full-density masks are all-ones: the sparse path prunes nothing and
/// must reproduce the dense driver **bitwise** on every backend (each
/// rank's accumulation order is deterministic, so equality is exact,
/// not within tolerance).
#[test]
fn density_one_is_bitwise_identical_to_dense() {
    for &(seed, nranks) in &[(11u64, 3usize), (12, 4), (13, 8)] {
        let mut rng = Rng::new(seed);
        let spec = random_spec(&mut rng);
        let a = Matrix::random(spec.m, spec.k, seed ^ 0xA);
        let b = Matrix::random(spec.k, spec.n, seed ^ 0xB);
        let grid = default_grid(nranks);
        let masks = SparseMasks::new(
            BlockMask::full(grid.p, grid.q),
            BlockMask::full(grid.p, grid.q),
        );
        let opts = random_srumma(&mut rng);
        let alg = Algorithm::Srumma(opts);

        let (dense_t, _) = multiply_threads(nranks, &alg, &spec, &a, &b);
        let sparse = Multiply::new(alg, spec, &a, &b).masks(masks);
        let sparse_t = sparse
            .run(nranks, &srumma::Backend::threads())
            .unwrap()
            .c
            .unwrap();
        assert_eq!(
            max_abs_diff(&dense_t, &sparse_t),
            0.0,
            "threads seed {seed}"
        );

        let machine = Machine::linux_myrinet();
        let sim = srumma::Backend::Sim(&machine);
        let dense_s = Multiply::new(alg, spec, &a, &b)
            .run(nranks, &sim)
            .unwrap()
            .c
            .unwrap();
        let sparse_s = sparse.run(nranks, &sim).unwrap().c.unwrap();
        assert_eq!(max_abs_diff(&dense_s, &sparse_s), 0.0, "sim seed {seed}");

        let (dense_e, dres) = multiply_exec(nranks, 2, &alg, &spec, &a, &b);
        let sres = sparse.run(nranks, &srumma::Backend::exec(2)).unwrap();
        let sparse_e = sres.c.as_ref().unwrap();
        assert_eq!(max_abs_diff(&dense_e, sparse_e), 0.0, "exec seed {seed}");
        for (rank, (d, s)) in dres.outputs.iter().zip(&sres.reports).enumerate() {
            let d = d.as_ref().unwrap();
            assert_eq!(
                s.tasks, d.tasks,
                "rank {rank}: full mask changed the schedule"
            );
            assert_eq!(s.masked_tasks, 0, "rank {rank}: full mask pruned a task");
        }
    }
}

/// A single surviving block in each operand: only the tasks whose
/// k-segments join them may run; everything else — including whole
/// ranks — is pruned, and those empty ranks must still clear their C
/// tiles and reach every fence.
#[test]
fn one_surviving_block_per_operand() {
    for ta in [Op::N, Op::T] {
        for tb in [Op::N, Op::T] {
            let spec = GemmSpec::new(ta, tb, 19, 17, 23).with_scalars(1.5, 0.0);
            let nranks = 6;
            let grid = default_grid(nranks);
            let a = Matrix::random(spec.m, spec.k, 0xC0);
            let b = Matrix::random(spec.k, spec.n, 0xC1);
            let masks = SparseMasks::new(
                BlockMask::from_fn(grid.p, grid.q, |i, la| (i, la) == (1, 0)),
                BlockMask::from_fn(grid.p, grid.q, |lb, j| (lb, j) == (0, 1)),
            );
            let mut expect = sparse_serial_reference(&spec, &a, &b, &masks);
            for i in 0..spec.m {
                for j in 0..spec.n {
                    expect[(i, j)] *= spec.alpha;
                }
            }
            let opts = SrummaOptions::default();
            let res = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b)
                .masks(masks)
                .run(nranks, &srumma::Backend::exec(2))
                .unwrap();
            let diff = max_abs_diff(res.c.as_ref().unwrap(), &expect);
            assert!(diff < tolerance(spec.k), "{ta:?}/{tb:?}: |diff|={diff:e}");
            let survived: usize = res.reports.iter().map(|r| r.tasks).sum();
            let masked: usize = res.reports.iter().map(|r| r.masked_tasks).sum();
            assert!(survived <= nranks, "{ta:?}/{tb:?}: too many tasks survived");
            assert!(masked > 0, "{ta:?}/{tb:?}: nothing was pruned");
        }
    }
}

/// The oversubscription stress from the dense suite, sparse: 128 ranks
/// multiplexed onto 2 workers with mid-density masks. Many ranks have
/// every task pruned and exist only to β-scale C and arrive at the
/// barriers — a lost wakeup or skipped fence deadlocks here (ci.sh
/// bounds that with `timeout`).
#[test]
fn oversubscribed_sparse_executor_128_ranks_2_workers() {
    let (nranks, workers) = (128, 2);
    let spec = GemmSpec::square(64);
    let grid = default_grid(nranks);
    let a = Matrix::random(spec.m, spec.k, 0xD0);
    let b = Matrix::random(spec.k, spec.n, 0xD1);
    let masks = SparseMasks::new(
        BlockMask::random(grid.p, grid.q, 0.3, 0xD2),
        BlockMask::random(grid.p, grid.q, 0.3, 0xD3),
    );
    let expect = sparse_serial_reference(&spec, &a, &b, &masks);
    let opts = SrummaOptions::default();
    let res = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b)
        .masks(masks)
        .run(nranks, &srumma::Backend::exec(workers))
        .unwrap();
    let diff = max_abs_diff(res.c.as_ref().unwrap(), &expect);
    assert!(diff < tolerance(spec.k), "|diff|={diff:e}");
    let masked: usize = res.reports.iter().map(|r| r.masked_tasks).sum();
    assert!(
        masked > 0,
        "density 0.3 masks pruned nothing on a 128-rank grid"
    );
}
