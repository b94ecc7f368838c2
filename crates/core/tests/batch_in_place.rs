//! In-place batch oracle: every batch entry multiplies the caller's A
//! and B where they lie and writes C straight into its output, with no
//! fence between entries. Each entry must give exactly the bits of the
//! standalone `Multiply` of that entry on the same backend, β/`c0`
//! entries must agree across backends, and the caller's operands must
//! come back untouched.

use srumma_core::batch::{
    batch_serial_reference, multiply_batch, multiply_batch_exec, multiply_batch_sim, BatchEntry,
    BatchSpec,
};
use srumma_core::driver::{default_grid, SparseMasks};
use srumma_core::{Algorithm, Backend, GemmSpec, Multiply, SrummaOptions};
use srumma_dense::{max_abs_diff, BlockMask, Matrix, Op};
use srumma_model::Machine;

const RANKS: [usize; 5] = [1, 2, 4, 6, 16];
const WORKERS: usize = 2;
const OPS: [(Op, Op); 4] = [
    (Op::N, Op::N),
    (Op::N, Op::T),
    (Op::T, Op::N),
    (Op::T, Op::T),
];

fn same_bits(x: &Matrix, y: &Matrix) -> bool {
    (x.rows(), x.cols()) == (y.rows(), y.cols())
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

fn entry(spec: GemmSpec, seed: u64) -> BatchEntry {
    BatchEntry::new(
        spec,
        Matrix::random(spec.m, spec.k, seed),
        Matrix::random(spec.k, spec.n, seed + 1),
    )
}

/// Entries a standalone `Multiply` can express (C starts at zero): the
/// four op cases at 37×29×41 (uneven chunks on every grid above), each
/// plain, masked and with the naive options (the `ForceCopy` row-wise
/// get), plus `k = 1` and single-row entries.
fn standalone_batch(nranks: usize) -> BatchSpec {
    let grid = default_grid(nranks);
    let mut batch = BatchSpec::new();
    for (i, &(ta, tb)) in OPS.iter().enumerate() {
        let spec = GemmSpec::new(ta, tb, 37, 29, 41).with_scalars(1.5, 0.0);
        let seed = 10 * i as u64;
        batch.push(entry(spec, seed));
        batch.push(entry(spec, seed + 2).with_masks(
            Some(BlockMask::random(grid.p, grid.q, 0.5, seed + 4)),
            Some(BlockMask::random(grid.p, grid.q, 0.5, seed + 5)),
        ));
        batch.push(entry(spec, seed + 6).with_opts(SrummaOptions::naive()));
    }
    batch.push(entry(GemmSpec::new(Op::T, Op::N, 20, 4, 1), 100));
    batch.push(entry(
        GemmSpec::new(Op::N, Op::T, 1, 24, 9).with_scalars(0.5, 0.0),
        102,
    ));
    batch
}

/// The standalone multiply of one entry.
fn standalone(e: &BatchEntry, nranks: usize, backend: &Backend) -> Matrix {
    let opts = e.opts.unwrap_or_default();
    let masks = SparseMasks {
        a: e.mask_a.clone(),
        b: e.mask_b.clone(),
    };
    Multiply::new(Algorithm::Srumma(opts), e.spec, &e.a, &e.b)
        .masks(masks)
        .run(nranks, backend)
        .expect("supported request")
        .c
        .expect("real operands give C")
}

/// Entries with an initial C and every flavour of β, including the
/// degenerate `k = 0` (pure β-scale) entry.
fn beta_batch() -> BatchSpec {
    type Case = (Op, Op, usize, usize, usize, f64, f64);
    let cases: &[Case] = &[
        (Op::N, Op::N, 37, 29, 41, 1.0, 1.0),
        (Op::T, Op::N, 37, 29, 41, 1.5, -0.5),
        (Op::N, Op::T, 37, 29, 41, -1.0, 0.0),
        (Op::T, Op::T, 37, 29, 41, 2.0, 0.25),
        (Op::N, Op::N, 10, 10, 0, 1.0, 0.5),
        (Op::T, Op::N, 20, 4, 1, 1.0, 2.0),
        (Op::N, Op::T, 1, 24, 9, 0.5, -1.0),
    ];
    let mut batch = BatchSpec::new();
    for (i, &(ta, tb, m, n, k, alpha, beta)) in cases.iter().enumerate() {
        let spec = GemmSpec::new(ta, tb, m, n, k).with_scalars(alpha, beta);
        let seed = 200 + 3 * i as u64;
        batch.push(entry(spec, seed).with_c0(Matrix::random(m, n, seed + 2)));
    }
    batch
}

/// Every caller operand, bitwise, after a run.
fn assert_operands_unchanged(batch: &BatchSpec, before: &BatchSpec, what: &str) {
    for (e, (now, was)) in batch.entries.iter().zip(&before.entries).enumerate() {
        assert!(same_bits(&now.a, &was.a), "{what}: entry {e}: A changed");
        assert!(same_bits(&now.b, &was.b), "{what}: entry {e}: B changed");
        if let (Some(c), Some(c0)) = (&now.c0, &was.c0) {
            assert!(same_bits(c, c0), "{what}: entry {e}: c0 changed");
        }
    }
}

#[test]
fn every_entry_matches_its_standalone_multiply_bitwise() {
    for nranks in RANKS {
        let batch = standalone_batch(nranks);
        let before = batch.clone();
        let runs = [
            (
                "threads",
                Backend::threads(),
                multiply_batch(&batch, nranks),
            ),
            (
                "exec",
                Backend::exec(WORKERS),
                multiply_batch_exec(&batch, nranks, WORKERS),
            ),
        ];
        for (name, backend, res) in &runs {
            assert_operands_unchanged(&batch, &before, name);
            assert_eq!(res.outputs.len(), batch.entries.len());
            for (e, (got, entry)) in res.outputs.iter().zip(&batch.entries).enumerate() {
                if entry.opts == Some(SrummaOptions::naive()) {
                    let r = &res.reports[e];
                    assert!(
                        r.fetched_blocks > 0 && r.direct_blocks == 0,
                        "{name} x{nranks}: entry {e} did not take the row-wise get: {r:?}"
                    );
                }
                let want = standalone(entry, nranks, backend);
                assert!(
                    same_bits(got, &want),
                    "{name} x{nranks}: entry {e} ({:?}) differs from its standalone multiply \
                     by {:e}",
                    entry.spec,
                    max_abs_diff(got, &want)
                );
            }
        }
    }
}

#[test]
fn beta_entries_agree_across_backends_and_with_the_reference() {
    let batch = beta_batch();
    let before = batch.clone();
    let expect = batch_serial_reference(&batch);
    let close = |outputs: &[Matrix], what: &str| {
        for (e, (got, want)) in outputs.iter().zip(&expect).enumerate() {
            let diff = max_abs_diff(got, want);
            assert!(diff < 1e-10, "{what}: entry {e}: |diff|={diff:e}");
        }
    };
    for nranks in RANKS {
        let threads = multiply_batch(&batch, nranks);
        assert_operands_unchanged(&batch, &before, "threads");
        let exec = multiply_batch_exec(&batch, nranks, WORKERS);
        assert_operands_unchanged(&batch, &before, "exec");
        close(&threads.outputs, &format!("threads x{nranks}"));
        for (e, (t, x)) in threads.outputs.iter().zip(&exec.outputs).enumerate() {
            assert!(
                same_bits(t, x),
                "x{nranks}: entry {e}: threads and exec differ by {:e}",
                max_abs_diff(t, x)
            );
        }
    }
    for nranks in [1, 4, 6] {
        let sim = multiply_batch_sim(&batch, &Machine::linux_myrinet(), nranks);
        assert_operands_unchanged(&batch, &before, "sim");
        close(&sim.outputs, &format!("sim x{nranks}"));
    }
}

/// Batches run fence-free: the stats schema keeps `fence_s`, which is
/// zero, and `stage_s` times only the C-block initialisation.
#[test]
fn fence_free_stats_report_no_fence_time() {
    let batch = beta_batch();
    let res = multiply_batch_exec(&batch, 6, WORKERS);
    assert_eq!(res.stats.fence_s_total(), 0.0);
    assert_eq!(res.stats.fence_s_per_entry(), 0.0);
    for es in &res.stats.entries {
        assert_eq!(es.samples.len(), 6);
        for s in &es.samples {
            assert!(s.stage_s >= 0.0 && s.compute_s >= 0.0);
            assert!(s.t_end >= s.t_start);
        }
    }
}
