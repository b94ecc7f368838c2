//! `stream`: `multiply_batch_exec` batches of 64 entries mixing 48, 64
//! and 96 shapes and all four Op cases, on 16 ranks and 2 workers — the
//! executor and kernel of `small-calls`, amortized over one pool and one
//! arena per batch.

use super::{
    add_run_stats, caller_gflops, dgemm_gflops, pool_layers, task_shape, Dense, FirstResults,
    Layers, Workload,
};
use crate::tally::Tally;
use srumma::core::{batch_serial_reference, multiply_batch_exec, multiply_batch_traced};
use srumma::dense::Rng;
use srumma::{BatchEntry, BatchSpec, GemmSpec, Matrix, Op};
use std::time::Instant;

pub const ENTRIES: usize = 64;
pub const RANKS: usize = 16;
pub const WORKERS: usize = 2;
pub const POOL: usize = 4;
const DIMS: [usize; 3] = [48, 64, 96];
const OPS: [(Op, Op); 4] = [
    (Op::N, Op::N),
    (Op::N, Op::T),
    (Op::T, Op::N),
    (Op::T, Op::T),
];

/// Shape of entry `e` before shuffling: Op case `e % 4` and dimensions
/// cycling through all 27 combinations of [`DIMS`], so every batch and
/// every seed carries the same multiset of shapes and the same flops.
fn entry_shape(e: usize) -> GemmSpec {
    let (ta, tb) = OPS[e % OPS.len()];
    let d = |i: usize| DIMS[i % DIMS.len()];
    GemmSpec::new(ta, tb, d(e), d(e / 3), d(e / 9))
}

/// `pool` batches of `entries` entries: the seed shuffles the entry
/// order and draws the operands.
pub fn inputs(seed: u64, pool: usize, entries: usize) -> Vec<BatchSpec> {
    let mut rng = Rng::new(seed);
    (0..pool)
        .map(|_| {
            let mut order: Vec<usize> = (0..entries).collect();
            for i in (1..entries).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let mut batch = BatchSpec::new();
            for e in order {
                let spec = entry_shape(e);
                let a = Matrix::random(spec.m, spec.k, rng.next_u64());
                let b = Matrix::random(spec.k, spec.n, rng.next_u64());
                batch.push(BatchEntry::new(spec, a, b));
            }
            batch
        })
        .collect()
}

pub struct Stream {
    batches: Vec<BatchSpec>,
    first: FirstResults,
}

impl Stream {
    pub fn new(seed: u64) -> Self {
        Stream {
            batches: inputs(seed, POOL, ENTRIES),
            first: FirstResults::default(),
        }
    }
}

impl Workload for Stream {
    type Out = Vec<Matrix>;

    fn pool(&self) -> (usize, Option<usize>) {
        (RANKS, Some(WORKERS))
    }

    fn distinct_inputs(&self) -> usize {
        POOL
    }

    fn ops(&self, i: usize) -> u64 {
        self.batches[i % POOL].entries.len() as u64
    }

    fn flops(&self, i: usize) -> f64 {
        self.batches[i % POOL].flops()
    }

    fn call(&mut self, i: usize) -> Vec<Matrix> {
        multiply_batch_exec(&self.batches[i % POOL], RANKS, WORKERS).outputs
    }

    fn check(&mut self, i: usize, out: Vec<Matrix>) -> u64 {
        let batch = &self.batches[i % POOL];
        if out.len() != batch.entries.len() {
            return batch.entries.len() as u64;
        }
        let mut reference: Option<Vec<Matrix>> = None;
        let mut failed = 0;
        for (e, got) in out.iter().enumerate() {
            let entry = &batch.entries[e];
            let ok = self.first.check((i % POOL) * ENTRIES + e, got, |got| {
                let expect = &reference.get_or_insert_with(|| batch_serial_reference(batch))[e];
                super::close(got, expect, entry.spec.k, &entry.a, &entry.b)
            });
            failed += u64::from(!ok);
        }
        failed
    }

    fn traced_call(&mut self, i: usize, t: &mut Tally) -> Vec<Matrix> {
        let batch = &self.batches[i % POOL];
        let start = Instant::now();
        let (res, traced) = multiply_batch_traced(batch, RANKS, WORKERS);
        let wall = start.elapsed().as_secs_f64();
        t.add_span("multiply_batch_traced in-pool", res.stats.wall_s);
        t.add("pool.capacity", RANKS as f64 * res.stats.wall_s);
        t.add("pool.overhead", wall - res.stats.wall_s);
        add_run_stats(t, &traced.stats);
        let stage: f64 = res.stats.entries.iter().map(|e| e.stage_s()).sum();
        t.add("batch.stage", stage);
        t.add("batch.compute", res.stats.compute_s_total());
        t.add("batch.fence", res.stats.fence_s_total());
        t.add("batch.fence_per_entry", res.stats.fence_s_per_entry());
        t.add("batch.overlap", res.stats.inter_entry_overlap());
        t.add(
            "dense.ws_grows",
            res.ws_grow_counts.iter().sum::<u64>() as f64,
        );
        t.end_call(wall, batch.entries.len() as u64);
        res.outputs
    }

    fn layers(&mut self, t: &Tally, untraced: &[(usize, f64)], budget_s: f64) -> Layers {
        let entries = &self.batches[0].entries;
        let tasks: Vec<_> = entries.iter().map(|e| task_shape(&e.spec, RANKS)).collect();
        let whole: Vec<_> = entries
            .iter()
            .map(|e| (Op::N, Op::N, e.spec.m, e.spec.n, e.spec.k))
            .collect();
        let dense = Dense {
            kernel_gflops: dgemm_gflops(&tasks, 0.5 * budget_s),
            serial_gflops: dgemm_gflops(&whole, 0.5 * budget_s),
        };
        // Staged A and B plus extracted C per batch, computed from the shapes.
        let staged: f64 = entries
            .iter()
            .map(|e| {
                let s = &e.spec;
                8.0 * (s.m * s.k + s.k * s.n + s.m * s.n) as f64
            })
            .sum();
        let gflops = caller_gflops(untraced, |i| self.flops(i));
        let overhead = t.per_call("pool.overhead");
        let mut l = pool_layers(t, RANKS, gflops, dense, staged, overhead);
        l.insert("batch.stage_s", t.per_call("batch.stage"));
        l.insert("batch.compute_s", t.per_call("batch.compute"));
        l.insert(
            "batch.fence_s_per_entry",
            t.per_call("batch.fence_per_entry"),
        );
        l.insert("batch.inter_entry_overlap", t.per_call("batch.overlap"));
        l
    }

    fn pool_rows(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("batch.stage", "stage operands (rank-s)"),
            ("batch.compute", "compute + extract C (rank-s)"),
            ("batch.fence", "fence wait (rank-s)"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::same_bits;

    #[test]
    fn seed_gives_identical_inputs() {
        let (a, b) = (inputs(5, 2, 8), inputs(5, 2, 8));
        for (x, y) in a
            .iter()
            .flat_map(|b| &b.entries)
            .zip(b.iter().flat_map(|b| &b.entries))
        {
            assert_eq!(
                (x.spec.m, x.spec.n, x.spec.k),
                (y.spec.m, y.spec.n, y.spec.k)
            );
            assert_eq!(
                (x.spec.transa, x.spec.transb),
                (y.spec.transa, y.spec.transb)
            );
            assert!(same_bits(&x.a, &y.a) && same_bits(&x.b, &y.b));
        }
        assert!(!same_bits(
            &a[0].entries[0].a,
            &inputs(6, 2, 8)[0].entries[0].a
        ));
    }

    #[test]
    fn every_seed_and_batch_does_the_same_work() {
        let flops = inputs(1, 1, ENTRIES)[0].flops();
        for b in inputs(2, 3, ENTRIES).iter().chain(&inputs(9, 1, ENTRIES)) {
            assert_eq!(b.flops(), flops);
        }
        let b = &inputs(1, 1, 8)[0];
        for (ta, tb) in OPS {
            assert!(b
                .entries
                .iter()
                .any(|e| e.spec.transa == ta && e.spec.transb == tb));
        }
    }
}
