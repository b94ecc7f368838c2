//! `small-calls`: standalone `multiply_exec` of 64² C = A·B on 16 ranks
//! and 2 workers, cycling through a seeded pool of inputs. The fixed
//! per-call cost (pool start, plan, scatter/gather, fences) dominates.

use super::{
    caller_gflops, dgemm_gflops, layout_bytes, reference_ok, standalone_layers, task_shape,
    traced_exec, Dense, FirstResults, Layers, Workload,
};
use crate::tally::Tally;
use srumma::core::driver::multiply_exec;
use srumma::dense::Rng;
use srumma::{Algorithm, GemmSpec, Matrix, Op};

pub const N: usize = 64;
pub const RANKS: usize = 16;
pub const WORKERS: usize = 2;
pub const POOL: usize = 8;

pub fn inputs(seed: u64, n: usize, pool: usize) -> Vec<(Matrix, Matrix)> {
    let mut rng = Rng::new(seed);
    (0..pool)
        .map(|_| {
            (
                Matrix::random(n, n, rng.next_u64()),
                Matrix::random(n, n, rng.next_u64()),
            )
        })
        .collect()
}

pub struct SmallCalls {
    spec: GemmSpec,
    pool: Vec<(Matrix, Matrix)>,
    first: FirstResults,
}

impl SmallCalls {
    pub fn new(seed: u64) -> Self {
        SmallCalls {
            spec: GemmSpec::square(N),
            pool: inputs(seed, N, POOL),
            first: FirstResults::default(),
        }
    }
}

impl Workload for SmallCalls {
    type Out = Matrix;

    fn pool(&self) -> (usize, Option<usize>) {
        (RANKS, Some(WORKERS))
    }

    fn distinct_inputs(&self) -> usize {
        POOL
    }

    fn ops(&self, _i: usize) -> u64 {
        1
    }

    fn flops(&self, _i: usize) -> f64 {
        self.spec.flops()
    }

    fn call(&mut self, i: usize) -> Matrix {
        let (a, b) = &self.pool[i % POOL];
        multiply_exec(
            RANKS,
            WORKERS,
            &Algorithm::srumma_default(),
            &self.spec,
            a,
            b,
        )
        .0
    }

    fn check(&mut self, i: usize, out: Matrix) -> u64 {
        let (a, b) = &self.pool[i % POOL];
        let spec = &self.spec;
        u64::from(
            !self
                .first
                .check(i % POOL, &out, |got| reference_ok(spec, a, b, got)),
        )
    }

    fn traced_call(&mut self, i: usize, t: &mut Tally) -> Matrix {
        let (a, b) = &self.pool[i % POOL];
        traced_exec(t, RANKS, WORKERS, &self.spec, a, b)
    }

    fn layers(&mut self, t: &Tally, untraced: &[(usize, f64)], budget_s: f64) -> Layers {
        let dense = Dense {
            kernel_gflops: dgemm_gflops(&[task_shape(&self.spec, RANKS)], 0.5 * budget_s),
            serial_gflops: dgemm_gflops(&[(Op::N, Op::N, N, N, N)], 0.5 * budget_s),
        };
        let gflops = caller_gflops(untraced, |i| self.flops(i));
        standalone_layers(t, RANKS, gflops, dense, layout_bytes(&self.spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::same_bits;

    #[test]
    fn seed_gives_identical_inputs() {
        let (a, b) = (inputs(3, 8, 4), inputs(3, 8, 4));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| same_bits(&x.0, &y.0) && same_bits(&x.1, &y.1)));
        assert!(!same_bits(&a[0].0, &inputs(4, 8, 4)[0].0));
        assert!(!same_bits(&a[0].0, &a[1].0), "pool entries differ");
    }
}
