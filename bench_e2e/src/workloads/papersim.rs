//! `paper-sim`: `measure_modeled` for SRUMMA and SUMMA on the paper's
//! four modeled platforms at 64 ranks and n = 4000. The only workload on
//! the discrete-event simulator; it does no real flops.
//!
//! One call is one sweep over the eight configurations (one modeled run
//! each), the unit a caller reproducing the paper's comparison waits
//! for; per-run latencies would mix eight fixed clusters, whose median
//! falls between two of them.

use super::{Layers, Workload};
use crate::tally::Tally;
use srumma::comm::{sim_run, SimOptions};
use srumma::core::driver::{default_grid, measure_modeled};
use srumma::core::layout::{dist_a, dist_b, dist_c};
use srumma::core::parallel_gemm;
use srumma::dense::Rng;
use srumma::sim::RunStats;
use srumma::{Algorithm, GemmSpec, Machine, Platform};
use std::time::Instant;

pub const N: usize = 4000;
pub const RANKS: usize = 64;

/// The eight (platform, algorithm) configurations in a seeded order.
pub fn inputs(seed: u64) -> Vec<(Platform, bool)> {
    let mut configs: Vec<(Platform, bool)> = Platform::ALL
        .iter()
        .flat_map(|&p| [(p, true), (p, false)])
        .collect();
    let mut rng = Rng::new(seed);
    for i in (1..configs.len()).rev() {
        configs.swap(i, rng.below(i + 1));
    }
    configs
}

fn algorithm(srumma: bool) -> Algorithm {
    if srumma {
        Algorithm::srumma_default()
    } else {
        Algorithm::summa_default()
    }
}

/// The modeled statistics repeats must reproduce exactly.
fn same_stats(a: &RunStats, b: &RunStats) -> bool {
    a.makespan.to_bits() == b.makespan.to_bits()
        && a.ranks == b.ranks
        && a.final_times.len() == b.final_times.len()
        && a.final_times
            .iter()
            .zip(&b.final_times)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn messages(s: &RunStats) -> f64 {
    s.ranks.iter().map(|r| r.messages).sum::<u64>() as f64
}

pub struct PaperSim {
    spec: GemmSpec,
    configs: Vec<(Platform, bool)>,
    machines: Vec<Machine>,
    first: Vec<Option<RunStats>>,
}

impl PaperSim {
    pub fn new(seed: u64) -> Self {
        let configs = inputs(seed);
        PaperSim {
            spec: GemmSpec::square(N),
            machines: configs
                .iter()
                .map(|&(p, _)| Machine::for_platform(p))
                .collect(),
            first: vec![None; configs.len()],
            configs,
        }
    }
}

impl PaperSim {
    /// One modeled run of configuration `c`, as a caller makes it.
    fn run(&self, c: usize) -> RunStats {
        measure_modeled(
            &self.machines[c],
            RANKS,
            &algorithm(self.configs[c].1),
            &self.spec,
        )
    }
}

impl Workload for PaperSim {
    type Out = Vec<RunStats>;

    fn pool(&self) -> (usize, Option<usize>) {
        (RANKS, None)
    }

    fn distinct_inputs(&self) -> usize {
        1
    }

    fn ops(&self, _i: usize) -> u64 {
        self.configs.len() as u64
    }

    fn flops(&self, _i: usize) -> f64 {
        self.configs.len() as f64 * self.spec.flops()
    }

    fn call(&mut self, _i: usize) -> Vec<RunStats> {
        (0..self.configs.len()).map(|c| self.run(c)).collect()
    }

    /// The first run of each configuration must be a positive, finite
    /// makespan; every repeat must reproduce its statistics exactly.
    fn check(&mut self, _i: usize, out: Vec<RunStats>) -> u64 {
        if out.len() != self.configs.len() {
            return self.configs.len() as u64;
        }
        let mut failed = 0;
        for (first, stats) in self.first.iter_mut().zip(out) {
            let ok = match first {
                Some(f) => same_stats(f, &stats),
                None => {
                    let ok = stats.makespan.is_finite() && stats.makespan > 0.0;
                    *first = Some(stats);
                    ok
                }
            };
            failed += u64::from(!ok);
        }
        failed
    }

    /// `measure_traced` per configuration, rebuilt from its public pieces.
    fn traced_call(&mut self, _i: usize, t: &mut Tally) -> Vec<RunStats> {
        let spec = &self.spec;
        let start = Instant::now();
        let grid = default_grid(RANKS);
        let mut out = Vec::with_capacity(self.configs.len());
        for (c, machine) in self.machines.iter().enumerate() {
            let alg = algorithm(self.configs[c].1);
            let (da, db, dc) = t.span("layout.dist_a/b/c (virtual)", || {
                (
                    dist_a(spec, grid, false),
                    dist_b(spec, grid, false),
                    dist_c(spec, grid, false),
                )
            });
            let opts = SimOptions::traced(machine.clone(), RANKS);
            let res = t.span("sim_run(parallel_gemm)", || {
                sim_run(&opts, |comm| {
                    parallel_gemm(comm, &alg, spec, &da, &db, &dc);
                })
            });
            t.span("drop distributed matrices and trace", || {
                drop((da, db, dc, res.trace))
            });
            out.push(res.stats);
        }
        t.end_call(start.elapsed().as_secs_f64(), self.configs.len() as u64);
        out
    }

    fn layers(&mut self, t: &Tally, _untraced: &[(usize, f64)], budget_s: f64) -> Layers {
        // Host seconds per modeled run, by algorithm: median over sweeps.
        let (mut srumma_s, mut summa_s) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while srumma_s.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
            let (mut sr, mut su) = (0.0, 0.0);
            for c in 0..self.configs.len() {
                let t0 = Instant::now();
                std::hint::black_box(self.run(c));
                let secs = t0.elapsed().as_secs_f64();
                if self.configs[c].1 {
                    sr += secs;
                } else {
                    su += secs;
                }
            }
            srumma_s.push(sr / Platform::ALL.len() as f64);
            summa_s.push(su / Platform::ALL.len() as f64);
        }
        let runs: Vec<&RunStats> = self.first.iter().flatten().collect();
        let mean = |f: &dyn Fn(&RunStats) -> f64| {
            runs.iter().map(|s| f(s)).sum::<f64>() / runs.len().max(1) as f64
        };
        let flops = self.spec.flops();
        let per_run = |name: &str| t.phase(name) / t.ops.max(1) as f64;
        let mut l = Layers::new();
        l.insert("layout.alloc_s", per_run("layout.dist_a/b/c (virtual)"));
        let srumma_runs = self.configs.iter().filter(|c| c.1).count();
        let srumma_tasks: u64 = self
            .configs
            .iter()
            .zip(&self.first)
            .filter_map(|(c, s)| s.as_ref().filter(|_| c.1))
            .map(RunStats::total_tasks)
            .sum();
        l.insert("srumma.tasks", srumma_tasks as f64 / srumma_runs as f64);
        l.insert("sim.host_s_per_run_srumma", crate::stats::median(&srumma_s));
        l.insert("sim.host_s_per_run_summa", crate::stats::median(&summa_s));
        l.insert("sim.modeled_makespan_s", mean(&|s| s.makespan));
        l.insert("sim.modeled_gflops", mean(&|s| s.gflops(flops)));
        l.insert(
            "sim.network_bytes",
            mean(&|s| s.total_network_bytes() as f64),
        );
        l.insert("sim.messages", mean(&messages));
        l
    }

    fn pool_rows(&self) -> &'static [(&'static str, &'static str)] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_gives_identical_inputs() {
        assert_eq!(inputs(11), inputs(11));
        let mut sorted = inputs(11);
        sorted.sort_by_key(|&(p, s)| (p as u8, s));
        assert_eq!(sorted.len(), 8);
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "every configuration exactly once");
        assert!((0..20).any(|s| inputs(s) != inputs(11)));
    }
}
