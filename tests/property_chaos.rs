//! Chaos property suite: randomized fault plans (stragglers, get
//! spikes, rank death) on all three backends, checked against the
//! serial kernel — hostile conditions must degrade *performance*,
//! never *correctness*.
//!
//! Every plan is seeded and every schedule is a pure function of its
//! seed, so each failure message carries a one-line rerun command.
//! Set `SRUMMA_PROP_SEED` to pin one case or `SRUMMA_PROP_CASES` to
//! widen the sweep (see `srumma::dense::prop`).

use srumma::core::driver::{
    default_grid, multiply_exec, serial_reference, sparse_serial_reference,
};
use srumma::dense::{max_abs_diff, prop_rerun, prop_seeds, Rng};
use srumma::{
    Algorithm, Backend, BlockMask, FaultPlan, GemmSpec, Machine, Matrix, Multiply, SparseMasks,
    SrummaOptions,
};

const CASES: u64 = 6;

/// Per-element absolute tolerance for a k-term dot product.
fn tolerance(k: usize) -> f64 {
    1e-12 * (k.max(1) as f64) * 100.0
}

/// Wall-clock backends sleep for real on injected faults — keep the
/// injected latencies tiny so the suite stays fast.
const WALL_SPIKE_SECONDS: f64 = 2e-4;

/// Straggler-plus-spike plans on all three backends: the injected
/// delays stretch the schedule but the gathered C still matches the
/// serial kernel. SUMMA rides along under the simulator, exercising
/// the two-sided (`msg_factor`) fault path.
#[test]
fn straggled_backends_match_serial_reference() {
    let test = "straggled_backends_match_serial_reference";
    for seed in prop_seeds(0xC4A0_57A6, CASES) {
        let mut rng = Rng::new(seed);
        let n = rng.range(8, 32);
        let spec = GemmSpec::square(n);
        let nranks = *rng.pick(&[2usize, 4, 6, 8]);
        let a = Matrix::random(spec.m, spec.k, seed ^ 0xA);
        let b = Matrix::random(spec.k, spec.n, seed ^ 0xB);
        let expect = serial_reference(&spec, &a, &b);
        let opts = SrummaOptions::default();
        let plan =
            FaultPlan::random_stragglers(seed, nranks).with_get_spikes(0.25, WALL_SPIKE_SECONDS);

        let chaos = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b).faults(plan);
        let c_threads = chaos.run(nranks, &Backend::threads()).unwrap().c.unwrap();
        let d = max_abs_diff(&c_threads, &expect);
        assert!(
            d < tolerance(spec.k),
            "seed {seed:#x}: threads n={n} x{nranks}: |diff|={d:e}\n{}",
            prop_rerun(seed, test)
        );

        let workers = *rng.pick(&[1usize, 2, 3, 4]);
        let c_exec = chaos
            .run(nranks, &Backend::exec(workers))
            .unwrap()
            .c
            .unwrap();
        let d = max_abs_diff(&c_exec, &expect);
        assert!(
            d < tolerance(spec.k),
            "seed {seed:#x}: exec n={n} x{nranks} on {workers} workers: |diff|={d:e}\n{}",
            prop_rerun(seed, test)
        );

        // Virtual time costs nothing: spike harder under the simulator,
        // and run SUMMA too (its broadcasts cross the two-sided fault
        // path the one-sided algorithms never touch).
        let sim_plan = FaultPlan::random_stragglers(seed, nranks).with_get_spikes(0.25, 1e-3);
        let machine = Machine::linux_myrinet();
        for alg in [Algorithm::Srumma(opts), Algorithm::summa_default()] {
            let out = Multiply::new(alg, spec, &a, &b)
                .faults(sim_plan.clone())
                .run(nranks, &Backend::Sim(&machine))
                .unwrap();
            let (c_sim, stats) = (out.c.unwrap(), out.stats);
            let d = max_abs_diff(&c_sim, &expect);
            assert!(
                d < tolerance(spec.k),
                "seed {seed:#x}: sim {} n={n} x{nranks}: |diff|={d:e}\n{}",
                alg.name(),
                prop_rerun(seed, test)
            );
            assert!(stats.makespan > 0.0);
        }
    }
}

/// Fail-stop rank death with re-execution: the chaotic run's C must be
/// **bitwise** identical to the healthy executor run — the survivor
/// drives the dead rank's machine through the same tasks in the same
/// order with the same kernel, so even roundoff agrees.
#[test]
fn rank_death_reexecution_is_bitwise_exact() {
    let test = "rank_death_reexecution_is_bitwise_exact";
    // (nranks, workers, dead rank, tasks it completes first)
    for &(nranks, workers, dead, after) in
        &[(4usize, 2usize, 1usize, 0usize), (6, 3, 5, 1), (8, 2, 3, 2)]
    {
        let seed = (0xDEAD_0000 + nranks as u64) << 8 | dead as u64;
        let spec = GemmSpec::square(32);
        let a = Matrix::random(spec.m, spec.k, seed ^ 0xA);
        let b = Matrix::random(spec.k, spec.n, seed ^ 0xB);
        let opts = SrummaOptions::default();

        let (healthy, _) = multiply_exec(nranks, workers, &Algorithm::Srumma(opts), &spec, &a, &b);
        let plan = FaultPlan::healthy().with_death(dead, after);
        let res = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b)
            .faults(plan)
            .run(nranks, &Backend::exec(workers))
            .unwrap();
        let chaotic = res.c.as_ref().unwrap();

        assert_eq!(
            max_abs_diff(chaotic, &healthy),
            0.0,
            "x{nranks} w{workers} death(rank={dead}, after={after}): \
             re-executed C differs from the healthy run\n{}",
            prop_rerun(seed, test)
        );
        let expect = serial_reference(&spec, &a, &b);
        let d = max_abs_diff(chaotic, &expect);
        assert!(d < tolerance(spec.k), "vs serial: |diff|={d:e}");
        assert!(
            res.stats.total_tasks_reexecuted() > 0,
            "x{nranks} death(rank={dead}, after={after}): nobody re-executed anything"
        );
        assert_eq!(res.reports.len(), nranks, "every rank must complete");
    }
}

/// A death index at or past the rank's task count never fires: the run
/// completes as if healthy and nothing is re-executed.
#[test]
fn death_past_the_task_list_never_fires() {
    let spec = GemmSpec::square(16);
    let a = Matrix::random(spec.m, spec.k, 0xF1);
    let b = Matrix::random(spec.k, spec.n, 0xF2);
    let opts = SrummaOptions::default();
    let plan = FaultPlan::healthy().with_death(1, 1_000_000);
    let res = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b)
        .faults(plan)
        .run(4, &Backend::exec(2))
        .unwrap();
    let c = res.c.as_ref().unwrap();
    let expect = serial_reference(&spec, &a, &b);
    assert!(max_abs_diff(c, &expect) < tolerance(spec.k));
    assert_eq!(res.stats.total_tasks_reexecuted(), 0);
}

/// Masked (block-sparse) multiplies under a straggler-and-spike plan on
/// the simulator: pruning composes with fault injection. The density-0
/// corner is the sharp one — ranks whose every task is pruned hold
/// every fence while the plan delays the ranks they wait on.
#[test]
fn sparse_sim_chaos_matches_masked_reference() {
    let test = "sparse_sim_chaos_matches_masked_reference";
    for seed in prop_seeds(0x5BA_0C4A0, CASES) {
        let mut rng = Rng::new(seed);
        let n = rng.range(8, 32);
        let spec = GemmSpec::square(n);
        let nranks = *rng.pick(&[2usize, 4, 6]);
        let grid = default_grid(nranks);
        let a = Matrix::random(spec.m, spec.k, seed ^ 0xA);
        let b = Matrix::random(spec.k, spec.n, seed ^ 0xB);
        let density = |rng: &mut Rng| match rng.below(4) {
            0 => 0.0,
            _ => 0.3 + 0.2 * rng.below(3) as f64,
        };
        let masks = SparseMasks::new(
            BlockMask::random(grid.p, grid.q, density(&mut rng), seed ^ 0xAAAA),
            BlockMask::random(grid.p, grid.q, density(&mut rng), seed ^ 0xBBBB),
        );
        let plan = FaultPlan::random_stragglers(seed, nranks).with_get_spikes(0.3, 1e-3);
        let opts = SrummaOptions::default();
        let c = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b)
            .masks(masks.clone())
            .faults(plan)
            .run(nranks, &Backend::Sim(&Machine::linux_myrinet()))
            .unwrap()
            .c
            .unwrap();
        let expect = sparse_serial_reference(&spec, &a, &b, &masks);
        let d = max_abs_diff(&c, &expect);
        assert!(
            d < tolerance(spec.k),
            "seed {seed:#x}: sparse sim chaos n={n} x{nranks} da={:.2} db={:.2}: |diff|={d:e}\n{}",
            masks.a.as_ref().map_or(1.0, |m| m.density()),
            masks.b.as_ref().map_or(1.0, |m| m.density()),
            prop_rerun(seed, test)
        );
    }
}

/// The determinism guarantee itself: the same plan under the simulator
/// produces bit-for-bit identical results — C, the makespan, and the
/// injected-delay count — across repeated runs.
#[test]
fn sim_chaos_runs_are_bit_for_bit_reproducible() {
    let spec = GemmSpec::square(24);
    let nranks = 4;
    let a = Matrix::random(spec.m, spec.k, 0xD1);
    let b = Matrix::random(spec.k, spec.n, 0xD2);
    let plan = FaultPlan::random_stragglers(7, nranks).with_get_spikes(0.5, 2e-3);
    let machine = Machine::linux_myrinet();
    let alg = Algorithm::srumma_default();
    let chaos = Multiply::new(alg, spec, &a, &b).faults(plan);
    let (o1, o2) = (
        chaos.run(nranks, &Backend::Sim(&machine)).unwrap(),
        chaos.run(nranks, &Backend::Sim(&machine)).unwrap(),
    );
    let (c1, s1, c2, s2) = (o1.c.unwrap(), o1.stats, o2.c.unwrap(), o2.stats);
    assert_eq!(max_abs_diff(&c1, &c2), 0.0, "C must be bitwise stable");
    assert_eq!(
        s1.makespan.to_bits(),
        s2.makespan.to_bits(),
        "virtual-time makespan must be bitwise stable"
    );
    assert_eq!(s1.total_delays_injected(), s2.total_delays_injected());
    assert!(
        s1.total_delays_injected() > 0,
        "a 50% spike rate must inject at least one delay"
    );
}
