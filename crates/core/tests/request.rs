//! Table-driven tests of the `Multiply` request: every supported
//! backend × feature combination in all four transpose cases, checked
//! against the serial references, and every invalid or unsupported
//! request checked to return its `PlanError` without panicking.

use srumma_comm::{FaultPlan, FaultPlanError};
use srumma_core::driver::{default_grid, sparse_serial_reference, SparseMasks};
use srumma_core::request::{Operands, SUPPORTED};
use srumma_core::{
    Algorithm, Backend, GemmSpec, Multiply, PlanError, ReplicationFactor, SrummaOptions,
};
use srumma_dense::{max_abs_diff, BlockMask, Matrix, Op};
use srumma_model::machine::RanksPerDomain;
use srumma_model::Machine;

const NRANKS: usize = 8;
const RPN: usize = 2;

/// Small-integer matrix (entries in −4..=4): every product and partial
/// sum is exact in f64, so any summation order gives the same bits.
fn int_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let mut s = seed;
    for i in 0..rows {
        for j in 0..cols {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m[(i, j)] = ((s >> 33) % 9) as f64 - 4.0;
        }
    }
    m
}

/// A cluster of two-rank nodes, so hierarchical staging and replica
/// teams have real node boundaries.
fn cluster() -> Machine {
    let mut m = Machine::linux_myrinet();
    m.ranks_per_domain = RanksPerDomain::Fixed(RPN);
    m
}

fn masks() -> SparseMasks {
    let grid = default_grid(NRANKS);
    SparseMasks::new(
        BlockMask::random(grid.p, grid.q, 0.5, 0xAAAA),
        BlockMask::random(grid.p, grid.q, 0.5, 0xBBBB),
    )
}

/// Stragglers and get spikes, plus a rank death where the backend
/// re-executes it.
fn faults(backend: &str) -> FaultPlan {
    let plan = FaultPlan::random_stragglers(7, NRANKS).with_get_spikes(0.25, 2e-4);
    if backend == "exec" {
        plan.with_death(3, 1)
    } else {
        plan
    }
}

/// The backend a supported row runs on: emulated two-rank nodes for
/// the hierarchical and replicated rows of the host backends.
fn backend<'m>(name: &str, features: &str, machine: &'m Machine) -> Backend<'m> {
    let nodes = (features.contains("hier") || features.contains("replicated")).then_some(RPN);
    match name {
        "sim" => Backend::Sim(machine),
        "virtual" => Backend::Virtual {
            machine,
            workers: 2,
        },
        "threads" => Backend::Threads {
            ranks_per_node: nodes,
        },
        "exec" => Backend::Exec {
            workers: 2,
            ranks_per_node: nodes,
        },
        other => panic!("unknown backend {other}"),
    }
}

/// The request for one row's features.
fn request<'a>(alg: Algorithm, spec: GemmSpec, backend: &str, features: &str) -> Multiply<'a> {
    let mut r = Multiply::modeled(alg, spec);
    for f in features.split('+') {
        r = match f {
            "plain" => r,
            "sparse" => r.masks(masks()),
            "chaos" => r.faults(faults(backend)),
            "hier" => r.hier(),
            "replicated" => r.replicated(ReplicationFactor::Fixed(2)),
            "traced" => r.traced(),
            other => panic!("unknown feature {other}"),
        };
    }
    r
}

/// `alpha · A·B` with the request's masks applied.
fn reference(r: &Multiply, a: &Matrix, b: &Matrix) -> Matrix {
    let mut want = sparse_serial_reference(&r.spec, a, b, &r.masks);
    for i in 0..r.spec.m {
        for j in 0..r.spec.n {
            want[(i, j)] *= r.spec.alpha;
        }
    }
    want
}

const OPS: [(Op, Op); 4] = [
    (Op::N, Op::N),
    (Op::N, Op::T),
    (Op::T, Op::N),
    (Op::T, Op::T),
];

/// Every supported combination, every transpose case: float operands
/// within the suites' 1e-9 tolerance, small-integer operands bitwise
/// (so hierarchical, replicated and chaotic runs match the flat
/// healthy product exactly), and chaotic float runs bitwise against
/// the healthy run on the same backend.
#[test]
fn every_supported_combination_matches_the_serial_reference() {
    let machine = cluster();
    for &(name, features, operands, any_algorithm) in SUPPORTED {
        let algs = if any_algorithm {
            vec![Algorithm::srumma_default(), Algorithm::summa_default()]
        } else {
            vec![Algorithm::Srumma(SrummaOptions::default())]
        };
        let be = backend(name, features, &machine);
        for alg in algs {
            for (ta, tb) in OPS {
                let spec = GemmSpec::new(ta, tb, 20, 18, 28).with_scalars(2.0, 0.0);
                let label = format!("{} {} {} {}", name, features, alg.name(), spec.case_label());
                let r = request(alg, spec, name, features);
                if operands != Operands::Real {
                    let out = r
                        .run(NRANKS, &be)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert!(out.c.is_none(), "{label}: shape-only run gathered C");
                    assert!(out.stats.makespan > 0.0, "{label}: no modeled time");
                    assert_eq!(out.trace.is_empty(), !r.trace, "{label}: trace");
                }
                if operands == Operands::ShapeOnly {
                    continue;
                }
                let a = Matrix::random(spec.m, spec.k, 1);
                let b = Matrix::random(spec.k, spec.n, 2);
                let run = |r: &Multiply| {
                    r.run(NRANKS, &be)
                        .unwrap_or_else(|e| panic!("{label}: {e}"))
                };
                let real = Multiply {
                    operands: Some((&a, &b)),
                    ..r.clone()
                };
                let out = run(&real);
                let got = out.c.as_ref().expect("real runs gather C");
                let diff = max_abs_diff(got, &reference(&real, &a, &b));
                assert!(diff < 1e-9, "{label}: |diff|={diff:e}");
                assert_eq!(out.trace.is_empty(), !r.trace, "{label}: trace");
                if matches!(alg, Algorithm::Srumma(_)) {
                    assert_eq!(out.reports.len(), NRANKS, "{label}: reports");
                }
                if r.faults.is_some() {
                    let healthy = run(&Multiply {
                        faults: None,
                        ..real.clone()
                    });
                    assert_eq!(
                        max_abs_diff(got, healthy.c.as_ref().unwrap()),
                        0.0,
                        "{label}: chaos must not change a bit of C"
                    );
                }
                let (ai, bi) = (int_matrix(spec.m, spec.k, 3), int_matrix(spec.k, spec.n, 4));
                let exact = Multiply {
                    operands: Some((&ai, &bi)),
                    ..r.clone()
                };
                let got = run(&exact).c.unwrap();
                assert_eq!(
                    max_abs_diff(&got, &reference(&exact, &ai, &bi)),
                    0.0,
                    "{label}: integer operands must be exact"
                );
            }
        }
    }
}

/// Hierarchical runs report the panels each rank staged for its node
/// group, and replicated runs the factor they resolved.
#[test]
fn reports_carry_staging_and_replication() {
    let spec = GemmSpec::square(24);
    let (a, b) = (Matrix::random(24, 24, 5), Matrix::random(24, 24, 6));
    let exec = Backend::Exec {
        workers: 2,
        ranks_per_node: Some(RPN),
    };
    let hier = Multiply::new(Algorithm::srumma_default(), spec, &a, &b)
        .hier()
        .run(NRANKS, &exec)
        .unwrap();
    assert_eq!(hier.staged_panels.len(), NRANKS);
    assert!(hier.staged_panels.iter().any(|&s| s > 0));
    let auto = ReplicationFactor::Auto {
        budget_bytes: u64::MAX,
    };
    let repl = Multiply::new(Algorithm::srumma_default(), spec, &a, &b)
        .replicated(auto)
        .run(NRANKS, &exec)
        .unwrap();
    assert!(repl.replication > 1);
    assert_eq!(hier.replication, 1);
}

/// Each invalid input returns its own `PlanError`.
#[test]
fn invalid_requests_return_typed_errors() {
    let machine = cluster();
    let spec = GemmSpec::square(16);
    let (a, b) = (Matrix::random(16, 16, 1), Matrix::random(16, 16, 2));
    let wide = Matrix::random(16, 17, 3);
    let srumma = Multiply::new(Algorithm::srumma_default(), spec, &a, &b);
    let threads = Backend::threads();
    let sim = Backend::Sim(&machine);

    let err = |r: &Multiply, nranks: usize, be: &Backend| r.run(nranks, be).unwrap_err();

    assert_eq!(err(&srumma, 0, &threads), PlanError::NoRanks);
    for (r, operand) in [
        (
            Multiply::new(Algorithm::srumma_default(), spec, &wide, &b),
            'A',
        ),
        (
            Multiply::new(Algorithm::srumma_default(), spec, &a, &wide),
            'B',
        ),
    ] {
        assert!(matches!(
            err(&r, NRANKS, &threads),
            PlanError::OperandShape { operand: o, got: (16, 17), want: (16, 16) } if o == operand
        ));
    }

    let sized_for_4 = srumma.clone().faults(FaultPlan::random_stragglers(1, 4));
    assert_eq!(
        err(&sized_for_4, NRANKS, &threads),
        PlanError::Faults(FaultPlanError::WrongRankCount {
            plan: 4,
            nranks: NRANKS
        })
    );
    let speedup = srumma
        .clone()
        .faults(FaultPlan::single_straggler(NRANKS, 1, 0.5));
    assert_eq!(
        err(&speedup, NRANKS, &sim),
        PlanError::Faults(FaultPlanError::Slowdown {
            rank: 1,
            factor: 0.5
        })
    );
    let death = srumma.clone().faults(FaultPlan::healthy().with_death(1, 0));
    for be in [sim, threads] {
        assert_eq!(
            err(&death, NRANKS, &be),
            PlanError::DeathUnsupported { backend: be.name() }
        );
    }

    let three = srumma.clone().replicated(ReplicationFactor::Fixed(3));
    assert!(matches!(
        err(&three, NRANKS, &sim),
        PlanError::InadmissibleFactor { factor: 3, .. }
    ));

    for rpn in [0, 3] {
        for be in [
            Backend::Threads {
                ranks_per_node: Some(rpn),
            },
            Backend::Exec {
                workers: 2,
                ranks_per_node: Some(rpn),
            },
        ] {
            assert_eq!(
                err(&srumma.clone().hier(), NRANKS, &be),
                PlanError::RanksPerNode {
                    ranks_per_node: rpn,
                    nranks: NRANKS
                }
            );
        }
    }

    let summa = Multiply::new(Algorithm::summa_default(), spec, &a, &b);
    let cannon = Multiply::new(Algorithm::Cannon, spec, &a, &b);
    for (r, be) in [
        (summa.clone().masks(masks()), sim),
        (cannon.clone().masks(masks()), Backend::exec(2)),
        (summa.clone().faults(faults("threads")), threads),
        (cannon.faults(faults("exec")), Backend::exec(2)),
    ] {
        assert!(
            matches!(err(&r, NRANKS, &be), PlanError::NeedsSrumma { .. }),
            "{} on {}",
            r.features(),
            be.name()
        );
    }

    let virt = Backend::Virtual {
        machine: &machine,
        workers: 2,
    };
    assert_eq!(
        err(&srumma, NRANKS, &virt),
        PlanError::RealOperandsOnVirtual
    );
    let modeled = Multiply::modeled(Algorithm::srumma_default(), spec);
    for be in [threads, Backend::exec(2)] {
        assert_eq!(
            err(&modeled, NRANKS, &be),
            PlanError::ShapeOnlyOnHost { backend: be.name() }
        );
    }
}

/// Every backend × feature set × operand kind without a driver returns
/// `Unsupported`, including the holes no deleted entry point covered
/// (exec hierarchical + replicated, sparse + hierarchical, exec sparse
/// + chaos) and flat runs on emulated nodes.
#[test]
fn unsupported_combinations_return_unsupported() {
    let machine = cluster();
    let spec = GemmSpec::square(16);
    let (a, b) = (Matrix::random(16, 16, 1), Matrix::random(16, 16, 2));
    let features = ["sparse", "chaos", "hier", "replicated", "traced"];
    let mut rejected = 0;
    for name in ["sim", "virtual", "threads", "exec"] {
        for bits in 0u32..1 << features.len() {
            let set: Vec<&str> = (0..features.len())
                .filter(|i| bits & (1 << i) != 0)
                .map(|i| features[i])
                .collect();
            let label = if set.is_empty() {
                "plain".to_string()
            } else {
                set.join("+")
            };
            let be = backend(name, &label, &machine);
            let host = matches!(name, "threads" | "exec");
            for real in [true, false] {
                if real == (name == "virtual") || host && !real {
                    continue; // the operand-kind errors, tested above
                }
                let excluded = if real {
                    Operands::ShapeOnly
                } else {
                    Operands::Real
                };
                let supported = SUPPORTED
                    .iter()
                    .any(|r| r.0 == name && r.1 == label && r.2 != excluded);
                if supported {
                    continue;
                }
                let mut r = request(Algorithm::srumma_default(), spec, name, &label);
                if real {
                    r.operands = Some((&a, &b));
                }
                assert_eq!(r.features(), label);
                assert!(
                    matches!(r.run(NRANKS, &be), Err(PlanError::Unsupported { .. })),
                    "{name} {label} real={real}"
                );
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0);
    let flat_on_nodes = Multiply::new(Algorithm::srumma_default(), spec, &a, &b);
    for be in [
        Backend::Threads {
            ranks_per_node: Some(RPN),
        },
        Backend::Exec {
            workers: 2,
            ranks_per_node: Some(RPN),
        },
    ] {
        assert!(matches!(
            flat_on_nodes.run(NRANKS, &be),
            Err(PlanError::Unsupported { .. })
        ));
    }
}
