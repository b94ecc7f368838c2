//! # srumma-core — SRUMMA and its baselines
//!
//! This crate implements the primary contribution of Krishnan &
//! Nieplocha, *"SRUMMA: A Matrix Multiplication Algorithm Suitable for
//! Clusters and Scalable Shared Memory Systems"* (IPDPS 2004), together
//! with the two classic algorithms it is evaluated against:
//!
//! * [`srumma::srumma`] — the paper's algorithm: owner-computes over C,
//!   one-sided nonblocking gets of A/B blocks, locality-aware task
//!   ordering (SMP-first + diagonal shift), B1/B2 double buffering, and
//!   the two shared-memory flavors (direct access vs copy-based);
//! * [`summa::summa`] — SUMMA, the algorithm inside ScaLAPACK/PBLAS
//!   `pdgemm`, on message-passing broadcasts;
//! * [`cannon::cannon`] — Cannon's systolic algorithm on ring shifts.
//!
//! All three are generic over [`srumma_comm::Comm`], so they run
//! unchanged under the virtual-time machine simulator (paper-scale
//! experiments on the four modeled platforms) and on real host threads
//! (genuine parallel speedup; see the `quickstart` example).
//!
//! ## One request
//!
//! Every multiply is one [`request::Multiply`] — algorithm, spec,
//! operands (or none, for a shape-only modeled run), block-sparsity
//! masks, a fault plan, hierarchical staging, replication and tracing —
//! run on one [`request::Backend`] (`Sim`, `Virtual`, `Threads`,
//! `Exec`). Unsupported combinations and invalid input return a typed
//! [`request::PlanError`]; [`request::SUPPORTED`] lists the
//! combinations that have a driver. Streams of small multiplies use the
//! [`batch`] driver.
//!
//! ## Quick start
//!
//! ```
//! use srumma_core::driver::serial_reference;
//! use srumma_core::{Algorithm, Backend, GemmSpec, Multiply};
//! use srumma_dense::Matrix;
//!
//! let spec = GemmSpec::square(64);
//! let a = Matrix::random(64, 64, 1);
//! let b = Matrix::random(64, 64, 2);
//! let out = Multiply::new(Algorithm::srumma_default(), spec, &a, &b)
//!     .run(4, &Backend::threads())
//!     .unwrap();
//! let expect = serial_reference(&spec, &a, &b);
//! assert!(srumma_dense::max_abs_diff(&out.c.unwrap(), &expect) < 1e-9);
//! ```

pub mod api;
pub mod batch;
pub mod cannon;
pub mod chaos;
pub mod driver;
pub mod hier;
pub mod layout;
pub mod memory;
pub mod options;
pub mod repl;
pub mod request;
pub mod srumma;
pub mod summa;
pub mod taskorder;
pub mod tune;

pub use api::{parallel_gemm, Algorithm};
pub use batch::{
    batch_serial_reference, multiply_batch, multiply_batch_exec, multiply_batch_exec_tuned,
    multiply_batch_sim, multiply_batch_traced, BatchEntry, BatchResult, BatchSpec,
};
pub use chaos::{ChaosRecovery, ChaosSrummaRankTask};
pub use driver::SparseMasks;
pub use hier::{srumma_hier, HierRankTask, HierReport, HierStageSet, HierStages};
pub use options::{GemmSpec, ReplicationFactor, ShmemFlavor, SrummaOptions, TunerConfig};
pub use repl::{resolve_factor, srumma_replicated, ReplReport, ReplSet};
pub use request::{Backend, Multiply, Output, PlanError};
pub use srumma::{srumma as srumma_gemm, SrummaMachine, SrummaRankTask, SrummaReport};
pub use summa::SummaOptions;
pub use tune::{
    autotune_decision, multiply_autotuned, AutotuneDecision, HostProfile, ProfileError, Tuner,
    TunerCell, TunerStep, PROFILE_VERSION,
};
