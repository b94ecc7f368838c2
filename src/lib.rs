//! # srumma — facade crate
//!
//! Re-exports the full SRUMMA reproduction workspace under one roof.
//! See the individual crates for detail:
//!
//! * [`srumma_core`] (re-exported as [`core`]) — SRUMMA + baselines;
//! * [`srumma_comm`] ([`comm`]) — ARMCI/MPI-style substrate;
//! * [`srumma_sim`] ([`sim`]) — deterministic virtual-time simulator;
//! * [`srumma_model`] ([`model`]) — machine & protocol cost models;
//! * [`srumma_dense`] ([`dense`]) — serial blocked dgemm;
//! * [`srumma_trace`] ([`trace`]) — per-rank event recorder & metrics.
//!
//! Every multiply is one [`Multiply`] request run on one [`Backend`];
//! it returns an [`Output`] or a typed [`PlanError`].

pub use srumma_comm as comm;
pub use srumma_core as core;
pub use srumma_dense as dense;
pub use srumma_model as model;
pub use srumma_sim as sim;
pub use srumma_trace as trace;

pub use srumma_comm::{ChaosComm, FaultPlan, RankDeath};
pub use srumma_core::{Algorithm, GemmSpec, ShmemFlavor, SrummaOptions, SummaOptions};
pub use srumma_core::{Backend, Multiply, Output, PlanError};
pub use srumma_core::{BatchEntry, BatchResult, BatchSpec, ReplicationFactor, SparseMasks};
pub use srumma_dense::{max_abs_diff, BlockMask, Matrix, Op};
pub use srumma_model::{Machine, Platform, Topology};
