//! The NUMA-WS paper's benchmark suite (§V).
//!
//! Every benchmark ships in three forms:
//!
//! 1. **serial elision** (`*_serial`) — the identical algorithm with the
//!    parallel constructs removed; defines `TS`;
//! 2. **parallel version** (`*_parallel`) — runs on the real
//!    [`numa_ws`] runtime with Figure 4-style locality hints, inside
//!    [`Pool::install`](numa_ws::Pool::install);
//! 3. **simulator DAG** (`dag(...)`) — the same recursion, coarsening, and
//!    memory footprints expressed as an [`nws_sim`] task DAG, which is what
//!    regenerates the paper's tables and figures on the simulated
//!    four-socket machine (see DESIGN.md §2).
//!
//! [`heat`], [`matmul`] and [`strassen`] write the three forms once: one
//! recursion over a fork-join trait, run serially, on the pool, or recorded
//! into the DAG (DESIGN.md §3, "One recursion per kernel"); [`cilksort`]
//! does so for its pool run and DAG. The others build their DAGs by hand.
//!
//! | module | paper benchmark | input |
//! |---|---|---|
//! | [`cg`] | NAS conjugate gradient | random SPD sparse matrix |
//! | [`cilksort`] | mergesort + parallel merge | random u64 keys |
//! | [`heat`] | Jacobi heat diffusion | hot square on cold plate |
//! | [`hull`] | quickhull | in-disk (`hull1`) / on-circle (`hull2`) |
//! | [`matmul`] | 8-way D&C matmul (+`-z`) | dense f64 |
//! | [`strassen`] | Strassen (+`-z`) | dense f64 |
//!
//! Two *irregular* workloads extend the suite beyond the paper (scheduler
//! comparison coverage — see DESIGN.md §8):
//!
//! | module | shape | input |
//! |---|---|---|
//! | [`gcmark`] | GC mark-phase flood | random object graph |
//! | [`pipeline`] | heterogeneous stage/service mix | seeded batches |
//!
//! `pipeline` has no simulator DAG; it runs on the real runtime only.

#![warn(missing_docs)]

pub mod cg;
pub mod cilksort;
pub mod common;
mod fork;
pub mod gcmark;
pub mod heat;
pub mod hull;
pub mod matmul;
pub mod pipeline;
mod record;
pub mod strassen;
