//! Shared harness for the experiment binaries (`fig3`, `fig7`, `fig8`,
//! `fig9`, `bounds`, ablations).
//!
//! The harness runs each paper benchmark's simulator DAG on the Figure 1
//! machine under both schedulers and derives the quantities the paper's
//! tables report: `TS`, `T1`, `T_P`, the work/scheduling/idle breakdown,
//! spawn overhead `T1/TS`, scalability `T1/T_P`, and work inflation
//! `W_P/T1`. Simulated cycles are echoed as seconds at the paper machine's
//! 2.2 GHz.

#![warn(missing_docs)]

use nws_apps::{cg, cilksort, heat, hull, matmul, strassen};
use nws_sim::{Dag, SimConfig, SimReport, Simulation};
use nws_topology::{presets, SchedPolicy, Topology};
use serde::Serialize;

/// The nine rows of the paper's Figures 7/8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BenchId {
    /// NAS conjugate gradient.
    Cg,
    /// Parallel mergesort.
    Cilksort,
    /// Jacobi heat diffusion.
    Heat,
    /// Quickhull, points in a disk.
    Hull1,
    /// Quickhull, points on a circle.
    Hull2,
    /// 8-way divide-and-conquer matmul, row-major.
    Matmul,
    /// Matmul on the blocked Z-Morton layout.
    MatmulZ,
    /// Strassen, row-major boundary.
    Strassen,
    /// Strassen on the blocked Z-Morton layout.
    StrassenZ,
}

impl BenchId {
    /// All nine table rows, in the paper's order.
    pub fn all() -> [BenchId; 9] {
        [
            BenchId::Cg,
            BenchId::Cilksort,
            BenchId::Heat,
            BenchId::Hull1,
            BenchId::Hull2,
            BenchId::Matmul,
            BenchId::MatmulZ,
            BenchId::Strassen,
            BenchId::StrassenZ,
        ]
    }

    /// The seven benchmarks of Figure 3 (no `-z` variants).
    pub fn fig3() -> [BenchId; 7] {
        [
            BenchId::Cilksort,
            BenchId::Heat,
            BenchId::Strassen,
            BenchId::Hull1,
            BenchId::Hull2,
            BenchId::Cg,
            BenchId::Matmul,
        ]
    }

    /// The seven curves of Figure 9 (the `-z` variants replace the plain
    /// matrix benchmarks, as in the paper's legend).
    pub fn fig9() -> [BenchId; 7] {
        [
            BenchId::Cilksort,
            BenchId::Heat,
            BenchId::StrassenZ,
            BenchId::Hull1,
            BenchId::Hull2,
            BenchId::Cg,
            BenchId::MatmulZ,
        ]
    }

    /// The benchmark's display name (paper spelling).
    pub fn name(self) -> &'static str {
        match self {
            BenchId::Cg => "cg",
            BenchId::Cilksort => "cilksort",
            BenchId::Heat => "heat",
            BenchId::Hull1 => "hull1",
            BenchId::Hull2 => "hull2",
            BenchId::Matmul => "matmul",
            BenchId::MatmulZ => "matmul-z",
            BenchId::Strassen => "strassen",
            BenchId::StrassenZ => "strassen-z",
        }
    }

    /// Builds the simulator DAG at simulator scale for a run with `places`
    /// places.
    pub fn dag(self, places: usize) -> Dag {
        match self {
            BenchId::Cg => cg::dag(cg::Params::sim(), places),
            BenchId::Cilksort => cilksort::dag(cilksort::Params::sim(), places),
            BenchId::Heat => heat::dag(heat::Params::sim(), places),
            BenchId::Hull1 => hull::dag(hull::Params::sim(), places, hull::Dataset::InDisk),
            BenchId::Hull2 => hull::dag(hull::Params::sim(), places, hull::Dataset::OnCircle),
            BenchId::Matmul => matmul::dag(matmul::Params::sim(), matmul::Layout::RowMajor),
            BenchId::MatmulZ => matmul::dag(matmul::Params::sim(), matmul::Layout::BlockedZ),
            BenchId::Strassen => strassen::dag(strassen::Params::sim(), matmul::Layout::RowMajor),
            BenchId::StrassenZ => strassen::dag(strassen::Params::sim(), matmul::Layout::BlockedZ),
        }
    }
}

/// The paper's evaluation machine.
pub fn machine() -> Topology {
    presets::paper_machine()
}

/// Places in use for `p` packed workers on the paper machine.
pub fn places_for(p: usize) -> usize {
    p.div_ceil(8).max(1)
}

/// One full benchmark measurement at a given worker count.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Benchmark name.
    pub bench: &'static str,
    /// Worker count.
    pub workers: usize,
    /// Serial elision cycles.
    pub ts: u64,
    /// One-worker cycles (same scheduler).
    pub t1: u64,
    /// P-worker makespan cycles.
    pub tp: u64,
    /// P-worker report (breakdown + counters).
    pub report: SimReport,
}

impl Measurement {
    /// Spawn overhead `T1/TS`.
    pub fn spawn_overhead(&self) -> f64 {
        self.t1 as f64 / self.ts as f64
    }

    /// Scalability `T1/TP`.
    pub fn scalability(&self) -> f64 {
        self.t1 as f64 / self.tp as f64
    }

    /// Work inflation `W_P/T1`.
    pub fn inflation(&self) -> f64 {
        self.report.total_work() as f64 / self.t1 as f64
    }
}

/// Runs `bench` under `policy` with `workers` workers (packed placement on
/// the paper machine) and derives TS/T1/TP.
pub fn measure(bench: BenchId, policy: SchedPolicy, workers: usize, seed: u64) -> Measurement {
    let topo = machine();
    let places = places_for(workers);
    let dag = bench.dag(places);
    let cfg_p = SimConfig::with_policy(policy, workers).with_seed(seed);
    let ts = Simulation::serial_elision(&topo, &cfg_p, &dag);
    // T1 on one worker uses a one-place DAG (hints collapse to one place)
    // with the same scheduler flavor.
    let dag1 = bench.dag(1);
    let t1 = Simulation::new(&topo, SimConfig::with_policy(policy, 1).with_seed(seed), &dag1)
        .expect("one worker fits")
        .run()
        .makespan;
    let report = Simulation::new(&topo, cfg_p, &dag).expect("config fits").run();
    Measurement { bench: bench.name(), workers, ts, t1, tp: report.makespan, report }
}

/// Formats simulated cycles as seconds on the 2.2 GHz paper machine.
pub fn secs(cycles: u64) -> f64 {
    nws_metrics::cycles_to_seconds(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn places_for_matches_paper_packing() {
        assert_eq!(places_for(1), 1);
        assert_eq!(places_for(8), 1);
        assert_eq!(places_for(9), 2);
        assert_eq!(places_for(24), 3);
        assert_eq!(places_for(32), 4);
    }

    #[test]
    fn names_cover_all() {
        let names: Vec<&str> = BenchId::all().iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 9);
        assert!(names.contains(&"matmul-z"));
    }

    #[test]
    fn small_measurement_is_consistent() {
        let m = measure(BenchId::Cilksort, SchedPolicy::numa_ws(), 4, 1);
        assert!(m.ts > 0);
        assert!(m.t1 >= m.ts, "T1 includes spawn overhead");
        assert!(m.tp <= m.t1, "parallel run should not be slower than T1");
        assert!(m.spawn_overhead() >= 1.0);
        assert!(m.scalability() >= 1.0);
    }
}
