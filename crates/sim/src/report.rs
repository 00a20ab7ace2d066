//! Simulation results: per-worker time breakdowns and event counters.

use serde::{Deserialize, Serialize};

/// Per-worker time accounting, in cycles.
///
/// Matches the paper's §II taxonomy: **work** time is useful computation
/// (strand execution including memory stalls, plus the work-path spawn
/// overhead), **scheduling** time manages actual parallelism (promotions,
/// non-trivial syncs, suspensions, CHECKPARENT, pushes, mailbox traffic),
/// and **idle** time is everything else up to the makespan — the time the
/// worker spent failing to find work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerTimes {
    /// Useful work incl. spawn overhead and memory stalls.
    pub work: u64,
    /// Scheduling bookkeeping on the steal path.
    pub sched: u64,
    /// Failed steals and end-of-computation waiting.
    pub idle: u64,
}

/// Event counters across the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Steal attempts (successful or not), including mailbox inspections.
    pub steal_attempts: u64,
    /// Successful deque steals (= frame promotions in Cilk terms).
    pub steals: u64,
    /// Successful steals whose victim was on another socket.
    pub remote_steals: u64,
    /// Frames taken out of a mailbox (by owner or thief).
    pub mailbox_takes: u64,
    /// PUSHBACK attempts (each costs a message).
    pub push_attempts: u64,
    /// PUSHBACK deliveries into some mailbox.
    pub push_deliveries: u64,
    /// PUSHBACK episodes abandoned at the threshold.
    pub push_failures: u64,
    /// Non-trivial syncs executed (frame had been stolen).
    pub nontrivial_syncs: u64,
    /// Frames suspended at a sync.
    pub suspensions: u64,
    /// Provoked continuations resumed via CHECKPARENT.
    pub parent_resumes: u64,
}

/// The exact schedule of one run, recorded when
/// [`SimConfig::log_schedule`](crate::SimConfig) is set: enough to assert
/// two runs made identical scheduling decisions, which is how the
/// record→replay golden tests define determinism.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleLog {
    /// Successful deque steals in commit order: `(thief, victim, frame)`.
    pub steals: Vec<(usize, usize, usize)>,
    /// For each frame, the worker that executed its final step (`None` if
    /// the run ended before the frame completed — never the case for a
    /// finished run).
    pub executors: Vec<Option<usize>>,
}

/// The result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Completion time of the computation, in cycles.
    pub makespan: u64,
    /// Per-worker breakdowns (idle already normalized to the makespan).
    pub workers: Vec<WorkerTimes>,
    /// Event counters.
    pub counters: Counters,
    /// Lines serviced per latency class:
    /// `[private, llc_local, llc_remote, dram_local, dram_remote]`.
    pub class_lines: [u64; 5],
    /// The full schedule, present when the run was configured with
    /// [`SimConfig::log_schedule`](crate::SimConfig).
    pub schedule: Option<ScheduleLog>,
}

impl SimReport {
    /// Total work cycles across workers (the paper's `W_P`).
    pub fn total_work(&self) -> u64 {
        self.workers.iter().map(|w| w.work).sum()
    }

    /// Total scheduling cycles across workers (`S_P`).
    pub fn total_sched(&self) -> u64 {
        self.workers.iter().map(|w| w.sched).sum()
    }

    /// Total idle cycles across workers (`I_P`).
    pub fn total_idle(&self) -> u64 {
        self.workers.iter().map(|w| w.idle).sum()
    }

    /// Work inflation relative to a single-core run with total work `t1`:
    /// the paper's `W_P / T1`.
    pub fn work_inflation(&self, t1: u64) -> f64 {
        self.total_work() as f64 / t1 as f64
    }

    /// Fraction of lines serviced from remote sources (remote LLC + remote
    /// DRAM).
    pub fn remote_fraction(&self) -> f64 {
        let total: u64 = self.class_lines.iter().sum();
        if total == 0 {
            return 0.0;
        }
        (self.class_lines[2] + self.class_lines[4]) as f64 / total as f64
    }

    /// Number of workers in the run.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            makespan: 100,
            workers: vec![
                WorkerTimes { work: 80, sched: 10, idle: 10 },
                WorkerTimes { work: 60, sched: 0, idle: 40 },
            ],
            counters: Counters::default(),
            class_lines: [50, 30, 10, 5, 5],
            schedule: None,
        }
    }

    #[test]
    fn totals_sum_workers() {
        let r = report();
        assert_eq!(r.total_work(), 140);
        assert_eq!(r.total_sched(), 10);
        assert_eq!(r.total_idle(), 50);
    }

    #[test]
    fn inflation_relative_to_t1() {
        let r = report();
        assert!((r.work_inflation(70) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn remote_fraction_combines_classes() {
        let r = report();
        assert!((r.remote_fraction() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn empty_class_lines_no_panic() {
        let mut r = report();
        r.class_lines = [0; 5];
        assert_eq!(r.remote_fraction(), 0.0);
    }
}
