//! The closed-loop batch harness shared by the workloads: the same unit of
//! work runs as the serial elision (`TS`), on a 1-worker pool (`T1`) and on
//! the 2-worker pool under test (`T2`), interleaved so that drift in the
//! machine's speed affects every executor alike.

use crate::spans::Tracer;
use numa_ws::{Pool, PoolStats, SchedPolicy};
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub enum Exec<'a> {
    Serial,
    Pool(&'a Pool),
}

impl Exec<'_> {
    /// Runs one kernel call as `app`: directly for the serial elision,
    /// inside `install` on a pool. With a tracer, records the kernel's span,
    /// and on a pool the `install` span as its parent.
    pub fn run<R: Send>(
        self,
        tr: Option<&mut Tracer>,
        app: &'static str,
        f: impl FnOnce() -> R + Send,
    ) -> R {
        match (self, tr) {
            (Exec::Serial, None) => f(),
            (Exec::Pool(pool), None) => pool.install(f),
            (Exec::Serial, Some(t)) => {
                let s = Instant::now();
                let r = f();
                t.push(app, s, Instant::now(), None);
                r
            }
            (Exec::Pool(pool), Some(t)) => {
                let a = Instant::now();
                let (r, s, e) = pool.install(|| {
                    let s = Instant::now();
                    let r = f();
                    (r, s, Instant::now())
                });
                let install = t.push("core.install", a, Instant::now(), None);
                t.push(app, s, e, Some(install));
                r
            }
        }
    }
}

/// One unit of work of a batch workload.
pub trait Batch {
    /// Untimed: restores inputs the previous unit consumed.
    fn reset(&mut self) {}
    /// Timed: runs the unit on `exec`.
    fn run(&mut self, exec: Exec<'_>, tr: Option<&mut Tracer>);
    /// Untimed: whether the last unit's outputs match the serial oracle.
    fn check(&self) -> bool;
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Serial,
    T1,
    T2,
}

pub fn build_pool(workers: usize, places: usize, policy: SchedPolicy, stats: bool) -> Pool {
    Pool::builder()
        .workers(workers)
        .places(places)
        .policy(policy)
        .stats(stats)
        .build()
        .expect("pool configuration is valid")
}

/// The pools a batch runs on. In a traced run `t1` and `t2` keep
/// time-breakdown stats and a second, untraced 2-worker pool gives the
/// baseline for the tracing overhead.
pub struct Pools {
    pub t1: Pool,
    pub t2: Pool,
    pub t2_untraced: Option<Pool>,
}

impl Pools {
    pub fn new(places: usize, policy: SchedPolicy, traced: bool) -> Pools {
        Pools {
            t1: build_pool(1, 1, policy, traced),
            t2: build_pool(2, places, policy, traced),
            t2_untraced: traced.then(|| build_pool(2, places, policy, false)),
        }
    }
}

/// Unit times in ms per executor, the oracle ledger, and the pools'
/// counters over the measured units.
#[derive(Default)]
pub struct BatchResult {
    pub ts: Vec<f64>,
    pub t1: Vec<f64>,
    pub t2: Vec<f64>,
    pub t2_untraced: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub t1_stats: PoolStats,
    pub t2_stats: PoolStats,
}

fn time_unit<B: Batch>(
    b: &mut B,
    exec: Exec<'_>,
    tr: Option<&mut Tracer>,
    r: &mut BatchResult,
) -> f64 {
    b.reset();
    let t = Instant::now();
    b.run(exec, tr);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    r.attempted += 1;
    if !b.check() {
        r.failed += 1;
    }
    ms
}

/// Runs one unit on every executor to warm up, then `pattern` repeatedly
/// until `budget` has passed. `pattern` holds one `Serial`, one `T1` and at
/// least one `T2`; only whole rounds run. In a traced run (`tr` given) every `T2` unit is paired with an
/// untraced one on `pools.t2_untraced`, alternating which runs first.
pub fn run_batch<B: Batch>(
    b: &mut B,
    pools: &Pools,
    pattern: &[Phase],
    budget: Duration,
    mut tr: Option<&mut Tracer>,
) -> BatchResult {
    let mut r = BatchResult::default();
    let warm_up = [Some(&pools.t1), Some(&pools.t2), pools.t2_untraced.as_ref()];
    time_unit(b, Exec::Serial, None, &mut r);
    for pool in warm_up.into_iter().flatten() {
        time_unit(b, Exec::Pool(pool), None, &mut r);
    }
    pools.t1.reset_stats();
    pools.t2.reset_stats();
    let deadline = Instant::now() + budget;
    let mut unit = 0u64;
    while Instant::now() < deadline {
        for &phase in pattern {
            unit += 1;
            if let Some(t) = tr.as_deref_mut() {
                t.unit = unit;
                t.phase = match phase {
                    Phase::Serial => "serial",
                    Phase::T1 => "t1",
                    Phase::T2 => "t2",
                };
            }
            match phase {
                Phase::Serial => {
                    let ms = time_unit(b, Exec::Serial, tr.as_deref_mut(), &mut r);
                    r.ts.push(ms);
                }
                Phase::T1 => {
                    let ms = time_unit(b, Exec::Pool(&pools.t1), tr.as_deref_mut(), &mut r);
                    r.t1.push(ms);
                }
                Phase::T2 => {
                    let untraced = pools.t2_untraced.as_ref().map(Exec::Pool);
                    let baseline_first = unit.is_multiple_of(2);
                    if let (Some(exec), true) = (untraced, baseline_first) {
                        let ms = time_unit(b, exec, None, &mut r);
                        r.t2_untraced.push(ms);
                    }
                    let ms = time_unit(b, Exec::Pool(&pools.t2), tr.as_deref_mut(), &mut r);
                    r.t2.push(ms);
                    if let (Some(exec), false) = (untraced, baseline_first) {
                        let ms = time_unit(b, exec, None, &mut r);
                        r.t2_untraced.push(ms);
                    }
                }
            }
        }
    }
    r.t1_stats = pools.t1.stats();
    r.t2_stats = pools.t2.stats();
    r
}
