//! `service_open`: one generator thread offers requests on a fixed open-loop
//! schedule through `try_spawn_at` into bounded per-place ingress queues
//! that reject when full. A request is a `join`-tree reduction of hashed
//! keys over a slice of a shared array, with Zipf-distributed sizes. Hashing
//! makes it compute-bound, so its time does not swing with the traffic other
//! tenants put on the shared cache. Its latency runs from the time it was
//! due, so a stalled generator or a backed-up queue shows as latency.

use crate::harness::{Batch, Exec};
use crate::spans::Tracer;
use crate::stats::quantile;
use numa_ws::{OverflowPolicy, Place, Pool, SchedPolicy};
use nws_apps::common::random_keys;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const PLACES: usize = 2;
/// Offered rate of the measured open loop.
pub const NOMINAL_RPS: f64 = 1000.0;
/// Rates of the capacity ladder, lowest first.
pub const LADDER_RPS: [f64; 6] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0];
/// The p99 latency a ladder rate must meet (refused requests count as
/// missing it).
pub const P99_LIMIT_MS: f64 = 5.0;
const INGRESS_CAPACITY: usize = 256;
const DATA_LEN: usize = 1 << 20;
/// Request sizes are `k * BLOCK` elements, `k` Zipf-distributed over
/// `1..=MAX_K` with exponent `ZIPF_S`.
const BLOCK: usize = 4096;
const MAX_K: usize = 64;
const ZIPF_S: f64 = 1.1;
const LEAF: usize = 4096;
const DISTINCT_REQUESTS: usize = 1 << 14;
/// Requests in one closed-loop burst unit.
pub const BATCH: usize = 256;
/// The generator sleeps until this long before a request is due and spins
/// the rest of the way, so timer slack does not show up as lag.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(100);
/// How long to wait for the last accepted requests after the schedule ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Clone, Copy)]
struct Req {
    lo: usize,
    hi: usize,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix(*state)
}

/// The SplitMix64 finalizer: what a request sums for each key.
fn mix(x: u64) -> u64 {
    let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn leaf(xs: &[u64]) -> u64 {
    xs.iter().fold(0, |a, &x| a.wrapping_add(mix(x)))
}

fn reduce_serial(xs: &[u64]) -> u64 {
    if xs.len() <= LEAF {
        return leaf(xs);
    }
    let (l, r) = xs.split_at(xs.len() / 2);
    reduce_serial(l).wrapping_add(reduce_serial(r))
}

fn reduce(xs: &[u64]) -> u64 {
    if xs.len() <= LEAF {
        return leaf(xs);
    }
    let (l, r) = xs.split_at(xs.len() / 2);
    let (a, b) = numa_ws::join(|| reduce(l), || reduce(r));
    a.wrapping_add(b)
}

fn open_pool(stats: bool) -> Pool {
    Pool::builder()
        .workers(2)
        .places(PLACES)
        .policy(SchedPolicy::numa_ws())
        .stats(stats)
        .ingress_capacity(INGRESS_CAPACITY)
        .overflow(OverflowPolicy::Reject)
        .build()
        .expect("pool configuration is valid")
}

pub struct Service {
    data: Arc<Vec<u64>>,
    reqs: Vec<Req>,
    /// Wrapping prefix sums of the hashed `data`: the oracle of every
    /// request.
    prefix: Vec<u64>,
    batch_out: Vec<Option<u64>>,
    /// Open-loop pool without time-breakdown stats.
    pub pool: Pool,
    /// Open-loop pool with time-breakdown stats, for traced runs.
    pub traced_pool: Option<Pool>,
}

/// The outcome of one open-loop schedule. Times are per accepted request;
/// `latency_ms` holds infinity for every refused or lost request.
#[derive(Default)]
pub struct OpenLoop {
    pub latency_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queue_wait_us: Vec<f64>,
    pub request_us: Vec<f64>,
    pub attempted: u64,
    pub rejected: u64,
    pub wrong: u64,
    pub lost: u64,
    pub sheds: u64,
    pub wakeups: u64,
    /// Accepted requests not yet completed when the schedule ended.
    pub backlog_end: u64,
}

impl OpenLoop {
    /// Appends another schedule's outcome to this one.
    pub fn merge(&mut self, o: OpenLoop) {
        self.latency_ms.extend(o.latency_ms);
        self.lag_ms.extend(o.lag_ms);
        self.submit_us.extend(o.submit_us);
        self.queue_wait_us.extend(o.queue_wait_us);
        self.request_us.extend(o.request_us);
        self.attempted += o.attempted;
        self.rejected += o.rejected;
        self.wrong += o.wrong;
        self.lost += o.lost;
        self.sheds += o.sheds;
        self.wakeups += o.wakeups;
        self.backlog_end += o.backlog_end;
    }

    pub fn failed(&self) -> u64 {
        self.rejected + self.wrong + self.lost + self.sheds
    }

    /// Whether the rate met the latency limit without a growing backlog.
    pub fn meets_limit(&self) -> bool {
        quantile(&self.latency_ms, 0.99) <= P99_LIMIT_MS
            && self.backlog_end <= (self.attempted / 100).max(8)
    }
}

impl Service {
    pub fn new(seed: u64, traced: bool) -> Self {
        let data = random_keys(DATA_LEN, seed);
        let mut weights: Vec<f64> = (1..=MAX_K).map(|k| (k as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        let mut rng = seed ^ 0x5E41_11CE;
        let reqs = (0..DISTINCT_REQUESTS)
            .map(|_| {
                let u = (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                let k = weights.partition_point(|&c| c < u) + 1;
                let len = k.min(MAX_K) * BLOCK;
                let lo = (splitmix(&mut rng) % (DATA_LEN - len + 1) as u64) as usize;
                Req { lo, hi: lo + len }
            })
            .collect();
        Service {
            data: Arc::new(data),
            reqs,
            prefix: Vec::new(),
            batch_out: vec![None; BATCH],
            pool: open_pool(false),
            traced_pool: traced.then(|| open_pool(true)),
        }
    }

    /// Computes the oracle: prefix sums of the hashed keys.
    pub fn oracle(&mut self) {
        let mut acc = 0u64;
        self.prefix = std::iter::once(0)
            .chain(self.data.iter().map(|&x| {
                acc = acc.wrapping_add(mix(x));
                acc
            }))
            .collect();
    }

    fn expected(&self, r: Req) -> u64 {
        self.prefix[r.hi].wrapping_sub(self.prefix[r.lo])
    }

    pub fn working_set_bytes(&self) -> usize {
        DATA_LEN * 8
    }

    /// Offers requests at `rate` for `dur` on `pool` from this thread, then
    /// waits for the accepted ones. With a tracer, records one span tree per
    /// request, numbered on from the tracer's current unit: the request from
    /// its due time, with the generator's lag, the submission, the queue
    /// wait and the reduction as children.
    pub fn open_loop(
        &self,
        pool: &Pool,
        rate: f64,
        dur: Duration,
        tr: Option<&mut Tracer>,
    ) -> OpenLoop {
        let n = (rate * dur.as_secs_f64()) as usize;
        let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, u64)>();
        let mut due = Vec::with_capacity(n);
        let mut submitted = Vec::with_capacity(n);
        let mut accepted = vec![false; n];
        let mut out = OpenLoop { attempted: n as u64, ..OpenLoop::default() };
        pool.reset_stats();
        let t0 = Instant::now() + Duration::from_millis(1);
        for (i, ok) in accepted.iter_mut().enumerate() {
            let d = t0 + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if d > now + SPIN_BEFORE_DUE {
                std::thread::sleep(d - now - SPIN_BEFORE_DUE);
            }
            while Instant::now() < d {
                numa_ws::sync::hint::spin_loop();
            }
            let req = self.reqs[i % self.reqs.len()];
            let data = Arc::clone(&self.data);
            let tx = tx.clone();
            let s0 = Instant::now();
            *ok = pool
                .try_spawn_at(Place(i % PLACES), move || {
                    let start = Instant::now();
                    let sum = reduce(&data[req.lo..req.hi]);
                    // The receiver outlives every accepted request unless
                    // the drain timed out, which is counted as lost.
                    let _ = tx.send((i, start, Instant::now(), sum));
                })
                .is_ok();
            let s1 = Instant::now();
            due.push(d);
            submitted.push((s0, s1));
        }
        drop(tx);
        let end_of_schedule = Instant::now();
        let accepted_n = accepted.iter().filter(|&&a| a).count();
        out.rejected = (n - accepted_n) as u64;
        let mut done: Vec<Option<(Instant, Instant, u64)>> = vec![None; n];
        let mut completed_at_end = 0u64;
        let deadline = end_of_schedule + DRAIN_TIMEOUT;
        let mut completed = 0;
        while completed < accepted_n {
            let wait = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(wait) {
                Ok((i, start, end, sum)) => {
                    if end <= end_of_schedule {
                        completed_at_end += 1;
                    }
                    done[i] = Some((start, end, sum));
                    completed += 1;
                }
                Err(_) => break,
            }
        }
        out.backlog_end = accepted_n as u64 - completed_at_end;
        let stats = pool.stats();
        out.sheds = stats.sheds;
        out.wakeups = stats.total_wakeups();
        let mut tr = tr;
        for i in 0..n {
            let (s0, s1) = submitted[i];
            out.lag_ms.push((s0 - due[i]).as_secs_f64() * 1e3);
            let Some((start, end, sum)) = done[i] else {
                if accepted[i] {
                    out.lost += 1;
                }
                out.latency_ms.push(f64::INFINITY);
                continue;
            };
            if sum != self.expected(self.reqs[i % self.reqs.len()]) {
                out.wrong += 1;
            }
            out.latency_ms.push((end - due[i]).as_secs_f64() * 1e3);
            out.submit_us.push((s1 - s0).as_secs_f64() * 1e6);
            out.queue_wait_us.push(start.saturating_duration_since(s1).as_secs_f64() * 1e6);
            out.request_us.push((end - start).as_secs_f64() * 1e6);
            if let Some(t) = tr.as_deref_mut() {
                let id = t.unit + i as u64;
                let root = t.push_for(id, "request", due[i], end, None);
                t.push_for(id, "loadgen.lag", due[i], s0, Some(root));
                t.push_for(id, "core.ingress.submit", s0, s1, Some(root));
                t.push_for(id, "core.ingress.queue_wait", s1, start.max(s1), Some(root));
                t.push_for(id, "apps.request", start, end, Some(root));
            }
        }
        if let Some(t) = tr {
            t.unit += n as u64;
        }
        out
    }

    /// Runs the capacity ladder on the untraced pool: the highest rate
    /// whose p99 meets [`P99_LIMIT_MS`] without a growing backlog, climbing
    /// until the first rate that misses. Returns the rate (0 if none) and
    /// the oracle mismatches seen.
    pub fn max_rate(&self, step: Duration) -> (f64, u64) {
        let mut best = 0.0;
        let mut wrong = 0;
        for rate in LADDER_RPS {
            let r = self.open_loop(&self.pool, rate, step, None);
            wrong += r.wrong;
            if !r.meets_limit() {
                break;
            }
            best = rate;
        }
        (best, wrong)
    }
}

/// A closed-loop burst of the first [`BATCH`] requests. On a pool every
/// request enters through `try_spawn_at`, as in the open loop, and the unit
/// ends when the last result is back; the serial elision runs them in turn.
/// This is the steady throughput measure of the request path: the open
/// loop's latency waits on the OS to schedule sleeping workers, which on a
/// shared host moves far more between runs than any usable bound.
impl Batch for Service {
    fn reset(&mut self) {
        self.batch_out.fill(None);
    }

    fn run(&mut self, exec: Exec<'_>, tr: Option<&mut Tracer>) {
        let (data, reqs) = (&self.data, &self.reqs[..BATCH]);
        let out = &mut self.batch_out;
        let Exec::Pool(pool) = exec else {
            exec.run(tr, "apps.request_burst", || {
                for (o, r) in out.iter_mut().zip(reqs) {
                    *o = Some(reduce_serial(&data[r.lo..r.hi]));
                }
            });
            return;
        };
        let start = Instant::now();
        let (tx, rx) = mpsc::channel();
        for (i, &r) in reqs.iter().enumerate() {
            let (data, tx) = (Arc::clone(data), tx.clone());
            // A refused request leaves its slot empty, which fails the check.
            let _ = pool.try_spawn_at(Place(i % PLACES), move || {
                let _ = tx.send((i, reduce(&data[r.lo..r.hi])));
            });
        }
        drop(tx);
        for (i, sum) in rx {
            out[i] = Some(sum);
        }
        if let Some(t) = tr {
            t.push("apps.request_burst", start, Instant::now(), None);
        }
    }

    fn check(&self) -> bool {
        self.batch_out.iter().zip(&self.reqs[..BATCH]).all(|(&o, &r)| o == Some(self.expected(r)))
    }
}
