//! The repository benchmark: runs one named workload on the NUMA-WS
//! runtime (or its simulator) for a fixed time, checks every unit of work
//! against the serial oracle, and prints the metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <fine_grain|numa_kernels|service_open|sim_replay>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured without spans and
//! with the pools' time-breakdown stats off. `--trace 1` is the traced run:
//! it prints the per-layer metrics and writes the recorded spans under
//! `perfbench/out/`. See `METRICS.md` for what each metric means.

mod fine_grain;
mod harness;
mod machine;
mod numa_kernels;
mod service;
mod sim_replay;
mod spans;
mod stats;

use harness::{run_batch, BatchResult, Phase, Pools};
use numa_ws::SchedPolicy;
use spans::Tracer;
use stats::{median, quantile, ratio, tail};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <fine_grain|numa_kernels|service_open|sim_replay> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 9;

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_p50_ms", "ms"),
    ("wall_tail_ms", "ms"),
    ("t1_over_ts", "ratio"),
    ("speedup_p2", "ratio"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics other than the per-simulation counts: name and unit.
const PER_LAYER: [(&str, &str); 44] = [
    ("core.join.ns_per_spawn", "ns"),
    ("core.scope.ns_per_spawn", "ns"),
    ("core.steal.success_ratio", "ratio"),
    ("core.steal.remote_attempt_share", "ratio"),
    ("core.steal.jobs_per_batch", "count"),
    ("core.mailbox.delivery_ratio", "ratio"),
    ("core.mailbox.takes", "count/unit"),
    ("core.mailbox.push_failures", "count/unit"),
    ("core.work_share", "ratio"),
    ("core.sched_share", "ratio"),
    ("core.idle_share", "ratio"),
    ("core.work_inflation", "ratio"),
    ("core.install.overhead_us", "us"),
    ("core.ingress.submit_us_p50", "us"),
    ("core.ingress.submit_us_p99", "us"),
    ("core.ingress.queue_wait_us_p50", "us"),
    ("core.ingress.queue_wait_us_p99", "us"),
    ("core.ingress.rejects", "count"),
    ("core.ingress.sheds", "count"),
    ("core.sleep.wakeups_per_req", "ratio"),
    ("service.max_rate_rps", "1/s"),
    ("service.req_p50_ms", "ms"),
    ("service.req_p90_ms", "ms"),
    ("service.req_p99_ms", "ms"),
    ("apps.fib.self_ms", "ms"),
    ("apps.gcmark.self_ms", "ms"),
    ("apps.cilksort.self_ms", "ms"),
    ("apps.heat.self_ms", "ms"),
    ("apps.request.self_ms", "ms"),
    ("apps.heat.gbps_computed", "GB/s"),
    ("machine.copy_gbps", "GB/s"),
    ("machine.nproc", "count"),
    ("machine.l2_kib", "KiB"),
    ("machine.l3_kib", "KiB"),
    ("workload.working_set_mib_computed", "MiB"),
    ("sim.ns_per_task", "ns"),
    ("sim.run_ms", "ms"),
    ("sim.dag_build_ms", "ms"),
    ("trace.parse_us", "us"),
    ("trace.to_dag_us", "us"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("wall_tail_pct", "%"),
    ("wall_p99_ms", "ms"),
];

/// Counts reported for every app DAG under every simulated scheduler, as
/// `sim.<dag>.<scheduler>.<count>`.
const SIM_COUNTS: [(&str, &str); 4] = [
    ("makespan_mcycles", "Mcycles"),
    ("work_inflation", "ratio"),
    ("remote_fraction", "ratio"),
    ("steals", "count"),
];

fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    names.push(("wall_samples".to_string(), "count"));
    for dag in sim_replay::DAG_NAMES {
        for sched in sim_replay::SCHEDULERS {
            for (count, unit) in SIM_COUNTS {
                names.push((format!("sim.{dag}.{sched}.{count}"), unit));
            }
        }
    }
    names
}

/// Metric values by name; a per-layer metric the workload does not
/// exercise reads 0.
#[derive(Default)]
struct Report {
    values: BTreeMap<String, f64>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn json(&self, traced: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let names: Vec<(String, &str)> = if traced {
            per_layer_names()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                // JSON has no infinity; only a failed run produces one.
                let v = if v.is_finite() { v } else { -1.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("malformed arguments: {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !["fine_grain", "numa_kernels", "service_open", "sim_replay"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let traced = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args { workload, seed, seconds, traced })
}

/// Runs `make` [`SETUP_REPS`] times, dropping each result before the next
/// is made; returns the last result and the median time in seconds.
fn timed_setup<T>(mut make: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(make());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS is positive"), median(&times))
}

fn median_self(tr: &Tracer, phase: &str, name: &str) -> f64 {
    median(&tr.self_times(phase, name))
}

/// Sets the tail metrics over `samples`: the end-to-end tail, its
/// percentile and sample count, and the p99 once at least 1000 samples
/// leave ten beyond it.
fn set_tail(rep: &mut Report, samples: &[f64]) {
    let (pct, value) = tail(samples);
    rep.set("wall_tail_ms", value);
    rep.set("wall_tail_pct", pct);
    rep.set("wall_samples", samples.len() as f64);
    if samples.len() >= 1000 {
        rep.set("wall_p99_ms", quantile(samples, 0.99));
    }
}

/// End-to-end and per-layer metrics common to the batch workloads.
/// `join_apps`/`scope_apps` name the kernel spans whose spawns go through
/// `join` and `Scope::spawn`; `tasks_per_unit` overrides the pool's own
/// task count (deque spawns plus ingress roots).
fn batch_metrics(
    rep: &mut Report,
    r: &BatchResult,
    tr: Option<&Tracer>,
    join_apps: &[&str],
    scope_apps: &[&str],
    tasks_per_unit: Option<f64>,
) {
    let t2 = median(&r.t2);
    let units2 = r.t2.len() as f64;
    let units1 = r.t1.len() as f64;
    let s2 = &r.t2_stats;
    let s1 = &r.t1_stats;
    let tasks = tasks_per_unit.unwrap_or_else(|| {
        (s2.total_spawns() + s2.workers.iter().map(|w| w.injector_takes).sum::<u64>()) as f64
            / units2
    });
    rep.set("wall_p50_ms", t2);
    set_tail(rep, &r.t2);
    // Paired within each round: the host's speed drifts over seconds, and
    // the executors of one round see the same speed.
    let per_round = r.t2.len() / r.ts.len();
    let rounds = r.ts.iter().zip(&r.t1).zip(r.t2.chunks(per_round));
    let (t1_ts, ts_t2): (Vec<f64>, Vec<f64>) =
        rounds.map(|((ts, t1), t2)| (t1 / ts, ts / median(t2))).unzip();
    rep.set("t1_over_ts", median(&t1_ts));
    rep.set("speedup_p2", median(&ts_t2));
    rep.set("tasks_per_s", tasks / (t2 / 1e3));

    let Some(tr) = tr else { return };
    rep.set("trace_overhead_frac", t2 / median(&r.t2_untraced) - 1.0);
    rep.set(
        "core.steal.success_ratio",
        ratio(s2.total_steals() as f64, s2.total_steal_attempts() as f64),
    );
    rep.set(
        "core.steal.remote_attempt_share",
        ratio(s2.total_remote_steal_attempts() as f64, s2.total_steal_attempts() as f64),
    );
    rep.set(
        "core.steal.jobs_per_batch",
        ratio(
            (s2.total_steal_batches() + s2.total_batch_stolen_jobs()) as f64,
            s2.total_steal_batches() as f64,
        ),
    );
    rep.set(
        "core.mailbox.delivery_ratio",
        ratio(s2.total_push_deliveries() as f64, s2.total_push_attempts() as f64),
    );
    rep.set("core.mailbox.takes", s2.total_mailbox_takes() as f64 / units2);
    rep.set("core.mailbox.push_failures", s2.total_push_failures() as f64 / units2);
    // Shares of the two workers' time while a T2 unit ran: whatever is
    // neither work nor scheduling is idle.
    let busy_ns = 2.0 * r.t2.iter().sum::<f64>() * 1e6;
    let work = s2.total_work_ns() as f64 / busy_ns;
    let sched = s2.total_sched_ns() as f64 / busy_ns;
    rep.set("core.work_share", work);
    rep.set("core.sched_share", sched);
    rep.set("core.idle_share", (1.0 - work - sched).max(0.0));
    rep.set(
        "core.work_inflation",
        ratio(s2.total_work_ns() as f64 / units2, s1.total_work_ns() as f64 / units1),
    );
    rep.set("core.install.overhead_us", median_self(tr, "t2", "core.install") / 1e3);
    for app in ["apps.fib", "apps.gcmark", "apps.cilksort", "apps.heat"] {
        let v = median_self(tr, "t2", app) / 1e6;
        if v > 0.0 {
            rep.set(&format!("{app}.self_ms"), v);
        }
    }
    let t1_ns = |apps: &[&str]| apps.iter().map(|a| median_self(tr, "t1", a)).sum::<f64>();
    let scope_spawns = s1.total_scope_spawns() as f64 / units1;
    let join_spawns = (s1.total_spawns() - s1.total_scope_spawns()) as f64 / units1;
    rep.set("core.join.ns_per_spawn", ratio(t1_ns(join_apps), join_spawns));
    rep.set("core.scope.ns_per_spawn", ratio(t1_ns(scope_apps), scope_spawns));
}

const BATCH_PATTERN: [Phase; 4] = [Phase::Serial, Phase::T2, Phase::T1, Phase::T2];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let traced = args.traced;
    let seed = args.seed;
    let mut tracer = traced.then(Tracer::new);
    let mut rep = Report::default();
    let policy = SchedPolicy::numa_ws();

    let (working_set, attempted, failed) = match args.workload.as_str() {
        "fine_grain" => {
            let ((mut w, pools), setup) = timed_setup(|| {
                (fine_grain::FineGrain::new(seed), Pools::new(fine_grain::PLACES, policy, traced))
            });
            rep.set("setup_s", setup);
            w.oracle();
            let r = run_batch(&mut w, &pools, &BATCH_PATTERN, budget, tracer.as_mut());
            batch_metrics(&mut rep, &r, tracer.as_ref(), &["apps.fib"], &["apps.gcmark"], None);
            (w.working_set_bytes(), r.attempted, r.failed)
        }
        "numa_kernels" => {
            let ((mut w, pools), setup) = timed_setup(|| {
                (
                    numa_kernels::NumaKernels::new(seed),
                    Pools::new(numa_kernels::PLACES, policy, traced),
                )
            });
            rep.set("setup_s", setup);
            w.oracle();
            let r = run_batch(&mut w, &pools, &BATCH_PATTERN, budget, tracer.as_mut());
            let apps = ["apps.cilksort", "apps.heat"];
            batch_metrics(&mut rep, &r, tracer.as_ref(), &apps, &[], None);
            if let Some(tr) = &tracer {
                let heat_s = median_self(tr, "t2", "apps.heat") / 1e9;
                rep.set(
                    "apps.heat.gbps_computed",
                    numa_kernels::heat_bytes_computed() / heat_s / 1e9,
                );
                let h = numa_kernels::HEAT;
                rep.set("machine.copy_gbps", machine::copy_gbps(h.rows * h.cols * 8));
            }
            (w.working_set_bytes(), r.attempted, r.failed)
        }
        "service_open" => run_service(&mut rep, seed, budget, tracer.as_mut()),
        _ => {
            let ((mut w, pools), setup) =
                timed_setup(|| (sim_replay::SimReplay::new(seed), Pools::new(1, policy, traced)));
            rep.set("setup_s", setup);
            w.oracle();
            let pattern = [Phase::Serial, Phase::T1, Phase::T2, Phase::T2];
            let r = run_batch(&mut w, &pools, &pattern, budget, tracer.as_mut());
            let frames = w.frames_per_sweep();
            batch_metrics(&mut rep, &r, tracer.as_ref(), &[], &[], Some(frames));
            rep.set("sim.run_ms", median(&r.ts));
            rep.set("sim.ns_per_task", median(&r.ts) * 1e6 / frames);
            rep.set("sim.dag_build_ms", w.dag_build_ms);
            rep.set("trace.parse_us", w.parse_us);
            rep.set("trace.to_dag_us", w.to_dag_us);
            for (cell, o, inflation) in w.app_cells() {
                rep.set(&format!("sim.{cell}.makespan_mcycles"), o.makespan as f64 / 1e6);
                rep.set(&format!("sim.{cell}.work_inflation"), inflation);
                rep.set(&format!("sim.{cell}.remote_fraction"), o.remote_fraction);
                rep.set(&format!("sim.{cell}.steals"), o.steals as f64);
            }
            (w.working_set_bytes(), r.attempted, r.failed)
        }
    };

    let (nproc, l2, l3) = (machine::nproc(), machine::cache_kib(2), machine::cache_kib(3));
    rep.set("peak_rss_mb", machine::peak_rss_mb());
    rep.set("machine.nproc", nproc as f64);
    rep.set("machine.l2_kib", l2 as f64);
    rep.set("machine.l3_kib", l3 as f64);
    let ws_mib = working_set as f64 / (1 << 20) as f64;
    rep.set("workload.working_set_mib_computed", ws_mib);
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {seed}, \"nproc\": {nproc}, \
         \"l2_kib\": {l2}, \"l3_kib\": {l3}, \"working_set_mib_computed\": {ws_mib}, \
         \"working_set_over_l2\": {}, \"working_set_over_l3\": {}, \"workers_pinned\": false}}}}",
        args.workload,
        ratio(ws_mib * 1024.0, l2 as f64),
        ratio(ws_mib * 1024.0, l3 as f64),
    );
    if let Some(tr) = &tracer {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{seed}.tsv", args.workload));
        if let Err(e) = tr.write(&path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
    println!("{}", rep.json(traced, failed == 0, attempted, failed));
}

/// `service_open`: the end-to-end metrics come from closed-loop bursts of
/// requests through ingress. The traced run adds the open loop at the
/// nominal rate: the capacity ladder, then segments of the open loop on the
/// untraced pool alternating with segments on a pool with stats on and
/// spans recorded; the latency of the two against each other is the
/// tracing overhead.
fn run_service(
    rep: &mut Report,
    seed: u64,
    budget: Duration,
    tr: Option<&mut Tracer>,
) -> (usize, u64, u64) {
    /// Traced-run open-loop segments of each kind.
    const SEGMENTS: u32 = 4;
    let traced = tr.is_some();
    let ((mut w, pools), setup) = timed_setup(|| {
        (
            service::Service::new(seed, traced),
            Pools::new(service::PLACES, SchedPolicy::numa_ws(), traced),
        )
    });
    rep.set("setup_s", setup);
    w.oracle();
    let share = |f: f64| budget.mul_f64(f);
    let Some(t) = tr else {
        let r = run_batch(&mut w, &pools, &BATCH_PATTERN, budget, None);
        batch_metrics(rep, &r, None, &[], &[], Some(service::BATCH as f64));
        return (w.working_set_bytes(), r.attempted, r.failed);
    };
    let r = run_batch(&mut w, &pools, &BATCH_PATTERN, share(0.2), Some(&mut *t));
    let burst = ["apps.request_burst"];
    batch_metrics(rep, &r, Some(&*t), &burst, &[], Some(service::BATCH as f64));
    let (mut attempted, mut failed) = (r.attempted, r.failed);

    let ladder_step = share(0.2).div_f64(service::LADDER_RPS.len() as f64);
    let (max_rate, ladder_wrong) = w.max_rate(ladder_step);
    rep.set("service.max_rate_rps", max_rate);
    failed += ladder_wrong;
    t.phase = "open";
    let pool = w.traced_pool.as_ref().expect("a traced run builds the traced pool");
    let (rate, seg) = (service::NOMINAL_RPS, share(0.3).div_f64(f64::from(SEGMENTS)));
    let mut plain = service::OpenLoop::default();
    let mut ol = service::OpenLoop::default();
    for k in 0..SEGMENTS {
        for traced_first in [k % 2 == 0, k % 2 != 0] {
            if traced_first {
                ol.merge(w.open_loop(pool, rate, seg, Some(&mut *t)));
            } else {
                plain.merge(w.open_loop(&w.pool, rate, seg, None));
            }
        }
    }
    attempted += plain.attempted + ol.attempted;
    failed += plain.failed() + ol.failed();
    rep.set("service.req_p50_ms", median(&plain.latency_ms));
    rep.set("service.req_p90_ms", quantile(&plain.latency_ms, 0.9));
    rep.set("service.req_p99_ms", quantile(&plain.latency_ms, 0.99));
    let n = ol.attempted as f64;
    rep.set("core.ingress.submit_us_p50", median(&ol.submit_us));
    rep.set("core.ingress.submit_us_p99", quantile(&ol.submit_us, 0.99));
    rep.set("core.ingress.queue_wait_us_p50", median(&ol.queue_wait_us));
    rep.set("core.ingress.queue_wait_us_p99", quantile(&ol.queue_wait_us, 0.99));
    rep.set("core.ingress.rejects", ol.rejected as f64);
    rep.set("core.ingress.sheds", ol.sheds as f64);
    rep.set("core.sleep.wakeups_per_req", ol.wakeups as f64 / n);
    rep.set("apps.request.self_ms", median(&ol.request_us) / 1e3);
    rep.set("loadgen.lag_p99_ms", quantile(&ol.lag_ms, 0.99));
    rep.set("trace_overhead_frac", median(&ol.latency_ms) / median(&plain.latency_ms) - 1.0);
    (w.working_set_bytes(), attempted, failed)
}
