//! In-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer (an `install`, a kernel body, an ingress submission). They are kept
//! in memory while the run measures and written out once at exit.

use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// Which executor ran the span: `serial`, `t1`, `t2` or `open`.
    phase: &'static str,
    /// The unit of work (iteration or request) the span belongs to.
    id: u64,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    /// Phase and unit id stamped on the spans pushed next.
    pub phase: &'static str,
    pub unit: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { base: Instant::now(), spans: Vec::new(), phase: "serial", unit: 0 }
    }

    /// Records a span of the current unit and returns its index, for use as
    /// a child's parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.push_for(self.unit, name, start, end, parent)
    }

    /// As [`push`](Tracer::push), for an explicit unit id.
    pub fn push_for(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span { name, phase: self.phase, id, start, end, parent });
        self.spans.len() - 1
    }

    /// Each span's duration minus the part of it that its children cover,
    /// in nanoseconds.
    fn self_ns(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort();
                let mut covered = 0u128;
                let mut cursor = s.start;
                for (a, b) in kids {
                    let a = a.clamp(cursor, s.end);
                    let b = b.clamp(cursor, s.end);
                    covered += (b - a).as_nanos();
                    cursor = b;
                }
                (s.end - s.start).as_nanos().saturating_sub(covered) as f64
            })
            .collect()
    }

    /// Self times of every span named `name` in `phase`, in nanoseconds.
    pub fn self_times(&self, phase: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.phase == phase && s.name == name)
            .map(|(_, ns)| ns)
            .collect()
    }

    /// Writes every span as a tab-separated line: index, phase, name, id,
    /// parent, start and end in ns since the recorder was created, self
    /// time in ns.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tphase\tname\tid\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{own}",
                s.phase,
                s.name,
                s.id,
                (s.start - self.base).as_nanos(),
                (s.end - self.base).as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut t = Tracer::new();
        let b = Instant::now();
        let ms = Duration::from_millis;
        let p = t.push("parent", b, b + ms(10), None);
        t.push("child", b + ms(1), b + ms(4), Some(p));
        t.push("child", b + ms(3), b + ms(6), Some(p));
        assert_eq!(t.self_times("serial", "parent"), vec![5e6]);
        assert_eq!(t.self_times("serial", "child"), vec![3e6, 3e6]);
    }
}
