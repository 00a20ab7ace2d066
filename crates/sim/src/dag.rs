//! Series-parallel task DAGs — the simulator's computation model.
//!
//! A computation is a tree of **frames** (Cilk functions). Each frame is a
//! sequence of [`Step`]s: strands (compute + memory touches), spawns of
//! child frames, and syncs. This mirrors the ABP dag model the paper's §IV
//! analysis uses: a spawn is a node with out-degree two (child +
//! continuation), a sync joins all children spawned since the previous
//! sync, and every frame ends with an implicit sync.
//!
//! Frames carry the **place hint** of the paper's locality API: the hint is
//! assigned when the frame is opened and, by convention, builders propagate
//! the parent's hint to children unless overridden — the inheritance rule
//! of §III-A.
//!
//! DAGs are walked, children closed first: [`DagBuilder`] numbers a frame
//! when it closes, so frame indices are in topological order and
//! [`Dag::work`]/[`Dag::span`] are simple forward passes.

use crate::memory::{PagePolicy, Region, RegionId, Touch};
use nws_topology::Place;

/// Index of a frame within a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub usize);

/// One strand: straight-line computation with its memory footprint.
#[derive(Debug, Clone, Default)]
pub struct Strand {
    /// Pure compute cycles (what the strand costs with a perfect memory
    /// system).
    pub cycles: u64,
    /// Memory ranges touched, charged through the cache model.
    pub touches: Vec<Touch>,
}

impl Strand {
    /// A compute-only strand.
    pub fn compute(cycles: u64) -> Self {
        Strand { cycles, touches: Vec::new() }
    }
}

/// One step in a frame's instruction sequence.
#[derive(Debug, Clone)]
pub enum Step {
    /// Execute a strand.
    Strand(Strand),
    /// Spawn a child frame; the continuation (next step) becomes stealable.
    Spawn(FrameId),
    /// Wait for all children spawned since the last sync.
    Sync,
}

/// Definition of one frame (Cilk function instance).
#[derive(Debug, Clone)]
pub struct FrameDef {
    /// Locality hint (may be [`Place::ANY`]).
    pub place: Place,
    /// The frame's steps in program order.
    pub steps: Vec<Step>,
    /// The spawning parent, filled in by the builder.
    pub parent: Option<FrameId>,
}

/// A complete computation: frames plus the regions they touch. The root
/// is the last frame.
#[derive(Debug, Clone)]
pub struct Dag {
    frames: Vec<FrameDef>,
    regions: Vec<Region>,
}

/// Builds a [`Dag`] by walking it: [`open`](Self::open) starts a frame,
/// [`strand`](Self::strand), [`compute`](Self::compute) and
/// [`sync`](Self::sync) append to the innermost open frame, and
/// [`close`](Self::close) finishes it. A frame closed inside another one is
/// spawned there, so each frame runs exactly once and the one top-level
/// frame is the root.
///
/// # Example
///
/// ```
/// use nws_sim::{DagBuilder, PagePolicy, Strand, Touch};
/// use nws_topology::Place;
///
/// let mut b = DagBuilder::new();
/// let data = b.alloc("data", 8, PagePolicy::Chunked { chunks: 2 });
/// let touch = |start_page| Touch { region: data, start_page, pages: 4, lines_per_page: 64 };
/// b.frame(Place(0), |b| {
///     b.frame(Place(1), |b| _ = b.strand(Strand { cycles: 100, touches: vec![touch(4)] }));
///     b.strand(Strand { cycles: 100, touches: vec![touch(0)] }).sync();
/// });
/// let dag = b.build();
/// assert_eq!(dag.num_frames(), 2);
/// assert_eq!(dag.work(), 200);
/// assert_eq!(dag.span(), 100); // the two strands run in parallel
/// ```
#[derive(Debug, Default)]
pub struct DagBuilder {
    frames: Vec<FrameDef>,
    regions: Vec<Region>,
    next_page: u64,
    /// The frames being walked, innermost last.
    open: Vec<FrameDef>,
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a region of `pages` pages under `policy`, returning its id.
    pub fn alloc(&mut self, name: impl Into<String>, pages: u64, policy: PagePolicy) -> RegionId {
        assert!(pages > 0, "region must have at least one page");
        let id = RegionId(self.regions.len());
        self.regions.push(Region { name: name.into(), first_page: self.next_page, pages, policy });
        self.next_page += pages;
        id
    }

    /// Starts a frame with locality hint `place` inside the innermost open
    /// frame, or as the top-level frame.
    ///
    /// # Panics
    ///
    /// Panics if the top-level frame has already closed.
    pub fn open(&mut self, place: Place) {
        assert!(!self.open.is_empty() || self.frames.is_empty(), "a DAG has one top-level frame");
        self.open.push(FrameDef { place, steps: Vec::new(), parent: None });
    }

    /// The hint of the innermost open frame; it is the frame's place when
    /// it closes.
    pub fn place_mut(&mut self) -> &mut Place {
        &mut self.innermost().place
    }

    fn innermost(&mut self) -> &mut FrameDef {
        self.open.last_mut().expect("no open frame")
    }

    /// Appends a strand.
    pub fn strand(&mut self, s: Strand) -> &mut Self {
        self.innermost().steps.push(Step::Strand(s));
        self
    }

    /// Appends a compute-only strand.
    pub fn compute(&mut self, cycles: u64) -> &mut Self {
        self.strand(Strand::compute(cycles))
    }

    /// Appends a sync.
    pub fn sync(&mut self) -> &mut Self {
        self.innermost().steps.push(Step::Sync);
        self
    }

    /// Finishes the innermost open frame and returns its id. Inside another
    /// frame, it is spawned there.
    pub fn close(&mut self) -> FrameId {
        let frame = self.open.pop().expect("no open frame");
        let id = FrameId(self.frames.len());
        for step in &frame.steps {
            if let Step::Spawn(child) = *step {
                self.frames[child.0].parent = Some(id);
            }
        }
        self.frames.push(frame);
        if let Some(parent) = self.open.last_mut() {
            parent.steps.push(Step::Spawn(id));
        }
        id
    }

    /// Walks `body` as one frame hinted at `place`: [`open`](Self::open),
    /// `body`, [`close`](Self::close).
    pub fn frame(&mut self, place: Place, body: impl FnOnce(&mut Self)) -> FrameId {
        self.open(place);
        body(self);
        self.close()
    }

    /// Finishes the DAG; the top-level frame is its root.
    ///
    /// # Panics
    ///
    /// Panics if a frame is still open or none was walked.
    pub fn build(self) -> Dag {
        assert!(self.open.is_empty(), "a frame is still open");
        assert!(!self.frames.is_empty(), "a DAG needs a frame");
        Dag { frames: self.frames, regions: self.regions }
    }
}

/// A balanced binary spawn tree of `leaves` leaves of `cycles` each: work
/// `leaves * cycles`, span `cycles` plus the log-depth spawn chain. Every
/// frame spawns its left half, then its right half, then syncs.
pub fn tree(leaves: usize, cycles: u64) -> Dag {
    fn rec(b: &mut DagBuilder, n: usize, cycles: u64) {
        b.frame(Place::ANY, |b| {
            if n == 1 {
                b.compute(cycles);
            } else {
                rec(b, n / 2, cycles);
                rec(b, n - n / 2, cycles);
                b.sync();
            }
        });
    }
    let mut b = DagBuilder::new();
    rec(&mut b, leaves, cycles);
    b.build()
}

/// A chain of `len` serial phases, each forking `width` leaves of `cycles`
/// each: a long span with bounded parallelism, which stresses the `O(T∞)`
/// term of the §IV bounds.
pub fn phased(len: usize, width: usize, cycles: u64) -> Dag {
    let mut b = DagBuilder::new();
    b.frame(Place::ANY, |b| {
        for _ in 0..len {
            b.frame(Place::ANY, |b| {
                for _ in 0..width {
                    b.frame(Place::ANY, |b| _ = b.compute(cycles));
                }
                b.sync();
            });
            b.sync();
        }
    });
    b.build()
}

impl Dag {
    /// Number of frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// The root frame: the top-level frame, which closes last.
    pub fn root(&self) -> FrameId {
        FrameId(self.frames.len() - 1)
    }

    /// Frame definition accessor.
    pub fn frame(&self, id: FrameId) -> &FrameDef {
        &self.frames[id.0]
    }

    /// The regions table (consumed by the memory system).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Clones the regions for constructing a memory system.
    pub fn regions_vec(&self) -> Vec<Region> {
        self.regions.clone()
    }

    /// A copy of this DAG with every region's page policy replaced.
    ///
    /// Used by the NUMA-policy ablation: the paper runs vanilla Cilk Plus
    /// under both the first-touch and interleave OS policies and reports
    /// whichever is better (§V), which this makes a one-liner.
    pub fn with_policy(&self, policy: crate::memory::PagePolicy) -> Dag {
        let mut d = self.clone();
        for r in &mut d.regions {
            r.policy = policy.clone();
        }
        d
    }

    /// A copy of this DAG with every frame's hint `p` other than
    /// [`Place::ANY`] replaced by `place(p)`.
    pub fn map_places(&self, place: impl Fn(Place) -> Place) -> Dag {
        let mut d = self.clone();
        for f in &mut d.frames {
            if !f.place.is_any() {
                f.place = place(f.place);
            }
        }
        d
    }

    /// Total strand compute cycles — the `T1` of the ABP model, *excluding*
    /// memory stalls and scheduler costs (both are machine properties, not
    /// DAG properties).
    pub fn work(&self) -> u64 {
        self.steps()
            .map(|s| match s {
                Step::Strand(st) => st.cycles,
                _ => 0,
            })
            .sum()
    }

    /// Critical-path compute cycles — the `T∞` of the ABP model.
    pub fn span(&self) -> u64 {
        // Frames are in topological order (children closed first), so a
        // single forward pass suffices.
        let mut frame_span = vec![0u64; self.frames.len()];
        for (f, frame) in self.frames.iter().enumerate() {
            let mut cur = 0u64;
            let mut pending: u64 = 0; // max completion among unsynced children
            for step in &frame.steps {
                match step {
                    Step::Strand(s) => cur += s.cycles,
                    Step::Spawn(c) => pending = pending.max(cur + frame_span[c.0]),
                    Step::Sync => {
                        cur = cur.max(pending);
                        pending = 0;
                    }
                }
            }
            frame_span[f] = cur.max(pending); // implicit final sync
        }
        frame_span[self.root().0]
    }

    /// Number of spawns.
    pub fn num_spawns(&self) -> u64 {
        self.steps().filter(|s| matches!(s, Step::Spawn(_))).count() as u64
    }

    /// Every frame's steps, frame by frame.
    fn steps(&self) -> impl Iterator<Item = &Step> {
        self.frames.iter().flat_map(|f| &f.steps)
    }

    /// Checks structural invariants (used by tests and on load): spawns
    /// reference earlier frames, parents are consistent, the root is not
    /// spawned.
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.frames.iter().enumerate() {
            for s in &f.steps {
                if let Step::Spawn(c) = s {
                    if c.0 >= i {
                        return Err(format!("frame {i} spawns non-earlier frame {}", c.0));
                    }
                    if self.frames[c.0].parent != Some(FrameId(i)) {
                        return Err(format!("frame {} has wrong parent link", c.0));
                    }
                }
            }
        }
        if self.frames[self.root().0].parent.is_some() {
            return Err("root has a parent".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(len: usize, cycles: u64) -> Dag {
        // A serial chain: root does `len` strands in sequence.
        let mut b = DagBuilder::new();
        b.frame(Place::ANY, |b| {
            for _ in 0..len {
                b.compute(cycles);
            }
        });
        b.build()
    }

    #[test]
    fn chain_work_equals_span() {
        let d = chain(10, 7);
        assert_eq!(d.work(), 70);
        assert_eq!(d.span(), 70);
        assert_eq!(d.num_spawns(), 0);
    }

    #[test]
    fn binary_tree_span_is_logarithmic() {
        let d = tree(1 << 4, 100); // 16 leaves
        assert_eq!(d.work(), 1600);
        // All leaves in parallel: span = one leaf.
        assert_eq!(d.span(), 100);
        assert_eq!(d.num_spawns(), 2 * (16 - 1)); // 2 spawns per internal frame
        d.validate().unwrap();
    }

    #[test]
    fn continuation_overlaps_spawned_child() {
        // spawn(child: 100); continuation strand 60; sync → span = 100.
        let mut b = DagBuilder::new();
        b.frame(Place::ANY, |b| {
            b.frame(Place::ANY, |b| _ = b.compute(100));
            b.compute(60).sync().compute(5);
        });
        let d = b.build();
        assert_eq!(d.work(), 165);
        assert_eq!(d.span(), 105);
    }

    #[test]
    fn sync_partitions_children() {
        // Two phases: child A (100) synced, then child B (50) synced:
        // span = 100 + 50.
        let mut b = DagBuilder::new();
        b.frame(Place::ANY, |b| {
            b.frame(Place::ANY, |b| _ = b.compute(100));
            b.sync();
            b.frame(Place::ANY, |b| _ = b.compute(50));
            b.sync();
        });
        let d = b.build();
        assert_eq!(d.span(), 150);
    }

    #[test]
    fn implicit_final_sync_counts() {
        // Spawn without explicit sync: frame still waits for the child.
        let mut b = DagBuilder::new();
        b.frame(Place::ANY, |b| {
            b.frame(Place::ANY, |b| _ = b.compute(100));
            b.compute(10);
        });
        let d = b.build();
        assert_eq!(d.span(), 100);
    }

    #[test]
    fn parent_links_filled() {
        let d = tree(1 << 2, 1);
        let root = d.root();
        assert_eq!(d.frame(root).parent, None);
        let mut child_count = 0;
        for s in &d.frame(root).steps {
            if let Step::Spawn(c) = s {
                assert_eq!(d.frame(*c).parent, Some(root));
                child_count += 1;
            }
        }
        assert_eq!(child_count, 2);
    }

    #[test]
    fn regions_get_distinct_page_ranges() {
        let mut b = DagBuilder::new();
        let r1 = b.alloc("a", 10, PagePolicy::FirstTouch);
        let r2 = b.alloc("b", 5, PagePolicy::Interleave);
        b.frame(Place::ANY, |b| _ = b.compute(1));
        let d = b.build();
        assert_eq!(d.regions()[r1.0].first_page, 0);
        assert_eq!(d.regions()[r2.0].first_page, 10);
        assert_eq!(d.regions()[r2.0].pages, 5);
    }

    #[test]
    #[should_panic(expected = "a frame is still open")]
    fn build_panics_while_a_frame_is_open() {
        let mut b = DagBuilder::new();
        b.open(Place::ANY);
        b.frame(Place::ANY, |b| _ = b.compute(1));
        let _ = b.build();
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(tree(1 << 3, 5).validate().is_ok());
    }

    #[test]
    fn parallelism_ratio() {
        let d = tree(1 << 6, 64); // 64 leaves, work 4096, span 64
        assert_eq!(d.work() / d.span(), 64);
    }
}
