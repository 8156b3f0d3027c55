//! The temporal order `⇒`: transitive closure of the enable relation and
//! the element order, minus identity (§3, §5).
//!
//! A legal computation's temporal order must be a strict partial order, so
//! the union of enable edges and element-successor edges must be acyclic.
//! [`Closure`] materialises the order as a reachability matrix (one bitset
//! row per event for successors and one per event for predecessors), giving
//! O(1) `precedes`/`concurrent` queries and O(n/64) predecessor-set
//! retrieval — the operations history enumeration and restriction
//! evaluation perform constantly.
//!
//! Because the events at one element are totally ordered and that order
//! is part of `⇒`, the predecessors of an event at each element form a
//! prefix of the element's chain. The order is therefore exactly a
//! *vector clock* per event, one entry per element: `clock(e)[x]` is the
//! number of events at `x` that precede or are `e`. The computation builder
//! keeps those clocks as it grows and [`Closure::from_clocks`] turns them
//! into the matrix (DESIGN.md §4).
//!
//! An alternative on-demand DFS implementation ([`DfsReachability`]) is
//! provided for the closure-representation ablation (DESIGN.md §4,
//! bench `closure_scaling`).

use crate::{DenseBitSet, EventId};

/// Error returned when the union of enable and element order is cyclic,
/// i.e. the temporal order would not be irreflexive.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CycleError {
    /// An event on the cycle.
    pub on_cycle: EventId,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "temporal order is cyclic: event {} precedes itself",
            self.on_cycle
        )
    }
}

impl std::error::Error for CycleError {}

/// Materialised strict partial order over `n` events.
///
/// Built from a DAG of direct edges with [`Closure::from_edges`]; exposes
/// reachability both ways plus a topological order of the events.
#[derive(Clone, PartialEq, Debug)]
pub struct Closure {
    /// `succ[i]` = set of `j` with `i ⇒ j`.
    succ: Vec<DenseBitSet>,
    /// `pred[j]` = set of `i` with `i ⇒ j`.
    pred: Vec<DenseBitSet>,
    /// The events in some topological order of the direct-edge DAG.
    topo: Vec<EventId>,
}

impl Closure {
    /// Builds the closure of the relation given by `edges` over events
    /// `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the edges contain a cycle (including a
    /// self-loop), since the temporal order must be irreflexive and
    /// transitive.
    pub fn from_edges(n: usize, edges: &[(EventId, EventId)]) -> Result<Self, CycleError> {
        let started = gem_obs::ambient::active().then(std::time::Instant::now);
        let (topo, out) = topo_from_edges(n, edges)?;
        let into = Adjacency::new(n, edges.iter().map(|&(a, b)| (b, a)));
        // row(v) = ∪ (row(w) ∪ {w}) over v's neighbours, each finished
        // before v: successors in reverse topological order, predecessors
        // in topological order.
        let reach = |order: &mut dyn Iterator<Item = &EventId>, adj: &Adjacency| {
            let mut rows = vec![DenseBitSet::new(n); n];
            for &v in order {
                let mut row = std::mem::take(&mut rows[v.index()]);
                for &w in adj.of(v) {
                    row.insert(w.index());
                    row.union_with(&rows[w.index()]);
                }
                rows[v.index()] = row;
            }
            rows
        };
        let succ = reach(&mut topo.iter().rev(), &out);
        let pred = reach(&mut topo.iter(), &into);
        let closure = Self::from_parts(succ, pred, topo);
        if let Some(started) = started {
            gem_obs::ambient::time_ns(
                "phase.closure",
                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        Ok(closure)
    }

    /// Builds the closure from per-event vector clocks.
    ///
    /// `chains[x]` lists the events at element `x` in element order, and
    /// `clocks` holds one row of `chains.len()` entries per event:
    /// `clocks[e·k + x]` counts the events at `x` that precede or are `e`.
    /// Both matrices come out of word-level unions along the chains plus
    /// one bit per (event, element) pair, never a bit-by-bit transpose:
    ///
    /// * `pred(v) = pred(p) ∪ {p} ∪ ⋃_y chain_y[clock(p)[y] .. clock(v)[y])`
    ///   for `p` the previous event at `v`'s element;
    /// * each `v` with `clock(v)[y] = c > 0` is a successor of
    ///   `chain_y[c − 1]`, and `succ(u) ⊇ succ(next(u)) ∪ {next(u)}` carries
    ///   it down the chain.
    pub(crate) fn from_clocks(clocks: &[u32], chains: &[Vec<EventId>], topo: Vec<EventId>) -> Self {
        let n = topo.len();
        let k = chains.len();
        let clock = |e: EventId| &clocks[e.index() * k..][..k];
        let mut pred = vec![DenseBitSet::default(); n];
        let mut succ = vec![DenseBitSet::new(n); n];
        for (x, chain) in chains.iter().enumerate() {
            for (s, &v) in chain.iter().enumerate() {
                let (mut row, floor) = match s.checked_sub(1).map(|i| chain[i]) {
                    Some(p) => {
                        let mut row = pred[p.index()].clone();
                        row.insert(p.index());
                        (row, Some(clock(p)))
                    }
                    None => (DenseBitSet::new(n), None),
                };
                for (y, (other, &c)) in chains.iter().zip(clock(v)).enumerate() {
                    if y == x || c == 0 {
                        continue;
                    }
                    let lo = floor.map_or(0, |f| f[y] as usize);
                    for u in &other[lo..c as usize] {
                        row.insert(u.index());
                    }
                    succ[other[c as usize - 1].index()].insert(v.index());
                }
                pred[v.index()] = row;
            }
        }
        for chain in chains {
            for pair in chain.windows(2).rev() {
                // Chains are id-ascending, so `next` splits after `u`.
                let (u, next) = (pair[0].index(), pair[1].index());
                let (lo, hi) = succ.split_at_mut(next);
                lo[u].insert(next);
                lo[u].union_with(&hi[0]);
            }
        }
        Self::from_parts(succ, pred, topo)
    }

    /// Assembles a closure from computed reachability rows and a
    /// topological order, emitting the closure probes.
    fn from_parts(succ: Vec<DenseBitSet>, pred: Vec<DenseBitSet>, topo: Vec<EventId>) -> Self {
        let closure = Self { succ, pred, topo };
        if gem_obs::ambient::active() {
            gem_obs::ambient::add("core.closure.built", 1);
            gem_obs::ambient::add("core.closure.edges", closure.pair_count() as u64);
        }
        closure
    }

    /// Number of events covered by this closure.
    pub fn len(&self) -> usize {
        self.succ.len()
    }

    /// True if the closure covers zero events.
    pub fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    /// True if `a ⇒ b` (strictly precedes in the temporal order).
    #[inline]
    pub fn precedes(&self, a: EventId, b: EventId) -> bool {
        self.succ[a.index()].contains(b.index())
    }

    /// True if `a` and `b` are potentially concurrent: distinct and
    /// unordered by `⇒` (§2: "no observable order between them").
    pub fn concurrent(&self, a: EventId, b: EventId) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }

    /// The set of strict successors of `a` (everything `a` precedes).
    pub fn successors(&self, a: EventId) -> &DenseBitSet {
        &self.succ[a.index()]
    }

    /// The set of strict predecessors of `b` (everything preceding `b`).
    pub fn predecessors(&self, b: EventId) -> &DenseBitSet {
        &self.pred[b.index()]
    }

    /// Events in a topological order consistent with `⇒`.
    pub fn topological(&self) -> &[EventId] {
        &self.topo
    }

    /// Number of ordered pairs in the order (size of `⇒` as a relation).
    pub fn pair_count(&self) -> usize {
        self.succ.iter().map(DenseBitSet::len).sum()
    }
}

/// Edges grouped by source in compressed-row form: the targets of `v` are
/// `targets[start[v]..start[v + 1]]`, in edge order. One allocation per
/// array instead of one per event.
#[derive(Clone, Debug)]
pub(crate) struct Adjacency {
    start: Vec<u32>,
    targets: Vec<EventId>,
}

impl Adjacency {
    /// Groups `edges` over events `0..n` by source, keeping edge order
    /// within each group.
    pub(crate) fn new<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (EventId, EventId)> + Clone,
    {
        let mut start = vec![0u32; n + 1];
        for (a, _) in edges.clone() {
            debug_assert!(a.index() < n, "edge endpoint out of range");
            start[a.index() + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start[..n].to_vec();
        let mut targets = vec![EventId::from_raw(0); start[n] as usize];
        for (a, b) in edges {
            targets[fill[a.index()] as usize] = b;
            fill[a.index()] += 1;
        }
        Self { start, targets }
    }

    /// The targets of `v`'s edges, in edge order.
    pub(crate) fn of(&self, v: EventId) -> &[EventId] {
        &self.targets[self.start[v.index()] as usize..self.start[v.index() + 1] as usize]
    }

    /// Every edge, grouped by source in id order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.start.windows(2).enumerate().flat_map(move |(v, w)| {
            let from = EventId::from_raw(v as u32);
            self.targets[w[0] as usize..w[1] as usize]
                .iter()
                .map(move |&to| (from, to))
        })
    }
}

/// Kahn's algorithm over `edges`: a topological order of `0..n` plus the
/// adjacency, or the same [`CycleError`] the closure build reports.
pub(crate) fn topo_from_edges(
    n: usize,
    edges: &[(EventId, EventId)],
) -> Result<(Vec<EventId>, Adjacency), CycleError> {
    let out = Adjacency::new(n, edges.iter().copied());
    let mut indegree = vec![0u32; n];
    for &(_, b) in edges {
        indegree[b.index()] += 1;
    }
    let mut stack: Vec<EventId> = (0..n as u32)
        .filter(|&i| indegree[i as usize] == 0)
        .map(EventId::from_raw)
        .collect();
    let mut topo = Vec::with_capacity(n);
    while let Some(v) = stack.pop() {
        topo.push(v);
        for &w in out.of(v) {
            indegree[w.index()] -= 1;
            if indegree[w.index()] == 0 {
                stack.push(w);
            }
        }
    }
    if topo.len() != n {
        let on_cycle = (0..n)
            .find(|&i| indegree[i] > 0)
            .map(|i| EventId::from_raw(i as u32))
            .unwrap_or_else(|| EventId::from_raw(0));
        return Err(CycleError { on_cycle });
    }
    Ok((topo, out))
}

/// Joins clock row `from` into row `to` (component-wise max): whatever
/// precedes or is `from` now precedes `to`.
pub(crate) fn join_clock(clocks: &mut [u32], k: usize, from: usize, to: usize) {
    debug_assert_ne!(from, to, "a self-loop has no clock");
    let (src, dst) = if from < to {
        let (lo, hi) = clocks.split_at_mut(to * k);
        (&lo[from * k..][..k], &mut hi[..k])
    } else {
        let (lo, hi) = clocks.split_at_mut(from * k);
        (&hi[..k], &mut lo[to * k..][..k])
    };
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

/// Vector clocks of an acyclic edge set, computed afresh: each event
/// starts at its own occurrence, then rows are joined along every edge in
/// topological order. `out` must include the element-chain edges.
pub(crate) fn clocks_from_edges(
    chains: &[Vec<EventId>],
    topo: &[EventId],
    out: &Adjacency,
) -> Vec<u32> {
    let k = chains.len();
    let mut clocks = vec![0u32; topo.len() * k];
    for (x, chain) in chains.iter().enumerate() {
        for (s, e) in chain.iter().enumerate() {
            clocks[e.index() * k + x] = s as u32 + 1;
        }
    }
    for &v in topo {
        for &w in out.of(v) {
            join_clock(&mut clocks, k, v.index(), w.index());
        }
    }
    clocks
}

/// On-demand reachability by DFS over direct edges — the ablation
/// counterpart of [`Closure`] (no precomputation, O(V+E) per query).
#[derive(Clone, Debug)]
pub struct DfsReachability {
    out: Vec<Vec<u32>>,
    /// Epoch-stamped visited marks + DFS stack, reused across queries so a
    /// query allocates nothing after the first (`RefCell`: queries take
    /// `&self`).
    scratch: std::cell::RefCell<DfsScratch>,
}

#[derive(Clone, Debug, Default)]
struct DfsScratch {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl DfsReachability {
    /// Builds the adjacency representation from direct edges over `0..n`.
    ///
    /// Unlike [`Closure::from_edges`], this performs no cycle check; pair
    /// it with `Closure` when legality matters.
    pub fn from_edges(n: usize, edges: &[(EventId, EventId)]) -> Self {
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            out[a.index()].push(b.as_raw());
        }
        Self {
            out,
            scratch: std::cell::RefCell::new(DfsScratch {
                stamp: vec![0; n],
                epoch: 0,
                stack: Vec::new(),
            }),
        }
    }

    /// True if `b` is reachable from `a` by one or more direct edges.
    ///
    /// Direct edges short-circuit without touching the scratch state; longer
    /// paths run an iterative DFS over the reusable stamp buffer.
    pub fn precedes(&self, a: EventId, b: EventId) -> bool {
        let target = b.as_raw();
        let direct = &self.out[a.index()];
        if direct.contains(&target) {
            return true;
        }
        if direct.is_empty() {
            return false;
        }
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.stamp.fill(0);
            scratch.epoch = 1;
        }
        let epoch = scratch.epoch;
        scratch.stack.clear();
        scratch.stack.push(a.as_raw());
        scratch.stamp[a.index()] = epoch;
        while let Some(v) = scratch.stack.pop() {
            for &w in &self.out[v as usize] {
                if w == target {
                    scratch.stack.clear();
                    return true;
                }
                if scratch.stamp[w as usize] != epoch {
                    scratch.stamp[w as usize] = epoch;
                    scratch.stack.push(w);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EventId {
        EventId::from_raw(i)
    }

    #[test]
    fn diamond_closure() {
        // e0 -> e1, e0 -> e2, e1 -> e3, e2 -> e3 (the §7 example shape).
        let edges = [(e(0), e(1)), (e(0), e(2)), (e(1), e(3)), (e(2), e(3))];
        let c = Closure::from_edges(4, &edges).unwrap();
        assert!(c.precedes(e(0), e(3)));
        assert!(c.precedes(e(0), e(1)));
        assert!(!c.precedes(e(3), e(0)));
        assert!(c.concurrent(e(1), e(2)));
        assert!(!c.concurrent(e(0), e(3)));
        assert!(!c.concurrent(e(1), e(1)), "concurrency is irreflexive");
        assert_eq!(c.pair_count(), 4 + 1); // 0⇒{1,2,3}, 1⇒3, 2⇒3
    }

    #[test]
    fn cycle_detected() {
        let edges = [(e(0), e(1)), (e(1), e(0))];
        let err = Closure::from_edges(2, &edges).unwrap_err();
        assert!(err.on_cycle == e(0) || err.on_cycle == e(1));
        assert!(err.to_string().contains("cyclic"));
    }

    #[test]
    fn self_loop_detected() {
        let err = Closure::from_edges(1, &[(e(0), e(0))]).unwrap_err();
        assert_eq!(err.on_cycle, e(0));
    }

    #[test]
    fn predecessors_are_transpose() {
        let edges = [(e(0), e(1)), (e(1), e(2))];
        let c = Closure::from_edges(3, &edges).unwrap();
        assert_eq!(c.predecessors(e(2)).iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(c.successors(e(0)).iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(c.predecessors(e(0)).is_empty());
    }

    #[test]
    fn topological_order_is_consistent() {
        let edges = [(e(2), e(0)), (e(0), e(1))];
        let c = Closure::from_edges(3, &edges).unwrap();
        let pos: Vec<usize> = (0..3)
            .map(|i| {
                c.topological()
                    .iter()
                    .position(|&x| x == e(i as u32))
                    .unwrap()
            })
            .collect();
        assert!(pos[2] < pos[0]);
        assert!(pos[0] < pos[1]);
    }

    #[test]
    fn empty_and_edgeless() {
        let c = Closure::from_edges(0, &[]).unwrap();
        assert!(c.is_empty());
        let c = Closure::from_edges(3, &[]).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.concurrent(e(0), e(2)));
        assert_eq!(c.pair_count(), 0);
    }

    #[test]
    fn dfs_matches_closure_on_random_dags() {
        // Deterministic pseudo-random DAG: edge (i, j) for i < j when hash
        // condition holds.
        let n = 40;
        let mut edges = Vec::new();
        let mut seed = 0x9e3779b97f4a7c15u64;
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if seed >> 61 == 0 {
                    edges.push((e(i), e(j)));
                }
            }
        }
        let c = Closure::from_edges(n, &edges).unwrap();
        let d = DfsReachability::from_edges(n, &edges);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                assert_eq!(
                    c.precedes(e(i), e(j)),
                    d.precedes(e(i), e(j)),
                    "mismatch at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn dfs_reuses_scratch_across_queries() {
        let edges = [(e(0), e(1)), (e(1), e(2)), (e(3), e(4))];
        let d = DfsReachability::from_edges(5, &edges);
        for _ in 0..3 {
            assert!(d.precedes(e(0), e(2)));
            assert!(d.precedes(e(0), e(1)), "direct edge fast path");
            assert!(!d.precedes(e(2), e(0)));
            assert!(!d.precedes(e(0), e(4)));
            assert!(d.precedes(e(3), e(4)));
        }
    }

    #[test]
    fn long_chain() {
        let n = 300;
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (e(i), e(i + 1))).collect();
        let c = Closure::from_edges(n, &edges).unwrap();
        assert!(c.precedes(e(0), e(n as u32 - 1)));
        assert_eq!(c.pair_count(), n * (n - 1) / 2);
    }
}
