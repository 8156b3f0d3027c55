//! The traced run: `verify_system`'s serial sweep (and the CLI's pruned
//! deadlock search) rebuilt from public calls, with a clock read around
//! every call into a layer. Nothing inside the program is instrumented;
//! all spans are taken here, at the layer boundaries.
//!
//! * [`Traced`] wraps a substrate simulator as a [`System`] and times its
//!   `enabled` / `apply` / `checkpoint`+`undo` / `independent` /
//!   `control_key` calls. It also records the builder traffic each
//!   `apply` and `undo` causes, so [`replay`] can time the
//!   computation-builder layer on its own.
//! * [`traced_verify`] is the leaf pipeline: incremental sync, then for
//!   non-clean leaves seal → legality → projection → specification check.
//! * [`traced_deadlock`] is the control-key-pruned deadlock search.

use std::cell::RefCell;
use std::ops::ControlFlow;
use std::time::Instant;

use gem_core::{ClassId, Computation, ComputationBuilder, ElementId, EventId, Value};
use gem_lang::ada::AdaSystem;
use gem_lang::csp::CspSystem;
use gem_lang::monitor::MonitorSystem;
use gem_lang::{Explorer, System};
use gem_spec::Specification;
use gem_verify::{
    project, Correspondence, IncrCheck, IncrChecker, LeafStatus, ProjectError, RunFailure,
    VerifyOptions, VerifyOutcome,
};

/// A simulator whose runs seal to computations (all three substrates).
pub trait Sim: System {
    /// The run's computation, sealed from the live builder — the
    /// `extract` the CLI passes to `verify_system`.
    fn seal(&self, state: &Self::State) -> Computation;
}

macro_rules! impl_sim {
    ($($ty:ty),*) => {$(
        impl Sim for $ty {
            fn seal(&self, state: &Self::State) -> Computation {
                self.computation(state).expect("acyclic")
            }
        }
    )*};
}
impl_sim!(MonitorSystem, CspSystem, AdaSystem);

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn ns_since(t: Instant) -> u64 {
    nanos(t.elapsed())
}

/// Call counts per layer, summed over one traced round. Field names
/// follow the metric names. These must repeat exactly between rounds.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counts {
    pub enabled_calls: u64,
    /// Sum of the enabled-action counts over all `enabled` calls.
    pub enabled_actions: u64,
    /// `enabled` calls that returned at least one action (branching
    /// nodes, as opposed to leaves).
    pub enabled_nonempty: u64,
    pub apply_calls: u64,
    pub undo_calls: u64,
    pub independent_calls: u64,
    pub control_key_calls: u64,
    pub runs: u64,
    pub add_event_calls: u64,
    /// `enable` plus `add_precedence` (every temporal-order edge).
    pub enable_calls: u64,
    pub truncate_calls: u64,
    pub seal_calls: u64,
    pub legality_calls: u64,
    pub incr_sync_calls: u64,
    /// Leaves the incremental checker proved clean.
    pub incr_clean: u64,
    pub project_calls: u64,
    pub check_calls: u64,
}

/// Busy time per layer in nanoseconds, summed over one traced round.
/// Field names follow the metric names.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Times {
    pub enabled_ns: u64,
    pub apply_ns: u64,
    /// `checkpoint` plus `undo`.
    pub undo_ns: u64,
    pub independent_ns: u64,
    pub control_key_ns: u64,
    /// Builder-traffic recording done by the wrapper (not program time).
    pub record_ns: u64,
    /// Wall time inside `Explorer::for_each_run`.
    pub sweep_ns: u64,
    /// Time inside the leaf visitor.
    pub leaf_ns: u64,
    pub add_event_ns: u64,
    /// `enable` plus `add_precedence`.
    pub enable_ns: u64,
    /// `mark` plus `truncate_to`.
    pub truncate_ns: u64,
    pub seal_ns: u64,
    pub legality_ns: u64,
    pub incr_compile_ns: u64,
    pub incr_sync_ns: u64,
    pub project_ns: u64,
    pub check_ns: u64,
}

impl Times {
    /// The DFS kernel's self time: the sweep minus the wrapped simulator
    /// calls, the wrapper's recording, and the leaf work.
    pub fn explore_self_ns(&self) -> u64 {
        self.sweep_ns.saturating_sub(
            self.enabled_ns
                + self.apply_ns
                + self.undo_ns
                + self.independent_ns
                + self.control_key_ns
                + self.record_ns
                + self.leaf_ns,
        )
    }
}

/// What one traced round adds up, per layer.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct LayerTotals {
    pub counts: Counts,
    pub times: Times,
}

/// One builder operation, as recorded from the live simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// An `apply` starts: the replay takes a mark for the matching undo.
    Mark,
    /// `add_event(element, class, params)`.
    Event(ElementId, ClassId, Vec<Value>),
    /// `enable(from, to)`.
    Enable(EventId, EventId),
    /// `add_precedence(before, after)`.
    Precedence(EventId, EventId),
    /// An `undo`: the replay truncates to the newest mark.
    Undo,
    /// A leaf: the live builder's fingerprint there.
    Leaf(u64),
    /// A membership or thread tag, which the replay does not model.
    Unmodelled,
}

/// A transparent [`System`] wrapper that times every call into the
/// simulator into a shared [`LayerTotals`] and records the builder traffic
/// the calls cause.
pub struct Traced<'a, S: System> {
    inner: &'a S,
    totals: &'a RefCell<LayerTotals>,
    log: RefCell<Vec<Op>>,
}

impl<'a, S: System> Traced<'a, S> {
    /// Wraps `inner`, adding its call counts and times into `totals`.
    pub fn new(inner: &'a S, totals: &'a RefCell<LayerTotals>) -> Self {
        Self {
            inner,
            totals,
            log: RefCell::new(Vec::new()),
        }
    }

    /// Records a leaf's live fingerprint for the replay check.
    pub fn leaf(&self, state: &S::State) {
        if let Some(b) = self.inner.trace_builder(state) {
            self.log.borrow_mut().push(Op::Leaf(b.fingerprint()));
        }
    }

    /// The recorded builder log.
    pub fn into_log(self) -> Vec<Op> {
        self.log.into_inner()
    }
}

/// Lengths of a builder's append-only parts, to diff across an `apply`.
#[derive(Clone, Copy)]
struct Lens {
    events: usize,
    enables: usize,
    precedences: usize,
    memberships: usize,
    tags: usize,
}

impl Lens {
    fn of(b: &ComputationBuilder) -> Self {
        Self {
            events: b.event_count(),
            enables: b.enable_journal().len(),
            precedences: b.precedence_journal().len(),
            memberships: b.memberships().len(),
            tags: b.tag_count(),
        }
    }
}

/// Appends the traffic between `pre` and the builder's current state to
/// `log`: each new event followed by the edges that target it, in journal
/// order (simulators only ever add edges into their newest event); any
/// other edge goes last.
fn record_growth(log: &mut Vec<Op>, b: &ComputationBuilder, pre: Lens) {
    let post = Lens::of(b);
    if post.memberships != pre.memberships || post.tags != pre.tags {
        log.push(Op::Unmodelled);
    }
    let enables = &b.enable_journal()[pre.enables..];
    let precedences = &b.precedence_journal()[pre.precedences..];
    let (mut ei, mut pi) = (0, 0);
    log.push(Op::Mark);
    for (i, ev) in b.events().iter().enumerate().skip(pre.events) {
        log.push(Op::Event(ev.element(), ev.class(), ev.params().to_vec()));
        while ei < enables.len() && enables[ei].1.index() == i {
            log.push(Op::Enable(enables[ei].0, enables[ei].1));
            ei += 1;
        }
        while pi < precedences.len() && precedences[pi].1.index() == i {
            log.push(Op::Precedence(precedences[pi].0, precedences[pi].1));
            pi += 1;
        }
    }
    log.extend(enables[ei..].iter().map(|&(a, b)| Op::Enable(a, b)));
    log.extend(precedences[pi..].iter().map(|&(a, b)| Op::Precedence(a, b)));
}

impl<S: System> System for Traced<'_, S> {
    type State = S::State;
    type Action = S::Action;
    type Checkpoint = S::Checkpoint;

    fn initial(&self) -> S::State {
        self.inner.initial()
    }

    fn enabled(&self, state: &S::State) -> Vec<S::Action> {
        let t = Instant::now();
        let actions = self.inner.enabled(state);
        let ns = ns_since(t);
        let mut c = self.totals.borrow_mut();
        c.times.enabled_ns += ns;
        c.counts.enabled_calls += 1;
        c.counts.enabled_actions += actions.len() as u64;
        c.counts.enabled_nonempty += u64::from(!actions.is_empty());
        actions
    }

    fn apply(&self, state: &mut S::State, action: &S::Action) {
        let pre = self.inner.trace_builder(state).map(Lens::of);
        let t0 = Instant::now();
        self.inner.apply(state, action);
        let t1 = Instant::now();
        if let (Some(pre), Some(b)) = (pre, self.inner.trace_builder(state)) {
            record_growth(&mut self.log.borrow_mut(), b, pre);
        }
        let record_ns = ns_since(t1);
        let mut c = self.totals.borrow_mut();
        c.times.apply_ns += nanos(t1 - t0);
        c.counts.apply_calls += 1;
        c.times.record_ns += record_ns;
    }

    fn is_complete(&self, state: &S::State) -> bool {
        self.inner.is_complete(state)
    }

    fn control_key(&self, state: &S::State) -> Option<u64> {
        let t = Instant::now();
        let key = self.inner.control_key(state);
        let ns = ns_since(t);
        let mut c = self.totals.borrow_mut();
        c.times.control_key_ns += ns;
        c.counts.control_key_calls += 1;
        key
    }

    fn checkpoint(&self, state: &S::State) -> Option<S::Checkpoint> {
        let t = Instant::now();
        let cp = self.inner.checkpoint(state);
        self.totals.borrow_mut().times.undo_ns += ns_since(t);
        cp
    }

    fn undo(&self, state: &mut S::State, checkpoint: S::Checkpoint) {
        let t0 = Instant::now();
        self.inner.undo(state, checkpoint);
        let t1 = Instant::now();
        self.log.borrow_mut().push(Op::Undo);
        let record_ns = ns_since(t1);
        let mut c = self.totals.borrow_mut();
        c.times.undo_ns += nanos(t1 - t0);
        c.counts.undo_calls += 1;
        c.times.record_ns += record_ns;
    }

    fn independent(&self, state: &S::State, a: &S::Action, b: &S::Action) -> bool {
        let t = Instant::now();
        let answer = self.inner.independent(state, a, b);
        let ns = ns_since(t);
        let mut c = self.totals.borrow_mut();
        c.times.independent_ns += ns;
        c.counts.independent_calls += 1;
        answer
    }

    fn trace_builder<'b>(&self, state: &'b S::State) -> Option<&'b ComputationBuilder> {
        self.inner.trace_builder(state)
    }
}

/// Replays a recorded builder log into a copy of `sim`'s initial builder,
/// timing each builder call into `totals`, and checks the replica's
/// fingerprint against the live one at every leaf.
///
/// # Errors
///
/// Describes the first leaf whose fingerprint differs, a builder call the
/// replica rejected, or traffic the replay does not model.
pub fn replay<S: System>(sim: &S, log: &[Op], totals: &mut LayerTotals) -> Result<(), String> {
    let state = sim.initial();
    let Some(live) = sim.trace_builder(&state) else {
        return Ok(());
    };
    // Start from the initial builder (it may already hold set-up events).
    let mut replica = live.clone();
    let mut marks = Vec::new();
    let mut leaves = 0usize;
    for op in log {
        match op {
            Op::Mark => {
                let t = Instant::now();
                marks.push(replica.mark());
                totals.times.truncate_ns += ns_since(t);
            }
            Op::Event(element, class, params) => {
                let params = params.clone();
                let t = Instant::now();
                let added = replica.add_event(*element, *class, params);
                totals.times.add_event_ns += ns_since(t);
                totals.counts.add_event_calls += 1;
                added.map_err(|e| format!("replay add_event: {e}"))?;
            }
            Op::Enable(from, to) => {
                let t = Instant::now();
                let added = replica.enable(*from, *to);
                totals.times.enable_ns += ns_since(t);
                totals.counts.enable_calls += 1;
                added.map_err(|e| format!("replay enable: {e}"))?;
            }
            Op::Precedence(before, after) => {
                let t = Instant::now();
                let added = replica.add_precedence(*before, *after);
                totals.times.enable_ns += ns_since(t);
                totals.counts.enable_calls += 1;
                added.map_err(|e| format!("replay add_precedence: {e}"))?;
            }
            Op::Undo => {
                let mark = marks.pop().ok_or("replay: undo without a mark")?;
                let t = Instant::now();
                replica.truncate_to(&mark);
                totals.times.truncate_ns += ns_since(t);
                totals.counts.truncate_calls += 1;
            }
            Op::Unmodelled => {
                return Err("the simulator added a membership or thread tag, which the replay does not model".to_owned());
            }
            Op::Leaf(fp) => {
                if replica.fingerprint() != *fp {
                    return Err(format!(
                        "replayed builder fingerprint {:#x} differs from the live {fp:#x} at leaf {leaves}",
                        replica.fingerprint()
                    ));
                }
                leaves += 1;
            }
        }
    }
    Ok(())
}

/// `verify_system`'s serial sweep, rebuilt from public calls with a span
/// around each layer. Returns the outcome (which must equal
/// `verify_system`'s) and the recorded builder log; adds the layer
/// totals into `totals`. Dedup and POR are honoured only as far as the
/// explorer does; the default options use neither.
///
/// # Errors
///
/// A [`ProjectError`], exactly where `verify_system` would return one.
pub fn traced_verify<S: Sim>(
    sys: &S,
    problem: &Specification,
    corr: &Correspondence,
    options: &VerifyOptions,
    totals: &mut LayerTotals,
) -> Result<(VerifyOutcome, Vec<Op>), ProjectError> {
    let t = Instant::now();
    let mut incr = (options.incr_check != IncrCheck::Off)
        .then(|| IncrChecker::new(problem, corr, options.check_program_legality))
        .filter(|c| options.incr_check == IncrCheck::On || !c.global_fallback());
    totals.times.incr_compile_ns += ns_since(t);

    let cell = RefCell::new(std::mem::take(totals));
    let traced = Traced::new(sys, &cell);
    let mut runs = 0usize;
    let mut deadlocks = 0usize;
    let mut failures: Vec<RunFailure> = Vec::new();
    let mut project_error = None;
    let sweep = Instant::now();
    let stats = options.explorer.for_each_run(&traced, |state, _path| {
        let leaf_started = Instant::now();
        // The explorer makes no simulator call while the visitor runs.
        let mut leaf = cell.borrow_mut();
        let flow = (|| {
            runs += 1;
            let deadlocked = !sys.is_complete(state);
            if deadlocked {
                deadlocks += 1;
            }
            traced.leaf(state);
            if let Some(chk) = incr.as_mut() {
                if let Some(builder) = sys.trace_builder(state) {
                    let t = Instant::now();
                    let status = chk.sync_to(builder);
                    leaf.times.incr_sync_ns += ns_since(t);
                    leaf.counts.incr_sync_calls += 1;
                    if status == LeafStatus::Clean {
                        leaf.counts.incr_clean += 1;
                        if !deadlocked {
                            return ControlFlow::Continue(());
                        }
                    }
                }
            }
            let t = Instant::now();
            let comp = sys.seal(state);
            leaf.times.seal_ns += ns_since(t);
            leaf.counts.seal_calls += 1;
            // `check_computation`, one layer at a time.
            let mut violated = Vec::new();
            let mut detail = String::new();
            if options.check_program_legality {
                let t = Instant::now();
                let legality = gem_core::check_legality(&comp);
                leaf.times.legality_ns += ns_since(t);
                leaf.counts.legality_calls += 1;
                if !legality.is_empty() {
                    violated.push("program-legality".to_owned());
                    detail = legality[0].describe(&comp);
                }
            }
            let t = Instant::now();
            let projected = project(&comp, problem.structure_arc(), corr);
            leaf.times.project_ns += ns_since(t);
            leaf.counts.project_calls += 1;
            let projected = match projected {
                Ok(p) => p,
                Err(e) => {
                    project_error = Some(e);
                    return ControlFlow::Break(());
                }
            };
            let t = Instant::now();
            let report = problem.check(&projected, options.strategy);
            leaf.times.check_ns += ns_since(t);
            leaf.counts.check_calls += 1;
            match report {
                Ok(report) => {
                    if !report.legality.is_empty() {
                        violated.push("projection-legality".to_owned());
                        if detail.is_empty() {
                            detail = report.legality[0].describe(&projected);
                        }
                    }
                    violated.extend(report.failed().into_iter().map(str::to_owned));
                    if detail.is_empty() && !violated.is_empty() {
                        detail = report.to_string();
                    }
                }
                Err(e) => {
                    violated.push("evaluation-error".to_owned());
                    detail = e.to_string();
                }
            }
            if !violated.is_empty() {
                failures.push(RunFailure {
                    run: runs - 1,
                    violated,
                    detail,
                });
                if failures.len() >= options.max_failures {
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        })();
        leaf.times.leaf_ns += ns_since(leaf_started);
        flow
    });
    let log = finish_sweep(traced, &cell, sweep, runs, totals);
    if let Some(e) = project_error {
        return Err(e);
    }
    let outcome = VerifyOutcome {
        runs,
        deadlocks,
        failures,
        truncation: stats.truncation,
    };
    Ok((outcome, log))
}

/// The explorer the CLI's `deadlock` command uses: control-state pruning
/// on, everything else default.
pub fn deadlock_explorer() -> Explorer {
    Explorer {
        prune: true,
        ..Explorer::default()
    }
}

/// `find_deadlock` under [`deadlock_explorer`], rebuilt on [`Traced`].
/// Returns the witness schedule (which must equal `find_deadlock`'s) and
/// the recorded builder log.
pub fn traced_deadlock<S: Sim>(
    sys: &S,
    totals: &mut LayerTotals,
) -> (Option<Vec<S::Action>>, Vec<Op>) {
    let cell = RefCell::new(std::mem::take(totals));
    let traced = Traced::new(sys, &cell);
    let mut witness = None;
    let mut runs = 0usize;
    let sweep = Instant::now();
    deadlock_explorer().for_each_run(&traced, |state, path| {
        let leaf_started = Instant::now();
        runs += 1;
        traced.leaf(state);
        let flow = if sys.is_complete(state) {
            ControlFlow::Continue(())
        } else {
            witness = Some(path.to_vec());
            ControlFlow::Break(())
        };
        cell.borrow_mut().times.leaf_ns += ns_since(leaf_started);
        flow
    });
    let log = finish_sweep(traced, &cell, sweep, runs, totals);
    (witness, log)
}

/// Ends a sweep started at `sweep` over `runs` leaves: adds the sweep
/// time and run count, moves the accumulated totals back into `totals`,
/// and returns the recorded builder log.
fn finish_sweep<S: System>(
    traced: Traced<'_, S>,
    cell: &RefCell<LayerTotals>,
    sweep: Instant,
    runs: usize,
    totals: &mut LayerTotals,
) -> Vec<Op> {
    let sweep_ns = ns_since(sweep);
    let log = traced.into_log();
    let mut t = cell.take();
    t.times.sweep_ns += sweep_ns;
    t.counts.runs += runs as u64;
    *totals = t;
    log
}
