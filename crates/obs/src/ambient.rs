//! Thread-local ambient probe.
//!
//! Deep layers (formula evaluation, transitive-closure construction,
//! history materialization) sit below every public API; threading a
//! probe argument through them would churn dozens of signatures. They
//! record into the *ambient* probe instead: a thread-local slot a caller
//! installs around a sweep (see `gem-verify`). When nothing is
//! installed on the calling thread, the fast path is one thread-local
//! load — and instrumented layers batch their counts, so even the slow
//! path is per-call, not per-item. A probe installed on one thread never
//! moves another thread off its fast path.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::probe::Probe;

thread_local! {
    static CURRENT: RefCell<Vec<Arc<dyn Probe>>> = const { RefCell::new(Vec::new()) };
    /// Installed guards on this thread; lets the fast path skip borrowing
    /// `CURRENT`.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Uninstalls on drop. Not `Send`: the probe must be uninstalled on the
/// thread that installed it.
pub struct AmbientGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Installs `probe` as this thread's ambient probe until the returned
/// guard drops. Nested installs shadow (innermost wins), mirroring span
/// nesting.
pub fn install(probe: Arc<dyn Probe>) -> AmbientGuard {
    CURRENT.with(|c| c.borrow_mut().push(probe));
    DEPTH.with(|d| d.set(d.get() + 1));
    AmbientGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// True if this thread has an ambient probe installed (cheap pre-check).
#[inline]
pub fn active() -> bool {
    DEPTH.with(Cell::get) != 0
}

/// The probe currently installed on *this* thread, if any. Worker pools
/// capture this on the coordinating thread and re-[`install`] it on each
/// worker, so deep-layer emissions fan into the same sink regardless of
/// which thread runs the work.
pub fn snapshot() -> Option<Arc<dyn Probe>> {
    if !active() {
        return None;
    }
    CURRENT.with(|c| c.borrow().last().cloned())
}

#[inline]
fn with_current(f: impl FnOnce(&dyn Probe)) {
    if !active() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(p) = c.borrow().last() {
            f(p.as_ref());
        }
    });
}

/// Increments counter `name` on the ambient probe, if any.
#[inline]
pub fn add(name: &str, delta: u64) {
    with_current(|p| p.add(name, delta));
}

/// Raises gauge `name` on the ambient probe, if any.
#[inline]
pub fn gauge_max(name: &str, value: u64) {
    with_current(|p| p.gauge_max(name, value));
}

/// Sets gauge `name` on the ambient probe, if any.
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    with_current(|p| p.gauge_set(name, value));
}

/// Records a duration on the ambient probe, if any.
#[inline]
pub fn time_ns(name: &str, nanos: u64) {
    with_current(|p| p.time_ns(name, nanos));
}

/// Folds one sample into histogram `name` on the ambient probe, if any.
#[inline]
pub fn record(name: &str, value: u64) {
    with_current(|p| p.record(name, value));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::StatsProbe;

    #[test]
    fn records_only_while_installed() {
        add("before", 1); // discarded: nothing installed
        let stats = Arc::new(StatsProbe::new());
        {
            let _g = install(stats.clone());
            assert!(active());
            add("during", 2);
            gauge_max("depth", 5);
            time_ns("t", 100);
            record("h", 9);
        }
        add("after", 3); // discarded again
        let r = stats.report();
        assert_eq!(r.counters.get("before"), None);
        assert_eq!(r.counters["during"], 2);
        assert_eq!(r.counters.get("after"), None);
        assert_eq!(r.gauges["depth"], 5);
        assert_eq!(r.timers["t"].count, 1);
        assert_eq!(r.hists["h"].count(), 1);
    }

    #[test]
    fn snapshot_sees_innermost_install() {
        assert!(snapshot().is_none());
        let outer = Arc::new(StatsProbe::new());
        let _g = install(outer.clone());
        let snap = snapshot().expect("installed");
        snap.add("via-snapshot", 7);
        assert_eq!(outer.counter("via-snapshot"), 7);
    }

    #[test]
    fn nested_installs_shadow() {
        let outer = Arc::new(StatsProbe::new());
        let inner = Arc::new(StatsProbe::new());
        let _g1 = install(outer.clone());
        {
            let _g2 = install(inner.clone());
            add("n", 1);
        }
        add("n", 1);
        assert_eq!(inner.counter("n"), 1);
        assert_eq!(outer.counter("n"), 1);
    }
}
