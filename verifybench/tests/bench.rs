//! Tests of the benchmark's own code: the traced wrapper is transparent,
//! the builder replay is faithful (and its check bites), and every metric
//! the benchmark prints has a valid name declared in `BENCHMARK.json`.

use std::cell::RefCell;
use std::ops::ControlFlow;

use gem_lang::{Explorer, System};
use gem_verify::{verify_system, VerifyOptions};
use gem_verifybench::calibrate::{rescale, Timed, REFERENCE_SLICE_S};
use gem_verifybench::run::{end_to_end_metrics, per_layer_metrics};
use gem_verifybench::traced::{replay, traced_verify, LayerTotals, Op, Sim, Traced};
use gem_verifybench::workload::{
    build, check_cli_output, instances, Answer, Command, Instance, WORKLOADS,
};
use gem_verifybench::{quartiles, with_sys};

/// One small holding instance per substrate (small enough for a debug
/// build), and a small failing one.
const SMALL: [Instance; 4] = [
    Instance {
        command: Command::Verify,
        problem: "bounded",
        params: &["items=2", "cap=1"],
        answer: Answer::Holds,
    },
    Instance {
        command: Command::Verify,
        problem: "bounded",
        params: &["items=2", "cap=1", "substrate=csp"],
        answer: Answer::Holds,
    },
    Instance {
        command: Command::Verify,
        problem: "bounded",
        params: &["items=2", "cap=1", "substrate=ada"],
        answer: Answer::Holds,
    },
    Instance {
        command: Command::Verify,
        problem: "rw",
        params: &["readers=1", "writers=2", "variant=writers"],
        answer: Answer::Fails("writers-priority"),
    },
];

/// Every leaf of a sweep: the schedule and the builder fingerprint.
fn leaves<S: System>(sys: &S) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    Explorer::default().for_each_run(sys, |state, path| {
        let fp = sys.trace_builder(state).map_or(0, |b| b.fingerprint());
        out.push((format!("{path:?}"), fp));
        ControlFlow::Continue(())
    });
    out
}

fn transparent<S: Sim + Sync>(sys: &S, inst: &Instance)
where
    S::State: Send,
    S::Action: Send,
{
    let built = build(inst);
    let bare = leaves(sys);
    assert!(!bare.is_empty());
    let wrapped = RefCell::new(LayerTotals::default());
    assert_eq!(
        leaves(&Traced::new(sys, &wrapped)),
        bare,
        "{}",
        inst.label()
    );

    let options = VerifyOptions::default();
    let expected = verify_system(sys, &built.spec, &built.corr, |s| sys.seal(s), &options).unwrap();
    let mut totals = LayerTotals::default();
    let (outcome, _) = traced_verify(sys, &built.spec, &built.corr, &options, &mut totals).unwrap();
    assert_eq!(outcome, expected, "{}", inst.label());
    assert_eq!(totals.counts.runs, expected.runs as u64);
}

#[test]
fn wrapper_is_transparent_on_every_substrate() {
    for inst in &SMALL {
        let built = build(inst);
        with_sys!(&built.sys, |sys| transparent(sys, inst));
    }
}

fn replay_checks<S: Sim>(sys: &S, inst: &Instance) {
    let built = build(inst);
    let mut totals = LayerTotals::default();
    let (_, log) = traced_verify(
        sys,
        &built.spec,
        &built.corr,
        &VerifyOptions::default(),
        &mut totals,
    )
    .unwrap();
    let leaves = log.iter().filter(|op| matches!(op, Op::Leaf(_))).count();
    assert_eq!(leaves as u64, totals.counts.runs);
    replay(sys, &log, &mut totals).unwrap_or_else(|e| panic!("{}: {e}", inst.label()));
    let events = log.iter().filter(|op| matches!(op, Op::Event(..))).count();
    assert_eq!(totals.counts.add_event_calls, events as u64);
    assert_eq!(totals.counts.truncate_calls, totals.counts.undo_calls);

    // Dropping one enable edge must be caught at the next leaf.
    let mut tampered = log.clone();
    let edge = tampered
        .iter()
        .position(|op| matches!(op, Op::Enable(..)))
        .expect("the sweep adds enable edges");
    tampered.remove(edge);
    assert!(replay(sys, &tampered, &mut LayerTotals::default()).is_err());
}

#[test]
fn builder_replay_is_faithful() {
    for inst in &SMALL {
        let built = build(inst);
        with_sys!(&built.sys, |sys| replay_checks(sys, inst));
    }
}

#[test]
fn metric_names_are_valid_and_declared() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared = gem_obs::json::parse(&text).expect("BENCHMARK.json parses");
    let names = |section: &str| -> Vec<String> {
        declared
            .get(section)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{section} is a list"))
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_owned())
            .collect()
    };
    let one = Timed {
        wall: 1.0,
        scaled: 1.0,
    };
    let printed_e2e: Vec<String> = end_to_end_metrics(&[one], &[one], &[one], 1.0)
        .into_iter()
        .map(|m| m.name.to_owned())
        .collect();
    let printed_layer: Vec<String> = per_layer_metrics(&[LayerTotals::default()], 1.0, 1.0)
        .into_iter()
        .map(|m| m.name.to_owned())
        .collect();
    for name in printed_e2e.iter().chain(&printed_layer) {
        assert!(valid_metric_name(name), "{name}");
    }
    assert_eq!(printed_e2e, names("end_to_end"));
    assert_eq!(printed_layer, names("per_layer"));
    let workloads = names("workloads");
    assert_eq!(workloads, WORKLOADS);
    for w in &workloads {
        assert!(instances(w).is_some(), "{w}");
    }
}

#[test]
fn cli_output_checks_follow_the_pinned_answer() {
    let holds =
        "6297 run(s): 0 deadlock(s), 0 failing run(s)\nverdict: PROG sat P HOLDS (all schedules)";
    let fails = "336 run(s): 0 deadlock(s), 3 failing run(s)\n  run 330: writers-priority\n  run 334: writers-priority\nverdict: PROG sat P FAILS (all schedules)";
    assert!(check_cli_output(Answer::Holds, holds).is_ok());
    assert!(check_cli_output(Answer::Holds, fails).is_err());
    assert!(check_cli_output(Answer::Fails("writers-priority"), fails).is_ok());
    assert!(check_cli_output(Answer::Fails("readers-priority"), fails).is_err());
    assert!(check_cli_output(Answer::Deadlock, "DEADLOCK after 20 action(s):\n[]").is_ok());
    assert!(check_cli_output(Answer::NoDeadlock, "DEADLOCK after 20 action(s):\n[]").is_err());
    assert!(check_cli_output(Answer::NoDeadlock, "no deadlock (pruned state search)").is_ok());
}

#[test]
fn rescaling_keeps_reference_speed_and_proportions() {
    let r = REFERENCE_SLICE_S;
    assert_eq!(rescale(0.5, r, r).scaled, 0.5);
    // Program time scales through unchanged; a slower host scales down.
    let base = rescale(0.5, 2.0 * r, 2.0 * r).scaled;
    assert!((rescale(1.0, 2.0 * r, 2.0 * r).scaled - 2.0 * base).abs() < 1e-12);
    assert!(base < 0.5);
    assert_eq!(rescale(0.5, 2.0 * r, 2.0 * r).wall, 0.5);
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
}

/// True if `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
fn valid_metric_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
