//! Cross-crate integration: specification → substrate execution →
//! projection → verification, exercising every layer of the workspace
//! through the `gem` facade.

use gem::core::{check_legality, ComputationBuilder, Value};
use gem::lang::monitor::{MonitorDef, MonitorProgram, MonitorSystem, ProcessDef, ScriptStep, Stmt};
use gem::lang::{Explorer, Expr, System};
use gem::logic::{check, EventSel, Formula, Strategy, ValueTerm};
use gem::spec::{prerequisite, ElementType, SpecBuilder};
use gem::verify::{verify_system, Correspondence, VerifyOptions};
use std::ops::ControlFlow;

/// A tiny turnstile: Coin then Push, repeatedly — specified in gem-spec,
/// implemented as a monitor, verified through gem-verify.
#[test]
fn turnstile_end_to_end() {
    // Problem: every Push is enabled by exactly one Coin.
    let gate = ElementType::new("Gate")
        .event("Coin", &["amount"])
        .event("Push", &[]);
    let mut sb = SpecBuilder::new("Turnstile");
    let g = sb.instantiate_element(&gate, "gate").unwrap();
    sb.add_restriction(
        "coin-then-push",
        prerequisite(&g.sel("Coin"), &g.sel("Push")),
    );
    sb.add_restriction(
        "exact-fare",
        Formula::forall(
            "c",
            g.sel("Coin"),
            Formula::value_eq(ValueTerm::param("c", "amount"), ValueTerm::lit(25i64)),
        ),
    );
    let problem = sb.finish();

    // Program: a monitor with Pay and Enter entries; two patrons.
    let monitor = MonitorDef::new("Turnstile")
        .var("credit", 0i64)
        .condition("paid")
        .entry(
            "Pay",
            &["amount"],
            vec![
                Stmt::assign("credit", Expr::var("credit").add(Expr::var("amount"))),
                Stmt::signal("paid"),
            ],
        )
        .entry(
            "Enter",
            &[],
            vec![
                Stmt::If(
                    Expr::var("credit").eq(Expr::int(0)),
                    vec![Stmt::wait("paid")],
                    vec![],
                ),
                Stmt::assign("credit", Expr::var("credit").sub(Expr::int(25))),
            ],
        );
    let mut prog = MonitorProgram::new(monitor);
    for i in 0..2 {
        prog = prog.process(ProcessDef::new(
            format!("patron{i}"),
            vec![
                ScriptStep::Call {
                    entry: "Pay".into(),
                    args: vec![Value::Int(25)],
                },
                ScriptStep::Call {
                    entry: "Enter".into(),
                    args: vec![],
                },
            ],
        ));
    }
    let sys = MonitorSystem::new(prog);

    // Significant objects: the credit increment is the Coin (carrying the
    // amount through the monitor-variable value is wrong — it is the
    // credit total — so map the Begin of Pay with no params and assert
    // fare via the Coin amount of the assignment inside Pay? The assign
    // carries the new credit; instead use the Pay-entry assign and map no
    // params, then drop exact-fare... keep it simple: map Coin from the
    // Pay assigns and give the spec the observed value 25.)
    let ps = problem.structure();
    let gate_el = ps.element("gate").unwrap();
    let corr = Correspondence::new()
        .map_with_params(
            EventSel::of_class(sys.class("Assign"))
                .at(sys.var_element("credit"))
                .with_param(1, "Pay"),
            gate_el,
            ps.class("Coin").unwrap(),
            &[(0, 0)],
        )
        .map(
            EventSel::of_class(sys.class("End")).at(sys.entry_element("Enter")),
            gate_el,
            ps.class("Push").unwrap(),
        );
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).unwrap(),
        &VerifyOptions::default(),
    )
    .unwrap();
    // The first patron's Pay assigns credit 25 (== fare); if both pay
    // before anyone enters, the second assign is 50 and exact-fare fails
    // on those schedules — which is exactly what the checker must report.
    assert!(!outcome.ok());
    assert!(outcome
        .failures
        .iter()
        .all(|f| f.violated.iter().any(|v| v == "exact-fare")));
    // The prerequisite itself holds everywhere: no failure names it.
    assert!(outcome
        .failures
        .iter()
        .all(|f| !f.violated.iter().any(|v| v == "coin-then-push")));
}

/// The facade re-exports compose: build with gem::core, reason with
/// gem::logic, no substrate involved.
#[test]
fn facade_layers_compose() {
    let mut s = gem::core::Structure::new();
    let ping = s.add_class("Ping", &[]).unwrap();
    let pong = s.add_class("Pong", &[]).unwrap();
    let a = s.add_element("A", &[ping]).unwrap();
    let b = s.add_element("B", &[pong]).unwrap();
    let mut builder = ComputationBuilder::new(s);
    let mut last: Option<gem::core::EventId> = None;
    for i in 0..3 {
        let p = builder.add_event(a, ping, vec![]).unwrap();
        let q = builder.add_event(b, pong, vec![]).unwrap();
        builder.enable(p, q).unwrap();
        if let Some(prev) = last {
            builder.enable(prev, p).unwrap();
        }
        last = Some(q);
        let _ = i;
    }
    let c = builder.seal().unwrap();
    assert!(check_legality(&c).is_empty());
    let f = Formula::forall(
        "q",
        EventSel::of_class(pong),
        Formula::exists("p", EventSel::of_class(ping), Formula::enables("p", "q")),
    );
    let report = check(&f, &c, Strategy::default()).unwrap();
    assert!(report.holds && report.exhaustive);
}

/// The §8.2 *nondeterministic prerequisite* on a real CSP merger: the
/// merger's receive completions are enabled by the output request of
/// either producer — exactly one each.
#[test]
fn nondet_prerequisite_on_csp_merger() {
    use gem::lang::csp::{AltBranch, Comm, CspProcess, CspProgram, CspStmt, CspSystem};
    use gem::logic::holds_on_computation;
    use gem::spec::nondet_prerequisite;

    let merger = CspProcess::new(
        "m",
        vec![CspStmt::Alt(vec![
            AltBranch {
                guard: None,
                comm: Comm::Recv {
                    from: "p1".into(),
                    var: "x".into(),
                },
                body: vec![CspStmt::recv("p2", "y")],
            },
            AltBranch {
                guard: None,
                comm: Comm::Recv {
                    from: "p2".into(),
                    var: "y".into(),
                },
                body: vec![CspStmt::recv("p1", "x")],
            },
        ])],
    )
    .local("x", 0i64)
    .local("y", 0i64);
    let prog = CspProgram::new()
        .process(merger)
        .process(CspProcess::new(
            "p1",
            vec![CspStmt::send("m", Expr::int(1))],
        ))
        .process(CspProcess::new(
            "p2",
            vec![CspStmt::send("m", Expr::int(2))],
        ));
    let sys = CspSystem::new(prog);
    // {p1's OutReq, p2's OutReq} → m's InEnd.
    let sources = vec![
        EventSel::of_class(sys.class("OutReq")).at(sys.out_element(1)),
        EventSel::of_class(sys.class("OutReq")).at(sys.out_element(2)),
    ];
    let target = EventSel::of_class(sys.class("InEnd")).at(sys.in_element(0));
    let f = nondet_prerequisite(&sources, &target);
    let mut runs = 0;
    Explorer::default().for_each_run(&sys, |state, _| {
        runs += 1;
        let c = sys.computation(state).unwrap();
        assert!(holds_on_computation(&f, &c).unwrap());
        ControlFlow::Continue(())
    });
    assert_eq!(runs, 2, "either producer may win the alternative");
}

/// Explorer statistics are consistent with the monitor substrate across
/// the facade.
#[test]
fn explorer_facade_consistency() {
    let monitor = MonitorDef::new("M").var("x", 0i64).entry(
        "Touch",
        &[],
        vec![Stmt::assign("x", Expr::var("x").add(Expr::int(1)))],
    );
    let prog = MonitorProgram::new(monitor)
        .process(ProcessDef::new(
            "p",
            vec![ScriptStep::Call {
                entry: "Touch".into(),
                args: vec![],
            }],
        ))
        .process(ProcessDef::new(
            "q",
            vec![ScriptStep::Call {
                entry: "Touch".into(),
                args: vec![],
            }],
        ));
    let sys = MonitorSystem::new(prog);
    let mut runs = 0;
    let stats = Explorer::default().for_each_run(&sys, |state, _| {
        runs += 1;
        assert!(sys.is_complete(state));
        ControlFlow::Continue(())
    });
    assert_eq!(stats.runs, runs);
    assert!(stats.steps >= stats.runs);
}

/// The monitor, CSP and ADA simulators only ever add edges into the event
/// they just emitted, so their builders stay on the vector-clock append
/// path (no DFS order queries, no clock recomputation at seal) on every
/// run of the committed problem instances.
#[test]
fn simulators_stay_on_the_append_path() {
    use gem::problems::{bounded, db_update, life, one_slot, philosophers, readers_writers};
    use readers_writers::{
        mesa_safe_readers_writers_monitor, rw_program_with_semantics, rw_rounds_program,
    };

    fn check<S: System>(name: &str, sys: &S) {
        let mut leaves = 0;
        Explorer::with_max_runs(500).for_each_run(sys, |state, _| {
            let b = sys
                .trace_builder(state)
                .expect("simulators expose their builder");
            assert!(b.on_append_path(), "{name}: builder left the append path");
            leaves += 1;
            ControlFlow::Continue(())
        });
        assert!(leaves > 0, "{name}: no runs explored");
    }

    let items = [1, 2, 3];
    check("one-slot monitor", &one_slot::monitor_solution(&items));
    check("one-slot csp", &one_slot::csp_solution(&items));
    check("one-slot ada", &one_slot::ada_solution(&items));
    check("bounded monitor", &bounded::monitor_solution(&items, 2));
    check("bounded csp", &bounded::csp_solution(&items, 2));
    check("bounded ada", &bounded::ada_solution(&items, 2));
    for semantics in [
        gem::lang::monitor::SignalSemantics::Hoare,
        gem::lang::monitor::SignalSemantics::Mesa,
    ] {
        for monitor in [
            gem::lang::monitor::readers_writers_monitor(),
            readers_writers::writers_priority_monitor(),
            mesa_safe_readers_writers_monitor(),
        ] {
            let sys = rw_program_with_semantics(monitor, 2, 1, true, semantics);
            check("rw monitor", &sys);
        }
    }
    let rounds = rw_rounds_program(gem::lang::monitor::readers_writers_monitor(), 1, 1, 2);
    check("rw rounds", &rounds);
    check("db-update csp", &db_update::db_update_program(2, 2));
    check("life csp", &life::life_program(&life::blinker(), 1));
    for order in [
        philosophers::ForkOrder::Naive,
        philosophers::ForkOrder::Asymmetric,
    ] {
        check(
            "philosophers ada",
            &philosophers::philosophers_program(3, 1, order),
        );
    }
}
