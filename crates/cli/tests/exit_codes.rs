//! The `gem` binary's exit-code contract: 0 = holds on all schedules or
//! no deadlock found, 1 = fails or deadlock found, 2 = CLI error, 3 =
//! holds but truncated — and no command line panics (exit 101).

use std::process::Command;

fn assert_code(args: &str, expected: &[i32]) {
    let out = Command::new(env!("CARGO_BIN_EXE_gem"))
        .args(args.split_whitespace().chain(["--heartbeat", "0"]))
        .output()
        .expect("gem runs");
    let code = out
        .status
        .code()
        .expect("gem exits, not killed by a signal");
    assert!(
        expected.contains(&code),
        "gem {args} exited {code}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn holds_and_no_deadlock_exit_0() {
    assert_code("verify rw readers=1 writers=1", &[0]);
    assert_code("deadlock philosophers n=2 order=asymmetric", &[0]);
    assert_code("explore rw readers=1 writers=1", &[0]);
    assert_code("list", &[0]);
}

#[test]
fn fails_and_deadlock_exit_1() {
    assert_code("verify rw readers=1 writers=2 variant=writers", &[1]);
    assert_code("deadlock philosophers n=2 order=naive", &[1]);
    assert_code("explore philosophers n=2 order=naive", &[1]);
}

#[test]
fn cli_errors_exit_2() {
    for args in [
        "verify no-such-problem",
        "verify rw --no-such-flag",
        "verify rw readers=lots",
        "verify bounded cap=0",
        "deadlock philosophers n=1",
        "verify db-update sites=0",
    ] {
        assert_code(args, &[2]);
    }
}

#[test]
fn truncated_holds_exit_3() {
    // Life's schedule space is capped at 50 runs.
    assert_code("verify life gens=1", &[3]);
    assert_code("explore life gens=1", &[3]);
}

/// Every problem × substrate × instance-size parameter at 0, 1 and a
/// large value: construction (`render`) for all three, the verify sweep
/// and the deadlock search for the small ones. Whatever the verdict, a
/// parameter the problem cannot take must be a CLI error, never a panic.
#[test]
fn no_parameter_value_panics() {
    let mut slots = Vec::new();
    for sub in ["monitor", "csp", "ada"] {
        slots.push(format!("one-slot items={{v}} substrate={sub}"));
        slots.push(format!("bounded items={{v}} cap=1 substrate={sub}"));
        slots.push(format!("bounded items=2 cap={{v}} substrate={sub}"));
    }
    slots.extend(
        [
            "rw readers={v} writers=1",
            "rw readers=1 writers={v}",
            "rw readers=1 writers=1 rounds={v}",
            "db-update clients={v} sites=1",
            "db-update clients=1 sites={v}",
            "philosophers n={v} meals=1",
            "philosophers n=2 meals={v}",
            "life gens={v}",
        ]
        .map(String::from),
    );
    for slot in &slots {
        for v in ["0", "1", "1000000000000"] {
            let commands: &[&str] = match v {
                "1000000000000" => &["render"],
                _ => &["render", "verify", "deadlock"],
            };
            for cmd in commands {
                assert_code(&format!("{cmd} {}", slot.replace("{v}", v)), &[0, 1, 2, 3]);
            }
        }
    }
}
