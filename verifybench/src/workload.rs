//! The three workloads: their instances, the verdict pinned by hand for
//! each, and the builders that turn an instance into a problem spec, a
//! program system and a correspondence with the same `gem_problems`
//! constructors (and the same parameter defaults) the CLI uses.

use gem_lang::ada::AdaSystem;
use gem_lang::csp::CspSystem;
use gem_lang::monitor::{readers_writers_monitor, MonitorSystem, SignalSemantics};
use gem_problems::bounded;
use gem_problems::philosophers::{
    philosophers_correspondence, philosophers_program, philosophers_spec, ForkOrder,
};
use gem_problems::readers_writers::{
    rw_correspondence, rw_program_with_semantics, rw_spec, writers_priority_monitor, RwVariant,
};
use gem_spec::Specification;
use gem_verify::{Correspondence, VerifyOutcome};

/// Which CLI command checks an instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Command {
    /// `gem verify`: `PROG sat P` over every schedule.
    Verify,
    /// `gem deadlock`: the control-key-pruned deadlock search.
    Deadlock,
}

impl Command {
    /// The CLI command word.
    pub fn word(self) -> &'static str {
        match self {
            Command::Verify => "verify",
            Command::Deadlock => "deadlock",
        }
    }
}

/// The verdict an instance must reach, pinned from the paper's claims
/// (see `tests/paper_claims.rs` and EXPERIMENTS.md of the repository),
/// never from the program's own output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Answer {
    /// `PROG sat P` holds on every schedule (exhaustive, no deadlock).
    Holds,
    /// `PROG sat P` fails; the first failing run violates this restriction.
    Fails(&'static str),
    /// The deadlock search finds a deadlocked schedule.
    Deadlock,
    /// The deadlock search finds none.
    NoDeadlock,
}

/// One problem instance of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Instance {
    /// The CLI command that checks it.
    pub command: Command,
    /// The CLI problem name.
    pub problem: &'static str,
    /// The CLI `key=value` parameters.
    pub params: &'static [&'static str],
    /// The pinned verdict.
    pub answer: Answer,
}

impl Instance {
    /// `command problem params…` as typed after `gem`.
    pub fn label(&self) -> String {
        let mut s = format!("{} {}", self.command.word(), self.problem);
        for p in self.params {
            s.push(' ');
            s.push_str(p);
        }
        s
    }

    /// The argument vector for `gem_cli::run`: the default flags, with the
    /// heartbeat off, and optionally `--stats-json <path>`.
    pub fn cli_args(&self, stats_json: Option<&str>) -> Vec<String> {
        let mut args = vec![self.command.word().to_owned(), self.problem.to_owned()];
        args.extend(self.params.iter().map(|p| (*p).to_owned()));
        args.extend(["--heartbeat".to_owned(), "0".to_owned()]);
        if let Some(path) = stats_json {
            args.extend(["--stats-json".to_owned(), path.to_owned()]);
        }
        args
    }

    /// The value of parameter `key`, or `default` (the CLI's default).
    fn param<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.params
            .iter()
            .find_map(|p| p.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or(default)
    }

    fn usize_param(&self, key: &str, default: usize) -> usize {
        let v = self.param(key, "");
        if v.is_empty() {
            default
        } else {
            v.parse()
                .unwrap_or_else(|_| panic!("{key}={v} is not a number"))
        }
    }
}

const fn verify(
    problem: &'static str,
    params: &'static [&'static str],
    answer: Answer,
) -> Instance {
    Instance {
        command: Command::Verify,
        problem,
        params,
        answer,
    }
}

/// Every restriction is in the incremental fragment, so every leaf is
/// proven clean along the DFS; covers all three substrates.
const CLEAN_SWEEP: &[Instance] = &[
    verify("bounded", &["items=4", "cap=2"], Answer::Holds),
    verify(
        "bounded",
        &["items=4", "cap=2", "substrate=ada"],
        Answer::Holds,
    ),
    verify(
        "bounded",
        &["items=6", "cap=3", "substrate=csp"],
        Answer::Holds,
    ),
    verify("rw", &["readers=2", "writers=1"], Answer::Holds),
];

/// The ◇ liveness restrictions fall outside the incremental fragment, so
/// every leaf is sealed, legality-checked, projected and batch-checked.
const BATCH_CHECK: &[Instance] = &[
    verify(
        "rw",
        &["readers=2", "writers=1", "variant=progress"],
        Answer::Holds,
    ),
    verify(
        "rw",
        &["readers=1", "writers=2", "variant=progress"],
        Answer::Holds,
    ),
];

/// Failing and deadlocking instances: violation detection, the batch
/// fallback of failing leaves, the `max_failures` stop, and the pruned
/// deadlock search.
const COUNTEREXAMPLE_HUNT: &[Instance] = &[
    // §9: the readers-priority monitor refutes the writers-priority spec.
    verify(
        "rw",
        &["readers=1", "writers=2", "variant=writers"],
        Answer::Fails("writers-priority"),
    ),
    verify(
        "rw",
        &["readers=2", "writers=2", "variant=writers"],
        Answer::Fails("writers-priority"),
    ),
    // The writers-priority monitor refutes the readers-priority spec.
    verify(
        "rw",
        &[
            "readers=2",
            "writers=2",
            "monitor=writers",
            "variant=readers",
        ],
        Answer::Fails("readers-priority"),
    ),
    // A priority monitor lets a later reader overtake a waiting writer.
    verify(
        "rw",
        &["readers=1", "writers=2", "variant=fcfs"],
        Answer::Fails("fcfs-write-before-read"),
    ),
    // The Hoare-style `IF … THEN WAIT` monitor under Mesa signalling
    // loses writer mutual exclusion (the Hoare/Mesa ablation).
    verify(
        "rw",
        &["readers=2", "writers=2", "semantics=mesa"],
        Answer::Fails("writers-exclude-writers"),
    ),
    Instance {
        command: Command::Deadlock,
        problem: "philosophers",
        params: &["n=4", "order=naive", "meals=2"],
        answer: Answer::Deadlock,
    },
    Instance {
        command: Command::Deadlock,
        problem: "philosophers",
        params: &["n=4", "order=asymmetric"],
        answer: Answer::NoDeadlock,
    },
];

/// The workload names, in the order the README lists them.
pub const WORKLOADS: [&str; 3] = ["clean_sweep", "batch_check", "counterexample_hunt"];

/// The instances of workload `name`.
pub fn instances(name: &str) -> Option<&'static [Instance]> {
    match name {
        "clean_sweep" => Some(CLEAN_SWEEP),
        "batch_check" => Some(BATCH_CHECK),
        "counterexample_hunt" => Some(COUNTEREXAMPLE_HUNT),
        _ => None,
    }
}

/// A program system of one of the three substrates.
#[allow(clippy::large_enum_variant)] // a handful of instances per process
pub enum Sys {
    /// A monitor program.
    Monitor(MonitorSystem),
    /// A CSP program.
    Csp(CspSystem),
    /// An ADA tasking program.
    Ada(AdaSystem),
}

/// An instance built the way the CLI builds it.
pub struct Built {
    /// The problem specification.
    pub spec: Specification,
    /// The program system, including its compiled code.
    pub sys: Sys,
    /// The program-to-problem correspondence.
    pub corr: Correspondence,
}

/// Builds `inst` with the CLI's constructors and parameter defaults.
///
/// # Panics
///
/// Panics on a problem or parameter value the workloads do not use.
pub fn build(inst: &Instance) -> Built {
    match inst.problem {
        "bounded" => {
            let items: Vec<i64> = (1..=inst.usize_param("items", 4) as i64).collect();
            let cap = inst.usize_param("cap", 2);
            let spec = bounded::bounded_spec(items.len(), cap);
            match inst.param("substrate", "monitor") {
                "monitor" => {
                    let sys = bounded::monitor_solution(&items, cap);
                    let corr = bounded::monitor_correspondence(&sys, &spec, cap);
                    Built {
                        spec,
                        sys: Sys::Monitor(sys),
                        corr,
                    }
                }
                "csp" => {
                    let sys = bounded::csp_solution(&items, cap);
                    let corr = bounded::csp_correspondence(&sys, &spec, cap);
                    Built {
                        spec,
                        sys: Sys::Csp(sys),
                        corr,
                    }
                }
                "ada" => {
                    let sys = bounded::ada_solution(&items, cap);
                    let corr = bounded::ada_correspondence(&sys, &spec, cap);
                    Built {
                        spec,
                        sys: Sys::Ada(sys),
                        corr,
                    }
                }
                other => panic!("unknown substrate {other}"),
            }
        }
        "rw" => {
            let readers = inst.usize_param("readers", 1);
            let writers = inst.usize_param("writers", 2);
            let variant = match inst.param("variant", "readers") {
                "readers" => RwVariant::ReadersPriority,
                "writers" => RwVariant::WritersPriority,
                "fcfs" => RwVariant::Fcfs,
                "progress" => RwVariant::Progress,
                other => panic!("unknown variant {other}"),
            };
            let monitor = match inst.param("monitor", "readers") {
                "readers" => readers_writers_monitor(),
                "writers" => writers_priority_monitor(),
                other => panic!("unknown monitor {other}"),
            };
            let semantics = match inst.param("semantics", "hoare") {
                "hoare" => SignalSemantics::Hoare,
                "mesa" => SignalSemantics::Mesa,
                other => panic!("unknown semantics {other}"),
            };
            let sys = rw_program_with_semantics(monitor, readers, writers, false, semantics);
            let spec = rw_spec(readers + writers, false, variant);
            let corr = rw_correspondence(&sys, &spec, false);
            Built {
                spec,
                sys: Sys::Monitor(sys),
                corr,
            }
        }
        "philosophers" => {
            let n = inst.usize_param("n", 3);
            let meals = inst.usize_param("meals", 1);
            let order = match inst.param("order", "asymmetric") {
                "naive" => ForkOrder::Naive,
                "asymmetric" => ForkOrder::Asymmetric,
                other => panic!("unknown order {other}"),
            };
            let sys = philosophers_program(n, meals, order);
            let spec = philosophers_spec(n);
            let corr = philosophers_correspondence(&sys, &spec, n);
            Built {
                spec,
                sys: Sys::Ada(sys),
                corr,
            }
        }
        other => panic!("unknown problem {other}"),
    }
}

/// Runs `$body` with `$sys` bound to the concrete system inside a
/// [`Sys`], so generic code can be written once for all substrates.
#[macro_export]
macro_rules! with_sys {
    ($built:expr, |$sys:ident| $body:expr) => {
        match $built {
            $crate::workload::Sys::Monitor($sys) => $body,
            $crate::workload::Sys::Csp($sys) => $body,
            $crate::workload::Sys::Ada($sys) => $body,
        }
    };
}

/// Checks CLI output text against the pinned answer; `Err` says why not.
pub fn check_cli_output(answer: Answer, out: &str) -> Result<(), String> {
    let ok = match answer {
        Answer::Holds => {
            out.contains(" 0 deadlock(s), 0 failing run(s)")
                && out.contains("verdict: PROG sat P HOLDS (all schedules)")
        }
        Answer::Fails(restriction) => {
            out.contains("verdict: PROG sat P FAILS")
                && out
                    .lines()
                    .find_map(|l| l.trim_start().strip_prefix("run ")?.split_once(": "))
                    .is_some_and(|(_, names)| names.split(", ").any(|n| n == restriction))
        }
        Answer::Deadlock => out.starts_with("DEADLOCK after "),
        Answer::NoDeadlock => out.starts_with("no deadlock"),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {answer:?}, got: {out}"))
    }
}

/// Checks a `VerifyOutcome` against the pinned answer of a `verify`
/// instance.
pub fn check_outcome(answer: Answer, outcome: &VerifyOutcome) -> Result<(), String> {
    let ok = match answer {
        Answer::Holds => outcome.ok() && outcome.exhaustive(),
        Answer::Fails(restriction) => outcome
            .failures
            .first()
            .is_some_and(|f| f.violated.iter().any(|v| v == restriction)),
        Answer::Deadlock | Answer::NoDeadlock => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {answer:?}, got: {outcome}"))
    }
}
