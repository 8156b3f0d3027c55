//! The two kinds of run: untraced (end-to-end metrics through the CLI's
//! in-process entry) and traced (per-layer metrics from the decomposed
//! sweep, with fidelity checks against `verify_system` and the CLI).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gem_obs::estimate::SplitMix64;
use gem_verify::{verify_system, VerifyOptions, VerifyOutcome};

use crate::calibrate::{rescale, HostSpeed, Timed};
use crate::traced::{
    deadlock_explorer, replay, traced_deadlock, traced_verify, LayerTotals, Sim, Times,
};
use crate::workload::{build, check_cli_output, check_outcome, Answer, Built, Command, Instance};
use crate::{median, once, rescaled_timing, timing, with_sys, Metric, Outcome};

/// Measured rounds of each kind taken even when `--seconds` has already
/// run out, so every statistic has a few samples.
const MIN_SAMPLES: usize = 3;
/// Untimed builds of the whole instance set before the first timed one.
const SETUP_WARMUP: usize = 20;
/// Timed builds of the whole instance set after each measured pair of
/// rounds; `setup_s` is the median over all of them, so its samples span
/// the run as the round times do.
const SETUP_PER_PAIR: usize = 31;

/// The instance order of one round: a seeded shuffle, so the seed changes
/// the order and never the work.
fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The report file `--stats-json` rounds write, inside the benchmark's
/// own `out/` directory. Dropping it deletes the file and, when no other
/// run is using it, the directory — however the run ends.
struct StatsJson(PathBuf);

impl StatsJson {
    fn create() -> Result<Self, String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir.join(format!("stats-{}.json", std::process::id()))))
    }

    fn path(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for StatsJson {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
        if let Some(dir) = self.0.parent() {
            std::fs::remove_dir(dir).ok();
        }
    }
}

/// The argument vectors of one round kind, built before any timing.
fn round_args(instances: &[Instance], stats_json: Option<&str>) -> Vec<Vec<String>> {
    instances.iter().map(|i| i.cli_args(stats_json)).collect()
}

/// One round through `gem_cli::run`: every instance once, in `order`,
/// each bracketed by host-speed probes. Returns the round's time (the sum
/// of the instances' times); verdicts are checked after the clocks stop.
fn cli_round(
    instances: &[Instance],
    args: &[Vec<String>],
    order: &[usize],
    speed: &mut HostSpeed,
    out: &mut Outcome,
) -> Timed {
    let mut texts = Vec::with_capacity(order.len());
    let mut round = Timed::default();
    let mut before = speed.probe();
    for &i in order {
        let t = Instant::now();
        texts.push(catch_unwind(AssertUnwindSafe(|| gem_cli::run(&args[i]))));
        let wall = t.elapsed().as_secs_f64();
        let after = speed.probe();
        let timed = rescale(wall, before, after);
        round.wall += timed.wall;
        round.scaled += timed.scaled;
        before = after;
    }
    for (&i, text) in order.iter().zip(texts) {
        let verdict = match text {
            Ok(Ok(text)) => check_cli_output(instances[i].answer, &text),
            Ok(Err(e)) => Err(format!("error: {e}")),
            Err(_) => Err("panicked".to_owned()),
        };
        out.record(&instances[i].label(), verdict);
    }
    round
}

/// The wall times of building every instance once, `times` times,
/// excluding the drops.
fn build_times(instances: &[Instance], times: usize) -> Vec<f64> {
    (0..times)
        .map(|_| {
            let t = Instant::now();
            let built: Vec<Built> = instances.iter().map(build).collect();
            let secs = t.elapsed().as_secs_f64();
            drop(built);
            secs
        })
        .collect()
}

/// [`build_times`], bracketed by host-speed probes.
fn setup_samples(instances: &[Instance], times: usize, speed: &mut HostSpeed) -> Vec<Timed> {
    let before = speed.probe();
    let walls = build_times(instances, times);
    let after = speed.probe();
    walls
        .into_iter()
        .map(|w| rescale(w, before, after))
        .collect()
}

/// The process's peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The untraced run: plain and `--stats-json` rounds alternated pairwise
/// (the order within a pair flips every pair), each measured pair followed
/// by a batch of timed set-up builds, until `seconds` have passed since
/// the start; then the peak RSS. The first pair is a warm-up and is
/// dropped. Reports every end-to-end metric.
///
/// # Errors
///
/// Only for an unusable environment (no `out/` directory, no `/proc`).
pub fn untraced_run(instances: &[Instance], seed: u64, seconds: f64) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Outcome::default();
    build_times(instances, SETUP_WARMUP);
    let mut speed = HostSpeed::new();
    let stats_json = StatsJson::create()?;
    let plain_args = round_args(instances, None);
    let stats_args = round_args(instances, Some(&stats_json.path()));
    let mut rng = SplitMix64::new(seed);
    let (mut plain, mut stats, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    'rounds: for pair in 0.. {
        let order = shuffled(instances.len(), &mut rng);
        let stats_first = pair % 2 == 1;
        for with_stats in [stats_first, !stats_first] {
            if plain.len().min(stats.len()) >= MIN_SAMPLES && Instant::now() >= deadline {
                break 'rounds;
            }
            let args = if with_stats { &stats_args } else { &plain_args };
            let round = cli_round(instances, args, &order, &mut speed, &mut out);
            let samples = if with_stats { &mut stats } else { &mut plain };
            if pair > 0 {
                samples.push(round);
            }
        }
        if pair > 0 {
            setup.extend(setup_samples(instances, SETUP_PER_PAIR, &mut speed));
        }
    }
    let rss = peak_rss_mb()?;
    out.metrics = end_to_end_metrics(&plain, &stats, &setup, rss);
    Ok(out)
}

/// The end-to-end metrics of an untraced run, from the per-round times of
/// plain and stats rounds, the set-up samples and the peak RSS. Times are
/// the rescaled ones.
pub fn end_to_end_metrics(
    plain: &[Timed],
    stats: &[Timed],
    setup: &[Timed],
    rss_mb: f64,
) -> Vec<Metric> {
    vec![
        rescaled_timing("verdict_s", plain),
        rescaled_timing("verdict_stats_s", stats),
        rescaled_timing("setup_s", setup),
        once("peak_rss_mb", "MB", rss_mb),
    ]
}

/// What the decomposed sweep of an instance must reproduce.
enum Reference {
    /// `verify_system`'s outcome.
    Verify(VerifyOutcome),
    /// `find_deadlock`'s witness, `Debug`-formatted.
    Deadlock(Option<String>),
}

/// Computes the reference verdict of `inst` with the program's own entry
/// points, checks it against the pinned answer, and checks that the CLI
/// prints exactly that verdict.
fn reference(inst: &Instance, options: &VerifyOptions) -> Result<Reference, String> {
    let built = build(inst);
    let (reference, expected_text) = with_sys!(&built.sys, |sys| match inst.command {
        Command::Verify => {
            let outcome = verify_system(sys, &built.spec, &built.corr, |s| sys.seal(s), options)
                .map_err(|e| format!("verify_system: {e}"))?;
            check_outcome(inst.answer, &outcome)?;
            let text = format!("{outcome}\nverdict: ");
            (Reference::Verify(outcome), text)
        }
        Command::Deadlock => {
            let witness = gem_lang::find_deadlock(sys, &deadlock_explorer());
            if witness.is_some() != (inst.answer == Answer::Deadlock) {
                return Err(format!(
                    "expected {:?}, got witness {witness:?}",
                    inst.answer
                ));
            }
            let text = match &witness {
                Some(path) => format!("DEADLOCK after {} action(s):\n{path:#?}", path.len()),
                None => "no deadlock (pruned state search)".to_owned(),
            };
            (Reference::Deadlock(witness.map(|p| format!("{p:?}"))), text)
        }
    });
    let cli = gem_cli::run(&inst.cli_args(None)).map_err(|e| format!("gem_cli::run: {e}"))?;
    if !cli.starts_with(&expected_text) {
        return Err(format!(
            "the CLI and the benchmark build different instances:\n  CLI: {cli}\n  built: {expected_text}"
        ));
    }
    Ok(reference)
}

/// One instance through the decomposed sweep: returns its traced wall
/// time (sweep plus incremental-checker compile), after checking the
/// outcome against `reference` and replaying the builder log.
fn traced_instance<S: Sim>(
    sys: &S,
    built: &Built,
    inst: &Instance,
    reference: &Reference,
    options: &VerifyOptions,
    totals: &mut LayerTotals,
) -> Result<Duration, String> {
    let t = Instant::now();
    let (matches, log) = match (inst.command, reference) {
        (Command::Verify, Reference::Verify(expected)) => {
            let (outcome, log) = traced_verify(sys, &built.spec, &built.corr, options, totals)
                .map_err(|e| format!("traced sweep: {e}"))?;
            (outcome == *expected, log)
        }
        (Command::Deadlock, Reference::Deadlock(expected)) => {
            let (witness, log) = traced_deadlock(sys, totals);
            (witness.map(|p| format!("{p:?}")) == *expected, log)
        }
        _ => unreachable!("reference kind follows the command"),
    };
    let wall = t.elapsed();
    if !matches {
        return Err("the decomposed sweep's verdict differs from the program's".to_owned());
    }
    replay(sys, &log, totals)?;
    Ok(wall)
}

/// One traced round: every instance built and swept once, in `order`.
/// Returns the traced wall time (builds plus sweeps) in seconds.
fn traced_round(
    instances: &[Instance],
    references: &[Reference],
    order: &[usize],
    options: &VerifyOptions,
    totals: &mut LayerTotals,
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut wall = Duration::ZERO;
    for &i in order {
        let inst = &instances[i];
        let t = Instant::now();
        let built = build(inst);
        wall += t.elapsed();
        let swept = with_sys!(&built.sys, |sys| traced_instance(
            sys,
            &built,
            inst,
            &references[i],
            options,
            totals
        ))
        .map_err(|e| format!("{}: {e}", inst.label()))?;
        wall += swept;
        out.record(&inst.label(), Ok(()));
    }
    Ok(wall.as_secs_f64())
}

/// The traced run: reference verdicts first, then groups of a plain, a
/// stats and a traced round (rotating which goes first) until `seconds`
/// have passed since the start; the first group is a warm-up and is
/// dropped. Reports every per-layer metric.
///
/// # Errors
///
/// Any fidelity mismatch: a reference verdict that is not the pinned
/// answer, a CLI verdict that differs from the reference, a decomposed
/// sweep that differs from the reference, a replayed builder whose
/// fingerprint differs from the live one, or per-layer counts that do not
/// repeat between rounds.
pub fn traced_run(instances: &[Instance], seed: u64, seconds: f64) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let options = VerifyOptions::default();
    let references = instances
        .iter()
        .map(|inst| reference(inst, &options).map_err(|e| format!("{}: {e}", inst.label())))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Outcome::default();
    let stats_json = StatsJson::create()?;
    let plain_args = round_args(instances, None);
    let stats_args = round_args(instances, Some(&stats_json.path()));
    let mut rng = SplitMix64::new(seed);
    let (mut plain, mut stats, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers: Vec<LayerTotals> = Vec::new();
    let mut speed = HostSpeed::new();
    'rounds: for group in 0.. {
        let order = shuffled(instances.len(), &mut rng);
        for k in 0..3 {
            let taken = plain.len().min(stats.len()).min(traced.len());
            if taken >= MIN_SAMPLES && Instant::now() >= deadline {
                break 'rounds;
            }
            let measured = group > 0;
            match (group + k) % 3 {
                0 => {
                    let round = cli_round(instances, &plain_args, &order, &mut speed, &mut out);
                    if measured {
                        plain.push(round.wall);
                    }
                }
                1 => {
                    let round = cli_round(instances, &stats_args, &order, &mut speed, &mut out);
                    if measured {
                        stats.push(round.wall);
                    }
                }
                _ => {
                    let mut totals = LayerTotals::default();
                    let secs = traced_round(
                        instances,
                        &references,
                        &order,
                        &options,
                        &mut totals,
                        &mut out,
                    )?;
                    if measured {
                        traced.push(secs);
                        layers.push(totals);
                    }
                }
            }
        }
    }
    if out.failed > 0 {
        return Err(format!("wrong verdicts: {}", out.failures.join("; ")));
    }
    let counts = layers[0].counts;
    if let Some(other) = layers.iter().find(|l| l.counts != counts) {
        return Err(format!(
            "per-layer counts differ between rounds:\n  {counts:?}\n  {:?}",
            other.counts
        ));
    }
    // Rounds of one group ran back to back, so their ratio cancels most
    // of the host's drift.
    let ratio = |num: &[f64]| {
        let per_group: Vec<f64> = num.iter().zip(&plain).map(|(n, p)| n / p).collect();
        median(&per_group)
    };
    out.metrics = per_layer_metrics(&layers, ratio(&stats), ratio(&traced));
    Ok(out)
}

/// The per-layer metrics of a traced run: `_ns` values are medians over
/// the traced rounds of per-round sums, counts are per round, and the two
/// overhead ratios (stats round and traced round over plain round) are
/// medians over the round groups.
pub fn per_layer_metrics(
    layers: &[LayerTotals],
    stats_overhead: f64,
    trace_overhead: f64,
) -> Vec<Metric> {
    let ns = |name: &'static str, f: fn(&Times) -> u64| {
        let samples: Vec<f64> = layers.iter().map(|l| f(&l.times) as f64).collect();
        timing(name, "ns", &samples)
    };
    let c = layers.first().map(|l| l.counts).unwrap_or_default();
    let count = |name: &'static str, v: u64| once(name, "count", v as f64);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ns("lang.sim.enabled_ns", |t| t.enabled_ns),
        count("lang.sim.enabled_calls", c.enabled_calls),
        once(
            "lang.sim.enabled_width",
            "actions/call",
            ratio(c.enabled_actions as f64, c.enabled_nonempty as f64),
        ),
        ns("lang.sim.apply_ns", |t| t.apply_ns),
        count("lang.sim.apply_calls", c.apply_calls),
        ns("lang.sim.undo_ns", |t| t.undo_ns),
        count("lang.sim.undo_calls", c.undo_calls),
        ns("lang.sim.independent_ns", |t| t.independent_ns),
        count("lang.sim.independent_calls", c.independent_calls),
        ns("lang.sim.control_key_ns", |t| t.control_key_ns),
        count("lang.sim.control_key_calls", c.control_key_calls),
        ns("lang.explore.self_ns", Times::explore_self_ns),
        count("lang.explore.runs", c.runs),
        ns("core.builder.add_event_ns", |t| t.add_event_ns),
        count("core.builder.add_event_calls", c.add_event_calls),
        ns("core.builder.enable_ns", |t| t.enable_ns),
        count("core.builder.enable_calls", c.enable_calls),
        ns("core.builder.truncate_ns", |t| t.truncate_ns),
        count("core.builder.truncate_calls", c.truncate_calls),
        ns("core.builder.seal_ns", |t| t.seal_ns),
        count("core.builder.seal_calls", c.seal_calls),
        ns("core.legality_ns", |t| t.legality_ns),
        count("core.legality_calls", c.legality_calls),
        ns("verify.incr.compile_ns", |t| t.incr_compile_ns),
        ns("verify.incr.sync_ns", |t| t.incr_sync_ns),
        count("verify.incr.sync_calls", c.incr_sync_calls),
        once(
            "verify.incr.clean_ratio",
            "ratio",
            ratio(c.incr_clean as f64, c.incr_sync_calls as f64),
        ),
        ns("verify.project_ns", |t| t.project_ns),
        count("verify.project_calls", c.project_calls),
        ns("spec.check_ns", |t| t.check_ns),
        count("spec.check_calls", c.check_calls),
        once("obs.stats_overhead_ratio", "ratio", stats_overhead),
        once("trace.overhead_ratio", "ratio", trace_overhead),
    ]
}
