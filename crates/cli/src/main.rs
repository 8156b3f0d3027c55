//! The `gem` binary: thin wrapper over [`gem_cli::run`]. Its exit code
//! carries the verdict (README "Exit codes"): 0 holds on all schedules or
//! no deadlock, 1 fails or deadlock found, 2 CLI error, 3 holds but
//! truncated.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gem_cli::run(&args) {
        Ok(out) => {
            println!("{out}");
            std::process::exit(verdict_code(&out));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// The exit code for a command's stdout: the `verify`/`profile`/`top`
/// verdict line, the `deadlock` answer, or the `explore` summary line.
/// Output without a verdict (`list`, `render`, `dot`, ...) exits 0.
fn verdict_code(out: &str) -> i32 {
    for line in out.lines() {
        if let Some(verdict) = line.strip_prefix("verdict: PROG sat P ") {
            return match verdict {
                "HOLDS (all schedules)" => 0,
                v if v.starts_with("HOLDS") => 3,
                _ => 1,
            };
        }
        if line.starts_with("DEADLOCK after ") {
            return 1;
        }
        if let Some(summary) = line.strip_prefix("schedules: ") {
            return match summary.split("deadlocks: ").nth(1) {
                Some(d) if !d.starts_with("0 ") && d != "0" => 1,
                _ if summary.contains("(truncated)") => 3,
                _ => 0,
            };
        }
    }
    0
}
