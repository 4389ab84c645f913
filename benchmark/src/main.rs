//! `emap-benchmark`: the repository's one benchmark. See `README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints the result object as the last line
//! of standard output. Without `--workload`, all four run untraced and then
//! traced, each in a child process.

mod content;
mod fleet;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode};

use workloads::{Report, RunArgs, Workload, CONNECTIONS, GENERATOR_THREADS};

/// `run_seconds` of `BENCHMARK.json`, the default when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str =
    "usage: emap-benchmark [--workload edge_only|cloud_search|fleet_remote|ingest_mixed] \
[--seed <n>] [--seconds <s>] [--trace 0|1]";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => cli.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(cli)
}

/// Design rule 5: one allocator arena. glibc's per-thread arenas made peak
/// RSS bimodal, so a process started without the setting replaces itself
/// with one that has it.
fn ensure_one_arena(args: &[String]) -> Result<(), String> {
    if std::env::var_os("MALLOC_ARENA_MAX").is_some() {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `exec` only returns on failure.
    Err(format!(
        "re-exec with MALLOC_ARENA_MAX=1: {}",
        Command::new(exe)
            .args(args)
            .env("MALLOC_ARENA_MAX", "1")
            .exec()
    ))
}

/// Refuses to generate load from more threads or over more connections than
/// there are cores: the loop is closed and single-client by design.
fn guard(cores: usize) -> Result<(), String> {
    if GENERATOR_THREADS > cores || CONNECTIONS > cores {
        return Err(format!(
            "{GENERATOR_THREADS} generator threads / {CONNECTIONS} connections on {cores} cores"
        ));
    }
    Ok(())
}

fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git checkout)".into(),
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn print_manifest(args: &RunArgs, cores: usize, report: &Report) {
    let w = args.workload;
    println!(
        "manifest: workload={} seed={} seconds={} trace={} git_rev={} nproc={cores} rustc=\"{}\"",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        env!("EMAP_BENCH_RUSTC"),
    );
    println!(
        "manifest: tier={} sets={} ops_per_cycle={} cycles_completed={} generator_threads={GENERATOR_THREADS} \
connections={CONNECTIONS} live_threads={} MALLOC_ARENA_MAX={}",
        w.tier().label(),
        report.tier_sets,
        w.ops_per_cycle(),
        report.cycles,
        report.live_threads,
        std::env::var("MALLOC_ARENA_MAX").unwrap_or_else(|_| "unset".into()),
    );
    println!(
        "manifest: setup_s={:.3} reference_s={:.3} measured_ops={} samples_beyond_p90={}{} digest={:016x}",
        report.setup_s,
        report.reference_s,
        report.cycles * w.ops_per_cycle(),
        report.beyond_p90,
        if report.beyond_p90 < 10 {
            " (fewer than ten: too short a run for a p90)"
        } else {
            ""
        },
        report.digest,
    );
    for fault in &report.faults {
        println!("fault: {fault}");
    }
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn run_one(args: &RunArgs) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    guard(cores)?;
    let report = workloads::run(args)?;
    if let Some(rec) = &report.recorder {
        let path = out_dir().join(format!("trace-{}.jsonl", args.workload.name()));
        rec.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "trace: {} spans ({} dropped) -> {}",
            rec.spans().len(),
            rec.dropped,
            path.display()
        );
    }
    print_manifest(args, cores, &report);
    if report.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        return Err("a metric is not a finite number".into());
    }
    println!("{}", result_line(&report));
    Ok(report.correct && report.failed == 0)
}

/// Kills and reaps the child unless it was waited for.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None) | Err(_)) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// All four workloads untraced, then traced, one child process each.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in Workload::ALL {
            println!("== {} --trace {trace}", w.name());
            let child = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .env("MALLOC_ARENA_MAX", "1")
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", w.name()))?;
            let mut child = Reaped(child);
            let status = child
                .0
                .wait()
                .map_err(|e| format!("wait {}: {e}", w.name()))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.workload {
        None => run_all(&cli),
        Some(workload) => ensure_one_arena(&args).and_then(|()| {
            run_one(&RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
            })
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("emap-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics with the same units, or the driver refuses the result object.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = spec.matches("\"name\": \"").count();
        assert_eq!(
            names,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(
                spec.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let at = spec
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"));
            let rest = &spec[at..];
            let listed = rest[rest.find("\"unit\": \"").expect("a unit follows") + 9..]
                .split('"')
                .next()
                .expect("unit is quoted");
            assert_eq!(listed, *unit, "{name}");
        }
        assert!(spec.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload fleet_remote --seed 7 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse(&args).expect("valid");
        assert_eq!(cli.workload, Some(Workload::FleetRemote));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 20.0, true));
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse(&["--trace".into()]).is_err());
        assert!(parse(&[])
            .expect("no arguments runs everything")
            .workload
            .is_none());
    }
}
