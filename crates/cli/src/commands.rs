//! Subcommand implementations.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use emap_cloud::{CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_core::{CloudService, EmapConfig, EmapPipeline, IngestPolicy, SessionReport};
use emap_datasets::{export, json::Value, registry::standard_registry};
use emap_edf::Recording;
use emap_mdb::{Mdb, MdbBuilder};
use emap_wire::StatsValue;

use crate::args::{Args, ArgsError};
use crate::USAGE;

/// Errors surfaced to the shell (message + suggested exit code 1).
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// Any runtime failure, already formatted for the user.
    Runtime(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Runtime(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError::Usage(e.to_string())
    }
}

fn runtime(e: impl fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

/// Dispatches a full argument vector (without the program name) to the
/// matching subcommand, writing human output to `out`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed invocations and
/// [`CliError::Runtime`] for execution failures.
pub fn dispatch<W: Write>(argv: Vec<String>, out: &mut W) -> Result<(), CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError::Usage("no command given".into()));
    };
    let rest = rest.to_vec();
    match command.as_str() {
        "generate" => generate(Args::parse(rest, &["out", "scale", "seed", "specs"])?, out),
        "inspect" => inspect(Args::parse(rest, &[])?, out),
        "build-mdb" => build_mdb(Args::parse(rest, &["out", "registry", "seed"])?, out),
        "mdb-info" => mdb_info(Args::parse(rest, &[])?, out),
        "monitor" => monitor(
            Args::parse(rest, &["mdb", "cloud", "input", "channel", "json"])?,
            out,
        ),
        "serve" => serve(
            Args::parse(
                rest,
                &[
                    "addr", "mdb", "registry", "seed", "workers", "seconds", "gate", "capacity",
                ],
            )?,
            out,
        ),
        "ping" => ping(Args::parse(rest, &["addr"])?, out),
        "stats" => stats(Args::parse(rest, &["addr"])?, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(runtime)?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn generate<W: Write>(args: Args, out: &mut W) -> Result<(), CliError> {
    let dir = args.require("out")?;
    let scale = args.get_or("scale", 1usize, "an integer")?;
    let seed = args.get_or("seed", 42u64, "an integer")?;
    let specs = match args.get("specs") {
        Some(path) => emap_datasets::registry::load_specs(path).map_err(runtime)?,
        None => standard_registry(scale),
    };
    let mut total = 0;
    for spec in specs {
        let dataset = spec.generate(seed);
        let sub = Path::new(dir).join(spec.id());
        let paths = export::write_dataset_dir(&dataset, &sub).map_err(runtime)?;
        writeln!(
            out,
            "{}: {} recordings -> {}",
            spec.id(),
            paths.len(),
            sub.display()
        )
        .map_err(runtime)?;
        total += paths.len();
    }
    writeln!(out, "wrote {total} recordings (seed {seed}, scale {scale})").map_err(runtime)?;
    Ok(())
}

fn inspect<W: Write>(args: Args, out: &mut W) -> Result<(), CliError> {
    if args.positional().is_empty() {
        return Err(CliError::Usage("inspect needs at least one file".into()));
    }
    for path in args.positional() {
        let file = File::open(path).map_err(runtime)?;
        let info = Recording::peek(BufReader::new(file)).map_err(runtime)?;
        writeln!(
            out,
            "{path}: patient `{}` recording `{}` — {:.1} s, {} annotations",
            info.patient_id,
            info.recording_id,
            info.duration_s(),
            info.n_annotations
        )
        .map_err(runtime)?;
        for (label, rate, n) in &info.channels {
            writeln!(out, "  channel {label:<12} {n:>8} samples @ {rate} Hz").map_err(runtime)?;
        }
    }
    Ok(())
}

fn build_mdb<W: Write>(args: Args, out: &mut W) -> Result<(), CliError> {
    let out_path = args.require("out")?;
    let seed = args.get_or("seed", 42u64, "an integer")?;
    let mut builder = MdbBuilder::new();
    if let Some(scale) = args.get_parsed("registry", "an integer scale")? {
        for spec in standard_registry(scale) {
            builder.add_dataset(&spec.generate(seed)).map_err(runtime)?;
        }
    } else if args.positional().is_empty() {
        return Err(CliError::Usage(
            "build-mdb needs --registry SCALE or at least one recording directory".into(),
        ));
    }
    for dir in args.positional() {
        let added = builder.add_edf_dir(dir).map_err(runtime)?;
        writeln!(out, "{dir}: {added} signal-sets").map_err(runtime)?;
    }
    let mdb = builder.build();
    mdb.write_snapshot(BufWriter::new(File::create(out_path).map_err(runtime)?))
        .map_err(runtime)?;
    let stats = mdb.stats();
    writeln!(
        out,
        "mega-database: {} signal-sets ({} normal / {} anomalous) -> {out_path}",
        stats.total, stats.normal, stats.anomalous
    )
    .map_err(runtime)?;
    Ok(())
}

fn mdb_info<W: Write>(args: Args, out: &mut W) -> Result<(), CliError> {
    let [path] = args.positional() else {
        return Err(CliError::Usage(
            "mdb-info needs exactly one snapshot file".into(),
        ));
    };
    let stats = read_mdb(path)?.stats();
    writeln!(out, "{path}: {} signal-sets", stats.total).map_err(runtime)?;
    writeln!(out, "  normal:    {}", stats.normal).map_err(runtime)?;
    writeln!(out, "  anomalous: {}", stats.anomalous).map_err(runtime)?;
    for (class, n) in &stats.per_class {
        writeln!(out, "  class {:<16} {n}", class.label()).map_err(runtime)?;
    }
    for (ds, n) in &stats.per_dataset {
        writeln!(out, "  dataset {:<20} {n}", ds).map_err(runtime)?;
    }
    let kib = stats.resident_bytes as f64 / 1024.0;
    writeln!(
        out,
        "  resident:  {kib:.0} KiB ({:.1} KiB per set)",
        kib / stats.total.max(1) as f64
    )
    .map_err(runtime)?;
    Ok(())
}

/// `monitor`: one [`EmapPipeline`] loop whichever backend refreshes it —
/// an in-process [`CloudService`] over `--mdb`, or a remote server over
/// `--cloud`. A refresh lands before the next second (`L = 1`), and an
/// unreachable cloud degrades the session to local tracking (counted in
/// the report) instead of aborting it.
fn monitor<W: Write>(args: Args, out: &mut W) -> Result<(), CliError> {
    let input_path = args.require("input")?;
    let json = args.get_or("json", false, "true or false")?;

    // Exactly one backend must be named; check before touching the input
    // file so flag mistakes surface as usage errors.
    let (backend, in_process) = match (args.get("mdb"), args.get("cloud")) {
        (Some(path), None) => (path, true),
        (None, Some(addr)) => (addr, false),
        _ => {
            return Err(CliError::Usage(
                "monitor takes exactly one of --mdb FILE and --cloud HOST:PORT".into(),
            ))
        }
    };

    let recording = Recording::read_from(BufReader::new(File::open(input_path).map_err(runtime)?))
        .map_err(runtime)?;
    let channel = match args.get("channel") {
        Some(label) => recording
            .channel(label)
            .ok_or_else(|| CliError::Runtime(format!("no channel labeled `{label}`")))?,
        None => &recording.channels()[0],
    };

    let config = EmapConfig::default().with_cloud_latency_iterations(1);
    let samples = channel.samples();
    let trace = if in_process {
        EmapPipeline::new(config, read_mdb(backend)?).run_on_samples(samples)
    } else {
        let cloud = RemoteCloud::new(backend, RemoteCloudConfig::default());
        EmapPipeline::with_cloud(config, cloud).run_on_samples(samples)
    }
    .map_err(runtime)?;
    let report = SessionReport::from_trace(&config, &trace).map_err(runtime)?;

    if json {
        let record = Value::object([
            ("input", Value::String(input_path.into())),
            ("channel", Value::String(channel.label().into())),
            ("backend", Value::String(backend.into())),
            ("pa", Value::floats(trace.pa_history.values())),
            ("final_pa", Value::Float(trace.pa_history.last())),
            ("verdict", Value::String(format!("{:?}", report.verdict))),
            ("report", report.to_json()),
        ]);
        writeln!(out, "{record}").map_err(runtime)?;
    } else {
        writeln!(out, "{input_path} ({}) via {backend}:", channel.label()).map_err(runtime)?;
        let series: Vec<String> = trace
            .pa_history
            .values()
            .iter()
            .map(|p| format!("{p:.2}"))
            .collect();
        writeln!(out, "P_A: [{}]", series.join(", ")).map_err(runtime)?;
        writeln!(out, "{report}").map_err(runtime)?;
        // Keep the machine-greppable verdict line stable.
        writeln!(out, "verdict: {:?}", report.verdict).map_err(runtime)?;
    }
    Ok(())
}

fn serve<W: Write>(args: Args, out: &mut W) -> Result<(), CliError> {
    let addr = args.require("addr")?;
    let seed = args.get_or("seed", 42u64, "an integer")?;
    let workers = args.get_or("workers", 4usize, "an integer")?;
    let seconds = args.get_parsed::<u64>("seconds", "an integer")?;

    let mdb = match (
        args.get("mdb"),
        args.get_parsed("registry", "an integer scale")?,
    ) {
        (Some(path), None) => read_mdb(path)?,
        (None, Some(scale)) => {
            let mut builder = MdbBuilder::new();
            for spec in standard_registry(scale) {
                builder.add_dataset(&spec.generate(seed)).map_err(runtime)?;
            }
            builder.build()
        }
        _ => {
            return Err(CliError::Usage(
                "serve takes exactly one of --mdb FILE and --registry SCALE".into(),
            ))
        }
    };

    let total = mdb.len();
    let gate = args.get_or("gate", false, "true or false")?;
    let capacity = args.get_parsed::<usize>("capacity", "an integer set count")?;
    let policy = IngestPolicy {
        gate: gate.then(emap_quality::QualityGate::default),
        capacity,
    };
    let service = CloudService::new(EmapConfig::default().search(), mdb.into_shared(), workers)
        .with_ingest_policy(policy);
    let server_config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = CloudServer::bind(addr, service, server_config).map_err(runtime)?;
    writeln!(
        out,
        "listening on {} ({total} signal-sets, {workers} workers{}{})",
        server.local_addr(),
        if gate { ", quality gate on" } else { "" },
        match capacity {
            Some(c) => format!(", capacity {c}"),
            None => String::new(),
        },
    )
    .map_err(runtime)?;

    if run_for(seconds) {
        let stats = server.shutdown();
        writeln!(
            out,
            "served {} requests ({} searches, {} ingests, {} busy, {} protocol errors)",
            stats.served,
            stats.searches,
            stats.ingested,
            stats.busy_rejections,
            stats.protocol_errors
        )
        .map_err(runtime)?;
    }
    Ok(())
}

/// Sleeps for `--seconds` (or forever), then returns whether a bounded
/// run should shut the server down.
fn run_for(seconds: Option<u64>) -> bool {
    match seconds {
        Some(s) => {
            std::thread::sleep(std::time::Duration::from_secs(s));
            true
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}

/// Loads a mega-database snapshot.
fn read_mdb(path: &str) -> Result<Mdb, CliError> {
    Mdb::read_snapshot(BufReader::new(File::open(path).map_err(runtime)?)).map_err(runtime)
}

fn ping<W: Write>(args: Args, out: &mut W) -> Result<(), CliError> {
    let addr = args.require("addr")?;
    let client = RemoteCloud::new(addr, RemoteCloudConfig::default());
    let total = client.ping().map_err(runtime)?;
    writeln!(out, "pong: {total} signal-sets @ {addr}").map_err(runtime)?;
    Ok(())
}

fn stats<W: Write>(args: Args, out: &mut W) -> Result<(), CliError> {
    let addr = args.require("addr")?;
    let client = RemoteCloud::new(addr, RemoteCloudConfig::default());
    let health = client.health().map_err(runtime)?;
    let stats = client.stats().map_err(runtime)?;
    writeln!(
        out,
        "cloud @ {addr}: up {}s, {} in flight, {} sets hosted, {} ingested over the wire",
        health.uptime_seconds, health.in_flight, health.store_sets, health.ingested
    )
    .map_err(runtime)?;
    for m in &stats.metrics {
        match m.value {
            StatsValue::Counter(v) => writeln!(out, "{} {v}", m.name),
            StatsValue::Gauge(v) => writeln!(out, "{} {v}", m.name),
            StatsValue::Summary {
                count,
                sum_nanos,
                p50_nanos,
                p90_nanos,
                p99_nanos,
            } => {
                let mean = if count == 0 {
                    0.0
                } else {
                    sum_nanos as f64 / count as f64
                };
                writeln!(
                    out,
                    "{} count={count} mean={mean:.0}ns p50={p50_nanos}ns \
                     p90={p90_nanos}ns p99={p99_nanos}ns",
                    m.name
                )
            }
        }
        .map_err(runtime)?;
    }

    // Wire-diet summary: derive the live compression ratio from the
    // delta-refresh counters. The f32 baseline is what every refreshed
    // hit would have cost shipped in full on the v3 wire; the actual
    // figure is the sample bytes that really left the server.
    let counter = |name: &str| {
        stats.metrics.iter().find_map(|m| match m.value {
            StatsValue::Counter(v) if m.name == name => Some(v),
            _ => None,
        })
    };
    let shipped = counter("wire_delta_shipped_total").unwrap_or(0);
    let retained = counter("wire_delta_retained_total").unwrap_or(0);
    let evicted = counter("wire_delta_evicted_total").unwrap_or(0);
    let slice_bytes = counter("cloud_bytes_out_slice").unwrap_or(0);
    if shipped + retained > 0 {
        let f32_equiv = (shipped + retained) * (emap_mdb::SIGNAL_SET_LEN as u64) * 4;
        let ratio = f32_equiv as f64 / slice_bytes.max(1) as f64;
        writeln!(
            out,
            "wire diet: {} hits refreshed ({} shipped, {} retained, {} evicted); \
             {} slice bytes sent vs {} f32-equivalent — {:.1}x compression",
            shipped + retained,
            shipped,
            retained,
            evicted,
            slice_bytes,
            f32_equiv,
            ratio
        )
        .map_err(runtime)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(line: &str) -> Result<String, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        dispatch(argv, &mut out)?;
        Ok(String::from_utf8(out).expect("cli output is utf-8"))
    }

    /// Pings `addr` until a server answers (up to ~6 s); the pong line.
    fn ping_until_up(addr: &str) -> String {
        for _ in 0..60 {
            if let Ok(pong) = run(&format!("ping --addr {addr}")) {
                return pong;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        run(&format!("ping --addr {addr}")).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("emap-cli-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_prints_usage() {
        let out = run("help").unwrap();
        assert!(out.contains("build-mdb"));
        assert!(out.contains("monitor"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert!(matches!(run("frobnicate"), Err(CliError::Usage(_))));
        assert!(matches!(run(""), Err(CliError::Usage(_))));
        for removed in ["shard serve --partition 0/2", "cluster serve --shards a:1"] {
            let err = run(removed).unwrap_err();
            assert!(
                err.to_string().starts_with("unknown command"),
                "{removed}: {err}"
            );
        }
    }

    #[test]
    fn full_workflow_generate_build_inspect_monitor() {
        let dir = tmp("workflow");
        let data = dir.join("data");
        let mdb = dir.join("mdb.bin");

        // generate
        let out = run(&format!(
            "generate --out {} --scale 1 --seed 9",
            data.display()
        ))
        .unwrap();
        assert!(out.contains("physionet-mirror"));
        assert!(out.contains("wrote"));

        // inspect one file
        let some_file = std::fs::read_dir(data.join("physionet-mirror"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let out = run(&format!("inspect {}", some_file.display())).unwrap();
        assert!(out.contains("channel"));

        // build-mdb from the generated directories
        let dirs: Vec<String> = std::fs::read_dir(&data)
            .unwrap()
            .map(|e| e.unwrap().path().display().to_string())
            .collect();
        let out = run(&format!(
            "build-mdb --out {} {}",
            mdb.display(),
            dirs.join(" ")
        ))
        .unwrap();
        assert!(out.contains("mega-database"));

        // mdb-info
        let out = run(&format!("mdb-info {}", mdb.display())).unwrap();
        assert!(out.contains("anomalous"));
        assert!(out.contains("class"));
        assert!(out.contains("KiB per set"));

        // monitor one of the generated recordings against the snapshot
        let out = run(&format!(
            "monitor --mdb {} --input {}",
            mdb.display(),
            some_file.display()
        ))
        .unwrap();
        assert!(out.contains("verdict:"));

        // and the JSON form parses
        let out = run(&format!(
            "monitor --mdb {} --input {} --json true",
            mdb.display(),
            some_file.display()
        ))
        .unwrap();
        let parsed = emap_datasets::json::parse(&out).unwrap();
        for key in ["input", "channel", "pa", "final_pa", "verdict", "report"] {
            assert!(parsed.get(key).is_some(), "record lacks `{key}`");
        }
        assert!(parsed.get("final_pa").and_then(Value::as_f64).is_some());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_accepts_custom_specs() {
        let dir = tmp("specs");
        let specs_path = dir.join("specs.json");
        let specs =
            vec![emap_datasets::DatasetSpec::new("custom-ds", 256.0, 8.0).normal_recordings(2)];
        emap_datasets::registry::save_specs(&specs, &specs_path).unwrap();
        let out = run(&format!(
            "generate --out {} --specs {}",
            dir.join("data").display(),
            specs_path.display()
        ))
        .unwrap();
        assert!(out.contains("custom-ds"));
        assert!(out.contains("wrote 2 recordings"));

        // A spec the constructor would panic on is a runtime error instead.
        let saved = std::fs::read_to_string(&specs_path).unwrap();
        std::fs::write(&specs_path, saved.replace("256.0", "-256.0")).unwrap();
        let err = run(&format!(
            "generate --out {} --specs {}",
            dir.join("data").display(),
            specs_path.display()
        ))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Runtime(msg) if msg.contains("native_rate_hz")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_mdb_requires_a_source() {
        let dir = tmp("nosource");
        let err = run(&format!("build-mdb --out {}/m.bin", dir.display())).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_reports_missing_channel() {
        let dir = tmp("badchan");
        let data = dir.join("data");
        let mdb = dir.join("mdb.bin");
        run(&format!("generate --out {} --scale 1", data.display())).unwrap();
        run(&format!("build-mdb --out {} --registry 1", mdb.display())).unwrap();
        let some_file = std::fs::read_dir(data.join("bnci-mirror"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let err = run(&format!(
            "monitor --mdb {} --input {} --channel NOPE",
            mdb.display(),
            some_file.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("NOPE"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_requires_files() {
        assert!(matches!(run("inspect"), Err(CliError::Usage(_))));
    }

    #[test]
    fn monitor_requires_exactly_one_backend() {
        assert!(matches!(
            run("monitor --input x.emapedf"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run("monitor --input x.emapedf --mdb m.bin --cloud 127.0.0.1:1"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_requires_exactly_one_source() {
        assert!(matches!(
            run("serve --addr 127.0.0.1:0"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run("serve --addr 127.0.0.1:0 --mdb m.bin --registry 1"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn ping_unreachable_is_runtime_error() {
        // TEST-NET-1: no server will ever answer here.
        let err = run("ping --addr 192.0.2.1:9").unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));
        assert!(err.to_string().contains("unreachable"));
    }

    /// The keys of a JSON object, in order.
    fn keys(value: &Value) -> Vec<&str> {
        match value {
            Value::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other}"),
        }
    }

    /// The two-process deployment, end to end: `serve --mdb F` answers
    /// `ping` and `stats`, and `monitor --cloud` against it decides exactly
    /// as `monitor --mdb F` — one loop, the same P_A series, refreshes and
    /// verdict, line for line and key for key.
    #[test]
    fn monitor_backends_decide_identically() {
        let dir = tmp("backends");
        let data = dir.join("data");
        let mdb = dir.join("mdb.bin");
        run(&format!(
            "generate --out {} --scale 1 --seed 7",
            data.display()
        ))
        .unwrap();
        let dirs: Vec<String> = std::fs::read_dir(&data)
            .unwrap()
            .map(|e| e.unwrap().path().display().to_string())
            .collect();
        run(&format!(
            "build-mdb --out {} {}",
            mdb.display(),
            dirs.join(" ")
        ))
        .unwrap();
        let input = data.join("physionet-mirror").join("0007-seizure.emapedf");

        // A per-process port keeps parallel test binaries from colliding.
        let port = 20000 + (std::process::id() % 20000) as u16;
        let addr = format!("127.0.0.1:{port}");
        let server = {
            let (addr, mdb) = (addr.clone(), mdb.display().to_string());
            std::thread::spawn(move || {
                run(&format!(
                    "serve --addr {addr} --mdb {mdb} --workers 2 --seconds 10"
                ))
            })
        };
        // Wait for the server to load its store and bind.
        let out = ping_until_up(&addr);
        assert!(out.contains("pong:"), "{out}");

        // Live telemetry over the wire: health header plus the registry
        // snapshot, including the ping just served and the latency
        // summaries the registry keeps for every request kind.
        let out = run(&format!("stats --addr {addr}")).unwrap();
        assert!(out.contains("sets hosted"), "{out}");
        assert!(out.contains("cloud_request_ping_total 1"), "{out}");
        assert!(out.contains("cloud_request_ping_nanos count=1"), "{out}");
        assert!(out.contains("cloud_connections_total"), "{out}");

        let monitor = |backend: String, json: bool| {
            run(&format!(
                "monitor {backend} --input {} --json {json}",
                input.display()
            ))
            .unwrap()
        };
        let local_flag = format!("--mdb {}", mdb.display());
        let remote_flag = format!("--cloud {addr}");

        // Text: everything below the header line (which names the backend).
        let local = monitor(local_flag.clone(), false);
        let remote = monitor(remote_flag.clone(), false);
        assert_eq!(
            local.lines().skip(1).collect::<Vec<_>>(),
            remote.lines().skip(1).collect::<Vec<_>>(),
            "--mdb:\n{local}\n--cloud:\n{remote}"
        );
        assert!(local.contains("degraded seconds: 0"), "{local}");

        // JSON: the same keys, the same P_A, refreshes and verdict.
        let local = emap_datasets::json::parse(&monitor(local_flag, true)).unwrap();
        let remote = emap_datasets::json::parse(&monitor(remote_flag, true)).unwrap();
        assert_eq!(keys(&local), keys(&remote));
        assert_eq!(
            local.get("report").map(keys),
            remote.get("report").map(keys)
        );
        for key in ["pa", "final_pa", "verdict", "report"] {
            assert_eq!(local.get(key), remote.get(key), "`{key}` differs");
        }
        let refreshes = local
            .get("report")
            .and_then(|r| r.get("refreshes"))
            .and_then(Value::as_u64)
            .expect("the report counts refreshes");
        assert!(refreshes >= 2, "{refreshes} refreshes");

        // The remote monitor refreshed over the delta path, so the second
        // stats snapshot derives a live wire-diet compression line from
        // the shipped/retained counters.
        let out = run(&format!("stats --addr {addr}")).unwrap();
        assert!(out.contains("wire_delta_shipped_total"), "{out}");
        assert!(out.contains("wire diet:"), "{out}");
        assert!(out.contains("x compression"), "{out}");

        let served = server.join().unwrap().unwrap();
        assert!(served.contains("listening on"), "{served}");
        assert!(served.contains("served"), "{served}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gated_bounded_serve_rejects_artifacts_and_exposes_lifecycle_counters() {
        // A per-process port away from the other serve tests' ranges.
        let port = 15000 + (std::process::id() % 5000) as u16;
        let addr = format!("127.0.0.1:{port}");
        let server_addr = addr.clone();
        let server = std::thread::spawn(move || {
            run(&format!(
                "serve --addr {server_addr} --registry 1 --seed 7 --workers 2 \
                 --seconds 6 --gate true --capacity 40"
            ))
        });
        let pong = ping_until_up(&addr);
        let hosted: u64 = pong
            .strip_prefix("pong: ")
            .and_then(|l| l.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .expect("ping reports the store size");

        let client = RemoteCloud::new(&addr, RemoteCloudConfig::default());
        let provenance = |offset| emap_mdb::Provenance {
            dataset_id: "cli-live".into(),
            recording_id: "r".into(),
            channel: "c0".into(),
            offset,
        };
        // A flatline slice bounces off the gate with the typed code…
        let err = client
            .ingest(
                emap_datasets::SignalClass::Normal,
                provenance(0),
                vec![0.0; emap_mdb::SIGNAL_SET_LEN],
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                emap_cloud::ClientError::Remote {
                    code: emap_wire::error_code::REJECTED_ARTIFACT,
                    ..
                }
            ),
            "{err}"
        );
        // …while a clean slice lands, and the capacity bound (under the
        // registry store's size) means it lands by replacement: the
        // store does not grow.
        let clean: Vec<f32> = (0..emap_mdb::SIGNAL_SET_LEN)
            .map(|i| {
                let t = i as f32 / 256.0;
                30.0 * (2.0 * std::f32::consts::PI * 13.0 * t).sin()
                    + 20.0 * (2.0 * std::f32::consts::PI * 29.0 * t).sin()
            })
            .collect();
        let total = client
            .ingest(emap_datasets::SignalClass::Normal, provenance(1), clean)
            .unwrap();
        assert_eq!(total, hosted, "bounded ingest must replace, not grow");

        let out = run(&format!("stats --addr {addr}")).unwrap();
        assert!(out.contains("ingest_rejected_total 1"), "{out}");
        assert!(out.contains("quality_artifact_total 1"), "{out}");
        assert!(out.contains("ingest_accepted_total 1"), "{out}");
        assert!(out.contains("quality_clean_total 1"), "{out}");
        assert!(out.contains("ingest_evicted_total 1"), "{out}");

        let served = server.join().unwrap().unwrap();
        assert!(served.contains("quality gate on"), "{served}");
        assert!(served.contains("capacity 40"), "{served}");
    }
}
