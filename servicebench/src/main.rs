//! End-to-end benchmark of the ECRPQ query service.
//!
//! ```text
//! ecrpq-servicebench --workload <cold_compile|hot_eval|zipf_churn>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload from the seed, drives it through
//! `QueryService::execute` as a closed loop for `--seconds`, checks every
//! answer, and prints as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! pass (`--trace 1`). See `README.md` beside this crate.

mod grammar;
mod replay;
mod workload;

use replay::traced_pass;
use std::time::{Duration, Instant};
use workload::{verify_records, Record, Setup, Source, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one closed-loop client did.
struct ClientRun {
    latencies: Vec<u64>,
    records: Vec<Record>,
    failed: u64,
    source: Source,
}

/// Runs one closed-loop client until `deadline`. A response that is
/// refused or budget-truncated counts as failed; a wrong answer is an
/// error that ends the run.
fn client(setup: &Setup, mut source: Source, deadline: Instant) -> Result<ClientRun, String> {
    let opts = workload::opts();
    let mut latencies = Vec::new();
    let mut records = Vec::new();
    let mut failed = 0;
    while Instant::now() < deadline {
        let (text, index) = source.next(&setup.pool);
        let start = Instant::now();
        let result = setup.service.execute(&text, &opts);
        latencies.push(start.elapsed().as_nanos() as u64);
        match result {
            Ok(r) if r.termination.is_complete() => {
                setup.check(&text, index, &r.answers, &mut records)?
            }
            _ => failed += 1,
        }
    }
    Ok(ClientRun {
        latencies,
        records,
        failed,
        source,
    })
}

/// The untraced closed loop: every client of the workload on its own
/// thread, all sharing the service, for `seconds`.
fn closed_loop(setup: &mut Setup, seconds: f64) -> Result<(Vec<ClientRun>, f64), String> {
    let sources = std::mem::take(&mut setup.sources);
    let setup = &*setup;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|src| s.spawn(move || client(setup, src, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((runs, start.elapsed().as_secs_f64()))
}

fn quantile_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64 / 1e6
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Output of a command, trimmed, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the checkout was made from, read from `.git` (loose or
/// packed refs) without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(format!(".git/{path}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let threads = workload::opts().effective_threads();
    let nproc: usize = command_output("nproc", &[])
        .parse()
        .unwrap_or_else(|_| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    if w.clients() * threads > nproc {
        return Err(format!(
            "{}: {} clients x {threads} threads exceeds nproc = {nproc}",
            w.name(),
            w.clients()
        ));
    }

    // set-up, repeated to report its median; the last one is kept
    let mut setup_times = Vec::new();
    let mut setup = None;
    let mut checked_warmup = Vec::new();
    for _ in 0..if args.trace { 1 } else { w.setup_reps() } {
        drop(setup.take());
        let start = Instant::now();
        let mut s = Setup::build(w, args.seed)?;
        setup_times.push(start.elapsed().as_secs_f64());
        checked_warmup.append(&mut s.warmup);
        setup = Some(s);
    }
    let mut setup = setup.expect("at least one set-up");

    let untraced_seconds = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let (runs, wall) = closed_loop(&mut setup, untraced_seconds)?;
    let rss = peak_rss_mb()?;
    let mut latencies: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    latencies.sort_unstable();
    let mut attempted = latencies.len() as u64;
    let mut failed: u64 = runs.iter().map(|r| r.failed).sum();
    let p50 = quantile_ms(&latencies, 0.50);
    let mut records: Vec<Record> = checked_warmup;
    let mut sources = Vec::new();
    for r in runs {
        records.extend(r.records);
        sources.push(r.source);
    }

    let metrics = if args.trace {
        let mut source = sources.swap_remove(0);
        let (totals, traced_records) =
            traced_pass(&setup, &mut source, args.seconds - untraced_seconds, None)?;
        records.extend(traced_records);
        attempted += totals.requests;
        failed += totals.failed;
        let mut traced = totals.latencies.clone();
        traced.sort_unstable();
        let traced_p50 = quantile_ms(&traced, 0.5);
        let mut m = totals.metrics();
        m.extend([
            ("trace.requests".into(), totals.requests as f64, "count"),
            (
                "trace.latency_ns_per_req".into(),
                totals.latency_ns_per_req(),
                "ns",
            ),
            ("trace.p50_ms".into(), traced_p50, "ms"),
            ("trace.untraced_p50_ms".into(), p50, "ms"),
            (
                "trace.overhead_ratio".into(),
                if p50 > 0.0 {
                    traced_p50 / p50 - 1.0
                } else {
                    0.0
                },
                "ratio",
            ),
        ]);
        m
    } else {
        let completed = attempted - failed;
        vec![
            ("setup_s".to_string(), median(setup_times.clone()), "s"),
            ("qps".into(), completed as f64 / wall, "1/s"),
            ("p50_ms".into(), p50, "ms"),
            ("p99_ms".into(), quantile_ms(&latencies, 0.99), "ms"),
            (
                "completed_frac".into(),
                completed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            ("peak_rss_mb".into(), rss, "MiB"),
        ]
    };
    let distinct = verify_records(setup.service.db(), &records)?;

    let provenance = format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"requests\": {attempted}, \"clients\": {}, \"threads_per_request\": {threads}, \
         \"available_parallelism\": {available}, \"nproc\": {nproc}, \"rustc\": {}, \
         \"git_revision\": {}, \"graph_nodes\": {}, \"graph_edges\": {}, \
         \"oracle_texts\": {distinct}, \"setup_s_samples\": {:?}}}}}",
        json_str(w.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        w.clients(),
        json_str(&command_output("rustc", &["--version"])),
        json_str(&git_revision()),
        setup.service.db().num_nodes(),
        setup.service.db().num_edges(),
        setup_times,
    );
    Ok(format!(
        "{provenance}\n{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_json(&metrics)
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servicebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("servicebench: {e}");
            std::process::exit(1);
        }
    }
}
