//! Nano-Sim benchmark: four paper workloads driven through the public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dc_mesh30 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing and the
//! counting allocator off; `--trace 1` is a separate run that records
//! spans around the benchmark's calls into each layer, counts allocations
//! per op, calibrates each layer, and reports the per-layer metrics. The
//! last line of standard output is one JSON object; everything else goes
//! to standard error. See `README.md` beside this package.

mod alloc;
mod layers;
mod stats;
mod trace;
mod workloads;

use stats::{median, quantile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Counts, DcMesh30, EmSpreadMesh8, ServeParamStudy, TranFig8Fig9, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Cold starts per untraced run, spread over the run; `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// The run's result line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> Result<String, String> {
        let mut body = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}

/// Checks an op's output and applies the exact-count gate: the first op's
/// counts are the anchor and every later op must match it exactly.
fn verify<W: Workload>(
    w: &W,
    out: Result<W::Out, String>,
    anchor: &mut Option<Counts>,
) -> Result<Counts, String> {
    let counts = w.check(out?)?;
    match anchor {
        None => *anchor = Some(counts),
        Some(a) if *a == counts => {}
        Some(a) => {
            let diff: Vec<String> = a
                .named()
                .iter()
                .zip(counts.named())
                .filter(|(x, y)| x.1 != y.1)
                .map(|(x, y)| format!("{} {} -> {}", x.0, x.1, y.1))
                .collect();
            return Err(format!("EXACT-COUNT GATE FAILED: {}", diff.join(", ")));
        }
    }
    Ok(counts)
}

/// Cold-starts `W` once, recording the warm-up op as the reference.
fn cold_start<W: Workload>(seed: u64, tr: &mut Tracer) -> Result<(W, f64, u64), String> {
    let t = Instant::now();
    let (mut w, warm) = W::setup(seed, tr)?;
    let secs = t.elapsed().as_secs_f64();
    let digest = w.set_reference(warm)?;
    Ok((w, secs, digest))
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn untraced<W: Workload>(args: &Args) -> Result<Report, String> {
    let mut off = Tracer::off();
    let (mut w, secs, digest) = cold_start::<W>(args.seed, &mut off)?;
    let mut setups = vec![secs];

    let (mut lat_ms, mut busy_s, mut work) = (Vec::new(), 0.0, 0u64);
    let (mut attempted, mut failed, mut anchor) = (0u64, 0u64, None);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    while attempted == 0 || Instant::now() < end {
        // The other cold starts are spread evenly over the run, so
        // `setup_s` samples the same host conditions as the ops. Each one
        // replaces the workload state and must reproduce the reference.
        let due = start
            + Duration::from_secs_f64(args.seconds * setups.len() as f64 / SETUP_REPEATS as f64);
        if setups.len() < SETUP_REPEATS && Instant::now() >= due {
            drop(w); // free the previous state before the next cold start
            let (fresh, secs, again) = cold_start::<W>(args.seed, &mut off)?;
            if again != digest {
                return Err("two cold starts of one seed produced different references".into());
            }
            setups.push(secs);
            w = fresh;
        }
        let t = Instant::now();
        let out = w.op(&mut off);
        let dt = t.elapsed().as_secs_f64();
        attempted += 1;
        lat_ms.push(dt * 1e3);
        busy_s += dt;
        match verify(&w, out, &mut anchor) {
            Ok(c) => work += W::work(&c),
            Err(e) => {
                failed += 1;
                eprintln!("op {attempted} failed: {e}");
            }
        }
    }
    eprintln!(
        "{}: {attempted} ops ({failed} failed), {} cold starts, op p50 {:.3} ms",
        args.workload,
        setups.len(),
        quantile(&lat_ms, 0.5)
    );
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            ("setup_s".into(), median(&setups), "s"),
            ("op_ms_p90".into(), quantile(&lat_ms, 0.9), "ms"),
            ("work_per_s".into(), work as f64 / busy_s, "1/s"),
            (
                "ok_ratio".into(),
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
            ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
        ],
    })
}

fn traced<W: Workload>(args: &Args) -> Result<Report, String> {
    let mut tr = Tracer::on();
    let mut off = Tracer::off();
    tr.next_op();
    let setup_op = tr.spans().len();
    let (mut w, warm) = tr.span("setup", |tr| W::setup(args.seed, tr))?;
    w.set_reference(warm)?;

    // Alternate plain and traced ops: the plain ones are the baseline for
    // the tracing overhead; only traced ops count allocations.
    let (mut plain_ms, mut traced_ms, mut allocs, mut alloc_bytes) =
        (vec![], vec![], vec![], vec![]);
    let mut traced_ops = Vec::new();
    let (mut attempted, mut failed, mut anchor) = (0u64, 0u64, None);
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    while attempted < 2 || Instant::now() < end {
        let traced_op = attempted % 2 == 1;
        let t = Instant::now();
        let out = if traced_op {
            traced_ops.push(tr.next_op());
            alloc::arm();
            let out = w.op(&mut tr);
            let (n, bytes) = alloc::disarm();
            allocs.push(n as f64);
            alloc_bytes.push(bytes as f64);
            out
        } else {
            w.op(&mut off)
        };
        let dt = t.elapsed().as_secs_f64() * 1e3;
        if traced_op {
            traced_ms.push(dt)
        } else {
            plain_ms.push(dt)
        }
        attempted += 1;
        if let Err(e) = verify(&w, out, &mut anchor) {
            failed += 1;
            eprintln!("op {attempted} failed: {e}");
        }
    }
    let decks = w.decks();
    drop(w);
    let calibration = layers::calibrate(&mut tr, &decks)?;

    // Per-op self time of every span name recorded inside traced ops.
    let spans = tr.spans();
    let own = tr.self_ns();
    let per_op = |name: &str, self_time: bool| -> Vec<f64> {
        traced_ops
            .iter()
            .map(|&op| {
                spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.op == op && s.name == name)
                    .map(|(s, o)| if self_time { *o } else { s.ns() } as f64 / 1e6)
                    .sum()
            })
            .collect()
    };
    let mut names: Vec<&str> = spans
        .iter()
        .filter(|s| traced_ops.binary_search(&s.op).is_ok())
        .map(|s| s.name)
        .collect();
    names.sort_unstable();
    names.dedup();
    eprintln!(
        "{}: {} traced ops; median self time per op:",
        args.workload,
        traced_ops.len()
    );
    for name in &names {
        eprintln!("  {name:<24} {:>10.4} ms", median(&per_op(name, true)));
    }

    let c = anchor.unwrap_or_default();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut metrics: Vec<(String, f64, &'static str)> = c
        .named()
        .iter()
        .map(|(n, v)| {
            (
                n.to_string(),
                *v as f64,
                if n.ends_with("bytes_per_op") {
                    "bytes"
                } else {
                    "count"
                },
            )
        })
        .collect();
    let runs = c.serve_cold + c.serve_warm + c.serve_hits;
    let session_runs = per_op("core.session.run", false);
    let cal = |name: &str| {
        calibration
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1)
    };
    let run_ms = if names.contains(&"core.session.run") {
        median(&session_runs)
    } else {
        cal("core.session.warm_run_ms")
    };
    metrics.extend([
        ("serve.hit_ratio".into(), ratio(c.serve_hits, runs), "ratio"),
        (
            "core.tran.accept_ratio".into(),
            ratio(c.tran_steps, c.tran_steps + c.tran_rejected),
            "ratio",
        ),
        ("core.session.run_ms".into(), run_ms, "ms"),
        ("alloc.count_per_op".into(), median(&allocs), "count"),
        ("alloc.bytes_per_op".into(), median(&alloc_bytes), "bytes"),
        (
            "trace.overhead_pct".into(),
            (median(&traced_ms) / median(&plain_ms) - 1.0) * 100.0,
            "%",
        ),
        ("plain.op_ms_p50".into(), median(&plain_ms), "ms"),
        ("op.self_ms".into(), median(&per_op("op", true)), "ms"),
        ("setup.self_ms".into(), own[setup_op] as f64 / 1e6, "ms"),
    ]);
    metrics.extend(calibration.iter().map(|(n, v, u)| (n.to_string(), *v, *u)));

    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{}.json",
        args.workload, args.seed
    ));
    tr.write_json(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "dc_mesh30" => run::<DcMesh30>(&args),
        "tran_fig8_fig9" => run::<TranFig8Fig9>(&args),
        "em_spread_mesh8" => run::<EmSpreadMesh8>(&args),
        "serve_param_study" => run::<ServeParamStudy>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match report.and_then(|r| Ok((r.json()?, r.failed))) {
        Ok((line, failed)) => {
            println!("{line}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
