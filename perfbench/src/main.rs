//! `madmax-perfbench`: the repository's benchmark.
//!
//! One run drives one workload (see [`workloads`]) as a closed loop from
//! one client: one search at a time on `Explorer::threads(1)`, in one
//! process. Each search is paired with a reference-kernel sample
//! ([`calib`]) and its host time is reported calibrated. From the
//! repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_search --seed 1 --seconds 20 --trace 0
//! ```
//!
//! After the timed loop, the first searches of the run are searched
//! again (they must reproduce their winners) and their outputs checked.
//! `--trace 0` prints the end-to-end metrics. `--trace 1` also replays
//! every search as its public calls with spans ([`replay`]) and prints the
//! per-layer metrics. `--workload all` runs every workload in its own
//! process and prints all their metrics. The last line of stdout is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; a
//! readable table goes to stderr.

mod calib;
mod replay;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use madmax_model::ModelId;

use calib::{Kernel, NOMINAL_MS};
use replay::{Recorder, Replayed};
use workloads::Kind;

const USAGE: &str =
    "usage: madmax-perfbench --workload <train_search|serve_search|slo_fault_search|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Searches a `--trace 0` run times at least, so that ten lie beyond p90.
const MIN_SEARCHES: usize = 100;
/// Searches a `--trace 1` run replays at least: the digest prefix.
const MIN_TRACED: usize = DIGEST_SEARCHES as usize;
/// A run stops here even short of its minimum search count.
const HARD_CAP: Duration = Duration::from_secs(150);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Searches whose winners feed the digest and the speedup geomean, and
/// which are searched again and checked after the timed loop: a fixed
/// prefix, so all of it is exact for a seed.
const DIGEST_SEARCHES: u64 = 16;
/// Searches whose spans a traced run writes out.
const SPAN_DUMP_SEARCHES: u32 = 2;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(kind) = Kind::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    run(kind, &args, started).print(kind.name());
    ExitCode::SUCCESS
}

/// One named metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_owned(),
        value: if value.is_finite() { value } else { 0.0 },
        unit: unit.to_owned(),
    }
}

/// A run's result line plus what the stderr table adds.
#[derive(Debug, Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self, title: &str) {
        let mut table = format!("== {title}\n");
        for m in &self.metrics {
            let _ = writeln!(table, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            table,
            "  {:<34} {:>16.6} ratio ({} of {} searches)",
            "failed_frac", frac, self.failed, self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(table, "  {note}");
        }
        eprint!("{table}");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Linearly interpolated quantile, `q` in `[0, 1]`; 0 when empty.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`, turning an error or a panic into a failure message.
fn attempt<T, E: std::fmt::Display>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("panicked".to_owned()),
    }
}

/// The process's peak resident set (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The reference kernel and its samples. Host time is calibrated by the
/// mean of the samples taken right before and right after it: pairing
/// per search tracks the host's speed far more closely than a run-wide
/// median does.
#[derive(Debug)]
struct Calibration {
    kernel: Kernel,
    samples: Vec<f64>,
}

impl Calibration {
    /// Takes one kernel sample, ms.
    fn sample(&mut self) -> f64 {
        let ms = self.kernel.measure();
        self.samples.push(ms);
        ms
    }

    /// The factor calibrating host time spent between two samples.
    fn factor(before: f64, after: f64) -> f64 {
        2.0 * NOMINAL_MS / (before + after)
    }
}

/// Per-search records of a traced run.
#[derive(Debug)]
struct Traced {
    search: u32,
    factor: f64,
    untraced_ms: f64,
    traced_ms: f64,
    replayed: Replayed,
}

/// Per-search values read off the explorer's own answer.
#[derive(Debug, Default)]
struct Observed {
    outside_pool_ms: Vec<f64>,
    counters: Vec<[u64; 8]>,
}

fn run(kind: Kind, args: &Args, started: Instant) -> Report {
    let mut calib = Calibration {
        kernel: Kernel::new(),
        samples: Vec::new(),
    };
    let mut report = Report::default();
    let mut failures: Vec<String> = Vec::new();
    let mut fail = |report: &mut Report, why: String| {
        report.failed += 1;
        if failures.len() < 5 {
            failures.push(why);
        }
    };

    // Set-up, repeated: the model, op 0's inputs and one untimed warm-up
    // search. The first repetition counts from the start of `main`.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let (mut model, mut before) = (None, None);
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { started } else { Instant::now() };
        let m = ModelId::Llama2.build();
        let inp = workloads::inputs(kind, args.seed, 0);
        let warm = attempt(|| workloads::search(&m, &inp));
        let raw_s = t0.elapsed().as_secs_f64();
        let after = calib.sample();
        setup_s.push(raw_s * Calibration::factor(before.unwrap_or(after), after));
        before = Some(after);
        if let Err(e) = warm {
            report.attempted += 1;
            fail(&mut report, format!("warm-up search: {e}"));
        }
        model = Some(m);
    }
    let model = model.expect("SETUP_REPS is at least 1");
    let mut before = before.expect("SETUP_REPS is at least 1");

    let mut rec = args.trace.then(Recorder::new);
    let min = if args.trace { MIN_TRACED } else { MIN_SEARCHES };
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut raw_ms, mut cal_ms, mut prefix) = (Vec::new(), Vec::new(), Vec::new());
    let (mut candidates, mut digest, mut log_speedup) = (0u64, 0u64, 0.0f64);
    let mut shapes = Vec::new();
    let mut observed = Observed::default();
    let mut traced: Vec<Traced> = Vec::new();
    let loop_start = Instant::now();
    let mut index = 1u64;
    while (loop_start.elapsed() < budget || raw_ms.len() < min) && loop_start.elapsed() < HARD_CAP {
        let inp = workloads::inputs(kind, args.seed, index);
        let t = Instant::now();
        let result = attempt(|| workloads::search(&model, &inp));
        let raw = elapsed_ms(t);
        let after = calib.sample();
        let factor = Calibration::factor(before, after);
        before = after;
        raw_ms.push(raw);
        cal_ms.push(raw * factor);
        report.attempted += 1;

        let outcome = result.and_then(|answer| {
            let shape = answer.shape();
            shapes.push(shape);
            if shape != kind.shape() {
                return Err(format!(
                    "shape {shape:?} is not the workload's {:?}",
                    kind.shape()
                ));
            }
            Ok(answer)
        });
        let outcome = match (outcome, rec.as_mut()) {
            (Ok(answer), Some(rec)) => {
                let t = Instant::now();
                let replayed = attempt(|| replay::replay(&model, &inp, rec, index as u32));
                let traced_ms = elapsed_ms(t);
                match replayed {
                    Ok(r) if r.digest == answer.digest() => {
                        traced.push(Traced {
                            search: index as u32,
                            factor,
                            untraced_ms: raw,
                            traced_ms,
                            replayed: r,
                        });
                        Ok(answer)
                    }
                    Ok(_) => Err("the replay's winner differs from the explorer's".to_owned()),
                    Err(e) => Err(format!("replay: {e}")),
                }
            }
            (outcome, _) => outcome,
        };
        match outcome {
            Ok(answer) => {
                candidates += answer.shape().candidates;
                if index <= DIGEST_SEARCHES {
                    digest = digest.rotate_left(5) ^ answer.digest();
                    log_speedup += answer.speedup().ln();
                    prefix.push(Some(answer.digest()));
                }
                let t = answer.telemetry();
                let busy: f64 = t.workers.iter().map(|w| w.busy_ms).sum();
                observed.outside_pool_ms.push((raw - busy) * factor);
                observed.counters.push([
                    t.flat_cache.hits,
                    t.flat_cache.misses,
                    t.steady_analytic.hits,
                    t.steady_analytic.misses,
                    t.pipeline_cache.hits,
                    t.pipeline_cache.misses,
                    t.report_memo.hits,
                    t.report_memo.misses,
                ]);
            }
            Err(why) => {
                fail(&mut report, format!("search {index}: {why}"));
                if index <= DIGEST_SEARCHES {
                    prefix.push(None);
                }
            }
        }
        index += 1;
    }

    // The output checks, off the timed path and after the peak RSS is
    // read: the prefix ops are searched again, must reproduce their
    // winners, and are checked.
    let peak_rss = peak_rss_mib();
    let mut check_ms = Vec::new();
    for (i, expected) in (1..).zip(prefix) {
        let Some(expected) = expected else { continue };
        let inp = workloads::inputs(kind, args.seed, i);
        let checked = attempt(|| {
            let answer = workloads::search(&model, &inp).map_err(|e| e.to_string())?;
            if answer.digest() != expected {
                return Err("searching again changed the winner".to_owned());
            }
            before = calib.sample();
            let t = Instant::now();
            let checked = workloads::check(&model, &inp, &answer);
            let ms = elapsed_ms(t);
            check_ms.push(ms * Calibration::factor(before, calib.sample()));
            checked
        });
        if let Err(why) = checked {
            fail(&mut report, format!("check of search {i}: {why}"));
        }
    }

    report.correct = report.failed == 0 && index > DIGEST_SEARCHES;
    let p50 = median(&cal_ms);
    report.metrics = if let Some(rec) = &rec {
        let per_search = |f: fn(&Replayed) -> u64| {
            median(
                &traced
                    .iter()
                    .map(|t| f(&t.replayed) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let mut m = layer_metrics(rec, &traced);
        let counter = |i: usize| {
            median(
                &observed
                    .counters
                    .iter()
                    .map(|c| c[i] as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let shape_of = |f: fn(&workloads::Shape) -> u64| {
            median(&shapes.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        let flat_total = counter(0) + counter(1);
        m.extend([
            metric(
                "dse.outside_pool_ms",
                median(&observed.outside_pool_ms),
                "ms",
            ),
            metric("dse.candidates", shape_of(|s| s.candidates), "count"),
            metric("dse.ok", shape_of(|s| s.ok), "count"),
            metric("dse.oom", shape_of(|s| s.oom), "count"),
            metric("dse.unmappable", shape_of(|s| s.unmappable), "count"),
            metric("dse.invalid", shape_of(|s| s.invalid), "count"),
            metric("core.trace_ops", per_search(|r| r.trace_ops), "count"),
            metric("core.flat_cache_hits", counter(0), "count"),
            metric("core.flat_cache_misses", counter(1), "count"),
            metric(
                "core.flat_cache_hit_rate",
                if flat_total > 0.0 {
                    counter(0) / flat_total
                } else {
                    0.0
                },
                "ratio",
            ),
            metric("core.steady_hits", counter(2), "count"),
            metric("core.steady_misses", counter(3), "count"),
            metric("pipeline.cache_hits", counter(4), "count"),
            metric("pipeline.cache_misses", counter(5), "count"),
            metric("pipeline.memo_hits", counter(6), "count"),
            metric("pipeline.memo_misses", counter(7), "count"),
            metric("serve.decode_runs", per_search(|r| r.decode_runs), "count"),
            metric(
                "serve.decode_steps",
                per_search(|r| r.decode_steps),
                "count",
            ),
            metric("serve.evictions", per_search(|r| r.evictions), "count"),
            metric("verify.check_ms", median(&check_ms), "ms"),
            metric("host.calib_ms", median(&calib.samples), "ms"),
            metric("host.raw_search_p50_ms", median(&raw_ms), "ms"),
            metric("search.p90_over_p50", quantile(&cal_ms, 0.9) / p50, "ratio"),
            metric(
                "sim.winner_speedup_geomean",
                (log_speedup / DIGEST_SEARCHES as f64).exp(),
                "ratio",
            ),
            metric(
                "sim.winner_digest32",
                ((digest >> 32) ^ digest) as u32 as f64,
                "hash",
            ),
            metric(
                "failed_frac",
                report.failed as f64 / report.attempted.max(1) as f64,
                "ratio",
            ),
        ]);
        m.sort_by(|a, b| a.name.cmp(&b.name));
        let zero: Vec<&str> = m
            .iter()
            .filter(|x| x.value == 0.0)
            .map(|x| x.name.as_str())
            .collect();
        report.notes.push(format!(
            "reading 0 (a layer this workload's public calls do not reach, or a count that is zero): {}",
            zero.join(", ")
        ));
        match dump_spans(kind, args.seed, rec) {
            Ok(path) => report
                .notes
                .push(format!("spans of the first searches: {}", path.display())),
            Err(e) => report.notes.push(format!("could not write spans: {e}")),
        }
        m
    } else {
        vec![
            metric("search_p50_ms", p50, "ms"),
            metric("search_p90_ms", quantile(&cal_ms, 0.9), "ms"),
            metric(
                "candidates_per_s",
                candidates as f64 / (cal_ms.iter().sum::<f64>() / 1e3),
                "1/s",
            ),
            metric("peak_rss_mb", peak_rss, "MiB"),
            metric("setup_s", median(&setup_s), "s"),
        ]
    };
    report.notes.push(format!(
        "{} searches; shape {:?}; p90/p50 {:.3}; raw p50 {:.3} ms; kernel p50 {:.4} ms; winner digest {digest:016x} over searches 1..={DIGEST_SEARCHES}",
        raw_ms.len(),
        kind.shape(),
        quantile(&cal_ms, 0.9) / p50,
        median(&raw_ms),
        median(&calib.samples),
    ));
    report.notes.extend(failures);
    report
}

/// The span-derived per-layer metrics of a traced run.
fn layer_metrics(rec: &Recorder, traced: &[Traced]) -> Vec<Metric> {
    let factor: std::collections::HashMap<u32, f64> =
        traced.iter().map(|t| (t.search, t.factor)).collect();
    let calibrated = |s: &replay::Span| factor.get(&s.search).map(|f| s.ms() * f);
    // Calibrated duration of every call with one of `names`, ms.
    let calls = |names: &[&str]| -> Vec<f64> {
        rec.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .filter_map(calibrated)
            .collect()
    };
    // Calibrated time per search spent in calls with one of `names`, ms.
    let per_search = |names: &[&str]| -> f64 {
        let mut sums: std::collections::HashMap<u32, f64> =
            traced.iter().map(|t| (t.search, 0.0)).collect();
        for s in rec.spans.iter().filter(|s| names.contains(&s.name)) {
            if let (Some(sum), Some(ms)) = (sums.get_mut(&s.search), calibrated(s)) {
                *sum += ms;
            }
        }
        median(&sums.into_values().collect::<Vec<_>>())
    };
    let us_p50 = |names: &[&str]| median(&calls(names)) * 1e3;
    let mut top_level: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for s in rec.spans.iter().filter(|s| s.parent == replay::ROOT) {
        *top_level.entry(s.search).or_default() += s.ms();
    }
    let coverage: Vec<f64> = traced
        .iter()
        .map(|t| top_level.get(&t.search).copied().unwrap_or(0.0) / t.traced_ms)
        .collect();
    let overhead = median(
        &traced
            .iter()
            .map(|t| t.traced_ms * t.factor)
            .collect::<Vec<_>>(),
    ) / median(
        &traced
            .iter()
            .map(|t| t.untraced_ms * t.factor)
            .collect::<Vec<_>>(),
    );
    use replay::{
        ASSEMBLE, BASELINE, CANDIDATES, CLOSED_FORM, FAULTY, GOODPUT, LOAD_SIM, PRICE_FLAT,
        PRICE_LOAD, PRICE_PIPELINE, REPORT, RUN_IN, RUN_IN_PIPELINE, SCHEDULE,
    };
    vec![
        metric("dse.enumerate_ms", per_search(&[CANDIDATES]), "ms"),
        metric("engine.baseline_ms", per_search(&[BASELINE]), "ms"),
        metric(
            "engine.run_in_us_p50",
            us_p50(&[RUN_IN, RUN_IN_PIPELINE]),
            "us",
        ),
        metric("core.price_ms", per_search(&[PRICE_FLAT]), "ms"),
        metric("core.assemble_us_p50", us_p50(&[ASSEMBLE]), "us"),
        metric("core.schedule_us_p50", us_p50(&[SCHEDULE]), "us"),
        metric("core.report_us_p50", us_p50(&[REPORT]), "us"),
        metric("pipeline.price_ms", per_search(&[PRICE_PIPELINE]), "ms"),
        metric("pipeline.eval_us_p50", us_p50(&[RUN_IN_PIPELINE]), "us"),
        metric("serve.price_load_ms", per_search(&[PRICE_LOAD]), "ms"),
        metric("serve.sim_us_p50", us_p50(&[LOAD_SIM]), "us"),
        metric("fault.goodput_ms", per_search(&[GOODPUT]), "ms"),
        metric("fault.closed_form_us", us_p50(&[CLOSED_FORM]), "us"),
        metric("fault.faulty_replay_us", us_p50(&[FAULTY]), "us"),
        metric("trace.coverage", median(&coverage), "ratio"),
        metric("trace.overhead", overhead, "ratio"),
    ]
}

/// Writes the spans of the first traced searches as TSV next to the
/// benchmark's sources.
fn dump_spans(kind: Kind, seed: u64, rec: &Recorder) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.spans.tsv", kind.name()));
    let mut out = String::from("search\tid\tparent\tname\tstart_us\tend_us\n");
    for (id, s) in rec.spans.iter().enumerate() {
        if s.search > SPAN_DUMP_SEARCHES {
            break;
        }
        let parent = if s.parent == replay::ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{}\t{id}\t{parent}\t{}\t{:.3}\t{:.3}",
            s.search,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        );
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// `--workload all`: every workload in its own process (so each reports
/// its own peak RSS), metrics prefixed with the workload's name.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut total = Report {
        correct: true,
        ..Report::default()
    };
    for kind in Kind::ALL {
        let output = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        match output
            .map_err(|e| e.to_string())
            .and_then(|o| parse_report(&o.stdout))
        {
            Ok(r) => {
                total.correct &= r.correct;
                total.attempted += r.attempted;
                total.failed += r.failed;
                total.metrics.extend(r.metrics.into_iter().map(|m| Metric {
                    name: format!("{}.{}", kind.name(), m.name),
                    ..m
                }));
            }
            Err(e) => {
                eprintln!("perfbench: {} did not report: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        }
    }
    total.print("all workloads");
    ExitCode::SUCCESS
}

/// Reads a run's result line back.
fn parse_report(stdout: &[u8]) -> Result<Report, String> {
    use serde::Value;
    let text = String::from_utf8_lossy(stdout);
    let line = text.lines().last().ok_or("no output")?;
    let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let top = value.as_map().ok_or("the result is not an object")?;
    fn field<'a>(m: &'a [(String, Value)], k: &str) -> Result<&'a Value, String> {
        serde::field(m, k).map_err(|e| e.to_string())
    }
    let count = |k: &str| -> Result<u64, String> {
        field(top, k)?
            .as_u64()
            .ok_or_else(|| format!("{k} is not a count"))
    };
    let mut metrics = Vec::new();
    for (name, m) in field(top, "metrics")?
        .as_map()
        .ok_or("metrics is not an object")?
    {
        let m = m.as_map().ok_or("a metric is not an object")?;
        let value = field(m, "value")?
            .as_f64()
            .ok_or("a value is not a number")?;
        let Value::Str(unit) = field(m, "unit")? else {
            return Err("a unit is not a string".to_owned());
        };
        metrics.push(metric(name, value, unit));
    }
    Ok(Report {
        correct: matches!(field(top, "correct")?, Value::Bool(true)),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        notes: Vec::new(),
    })
}
