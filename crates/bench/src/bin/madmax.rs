//! `madmax` — command-line driver for the performance model.
//!
//! ```text
//! madmax list                                # models and systems
//! madmax simulate --model dlrm-a --system zionex \
//!        --task pretraining --dense "(TP, DDP)"
//! madmax simulate --model llama2 --system llama \
//!        --task serve --prompt 1024 --decode 128   # TTFT / TPOT
//! madmax search   --model gpt-3 --system llama --task inference --threads 8
//! madmax search   --model llama2 --system llama --task serve \
//!        --prompt 512 --decode 64                  # serve-mode DSE
//! madmax config   --model dlrm-b --out /tmp/cfgs   # emit the 3 JSON files
//! madmax simulate --config-dir /tmp/cfgs           # run from JSON configs
//! madmax verify [--only pipeline]                  # verify corpus schedules
//! madmax simulate --model llama2 --system llama --task serve \
//!        --prompt 256 --decode 64 --decode-batch 8 \
//!        --arrival-rate 0.1 --arrival-count 64     # continuous batching
//! madmax search   --model llama2 --system llama --task serve \
//!        --prompt 256 --decode 64 --decode-batch 8 \
//!        --arrival-rate 0.05,0.2,1 --slo-ttft-p99 30   # SLO goodput search
//! ```
//!
//! Continuous-batching load flags (simulate and search, serve task):
//!
//! - `--arrival-rate R` — seeded Poisson arrivals at `R` requests/second
//!   (`search` accepts a comma-separated rate ladder and sweeps it);
//!   `--arrival-count N` / `--arrival-seed S` shape the stream.
//! - `--arrival-trace PATH` — JSONL request trace instead of Poisson,
//!   one `{"arrival": s, "prompt_len": n, "decode_len": m}` per line.
//! - `--burst-on S` / `--burst-off S` — modulate the Poisson stream
//!   into an on-off bursty process (exponential on/off phases with the
//!   given means; arrivals pause during off phases).
//! - `--kv-blocks B`, `--queue-cap Q`, `--eviction`, `--horizon S` —
//!   paged KV budget, admission-queue bound, eviction+recompute policy,
//!   and run cutoff.
//! - `--slo-ttft-p99 S` — p99 time-to-first-token SLO in seconds:
//!   `simulate` reports goodput under it, `search` ranks candidates by
//!   throughput subject to it.
//! - With `--progress N`, request completions tick on stderr; with
//!   `--verify`, the load trace runs the `request-lifecycle` and
//!   `paged-kv-residency` rules; with `--emit-trace PATH`, per-request
//!   Perfetto tracks (queue wait, KV residency, engine timeline) are
//!   exported.
//!
//! Fault-injection flags (active with `--mtbf`):
//!
//! - `--mtbf S` — fleet mean time between fatal faults, seconds. On a
//!   `simulate` with an arrival process, fatal faults drop in-flight
//!   requests (retried per `--retry`) and degrade capacity for
//!   `--recovery` seconds; on a plain serve/training `simulate`, the
//!   command reports checkpoint/restart *goodput* (closed-form
//!   Young/Daly, cross-checked against a seeded discrete-event replay);
//!   on `search`, candidates are ranked by goodput-optimal effective
//!   throughput instead of iteration latency. The goodput search skips
//!   the simulation of every candidate whose iteration-time lower bound
//!   proves it can beat neither the goodput nor the latency winner: the
//!   `goodput evaluations` it prints count the simulated candidates'
//!   points only, and `--telemetry` reports the skipped ones as `pruned`.
//! - `--checkpoint-interval S` — seconds of useful work between
//!   checkpoint writes (default: the Young/Daly optimum; `search`
//!   accepts a comma ladder and sweeps it per candidate).
//! - `--recovery S` — capacity-recovery time per fatal fault (default
//!   30); `--slots-lost N` — serving slots lost per fault (default 1).
//! - `--retry N` — fault-retry budget per request (default 3), with
//!   `--retry-backoff S` / `--retry-timeout S`.
//! - `--fault-seed S` — fault-stream PRNG seed (default 7);
//!   `--fault-horizon S` — materialization horizon (default: the load
//!   horizon, else 4 MTBFs).
//!
//! Observability flags:
//!
//! - `--emit-trace PATH` (simulate, search): write the simulated schedule
//!   as Chrome trace-event JSON — open it at <https://ui.perfetto.dev>.
//!   `search` exports its winner's schedule, byte for byte the file
//!   `simulate` writes for that plan. The search's own wall time is in
//!   `--telemetry`; perfbench (`perfbench/`) times it layer by layer.
//! - `--telemetry PATH` (search, in plan, goodput and load mode): write
//!   the search's [`madmax_obs::SearchTelemetry`] (outcome counters,
//!   cache hit rates, per-worker throughput, latency histogram) as JSON.
//! - `--progress N` (search): print a progress line every N candidates.
//! - `--verify` (simulate, search): run the full `madmax-verify` rule
//!   set on the produced (simulate) or winning (search) schedule; any
//!   error-severity diagnostic fails the command.
//!
//! The `verify` subcommand sweeps the whole built-in corpus
//! ([`madmax_bench::verify_corpus`]: the model zoo, the pipeline and
//! serve shapes, and the obs golden-trace scenarios) and exits non-zero
//! if any scenario draws an error — this is CI's schedule-integrity
//! gate. `--only SUBSTR` restricts it to matching scenario names.

use std::collections::BTreeMap;
use std::process::ExitCode;

use madmax_core::config::{ExperimentSpec, SimulationConfig};
use madmax_core::steady::grid_units_round;
use madmax_dse::{Explorer, FaultAxes, LoadAxes, SearchSpace};
use madmax_engine::{FaultSpec, RetryPolicy, Scenario, SimMode};
use madmax_fault::{format_secs, materialize_faults, replay_goodput};
use madmax_hw::units::Seconds;
use madmax_hw::{catalog, ClusterSpec};
use madmax_model::{LayerClass, ModelArch, ModelId};
use madmax_obs::{
    forward_to_sink, ChromeTrace, LoadTelemetry, ProgressSink, SearchTelemetry, StderrTicker,
};
use madmax_parallel::{HierStrategy, LoadSpec, Plan, ServeConfig, Workload};
use madmax_serve::parse_request_jsonl;

fn models() -> BTreeMap<&'static str, ModelId> {
    BTreeMap::from([
        ("dlrm-a", ModelId::DlrmA),
        ("dlrm-a-transformer", ModelId::DlrmATransformer),
        ("dlrm-a-moe", ModelId::DlrmAMoe),
        ("dlrm-b", ModelId::DlrmB),
        ("dlrm-b-transformer", ModelId::DlrmBTransformer),
        ("dlrm-b-moe", ModelId::DlrmBMoe),
        ("gpt-3", ModelId::Gpt3),
        ("llama", ModelId::Llama),
        ("llama2", ModelId::Llama2),
        ("llm-moe", ModelId::LlmMoe),
    ])
}

fn systems() -> BTreeMap<&'static str, fn() -> ClusterSpec> {
    BTreeMap::from([
        ("zionex", catalog::zionex_dlrm_system as fn() -> ClusterSpec),
        ("llama", catalog::llama_llm_system),
        ("h100", || catalog::h100_cluster(16)),
        ("superpod", || catalog::h100_superpod_cluster(16)),
        ("mi250x", catalog::mi250x_cluster),
        ("mi300x", catalog::mi300x_cluster),
        ("gaudi2", catalog::gaudi2_cluster),
    ])
}

/// Flags that take no value (presence alone means `true`).
const BOOL_FLAGS: &[&str] = &["verify", "eviction"];

/// Flags that take a value. Together with [`BOOL_FLAGS`] these are every
/// flag any subcommand reads; anything else is a typo and an error.
const VALUE_FLAGS: &[&str] = &[
    // scenario
    "model",
    "system",
    "config-dir",
    "task",
    "prompt",
    "decode",
    "decode-batch",
    "kv",
    "embedding",
    "dense",
    "transformer",
    "moe",
    // load
    "arrival-rate",
    "arrival-count",
    "arrival-seed",
    "arrival-trace",
    "burst-on",
    "burst-off",
    "kv-blocks",
    "queue-cap",
    "horizon",
    "slo-ttft-p99",
    // faults
    "mtbf",
    "checkpoint-interval",
    "recovery",
    "slots-lost",
    "retry",
    "retry-backoff",
    "retry-timeout",
    "fault-seed",
    "fault-horizon",
    // search, output and the other subcommands
    "threads",
    "unconstrained",
    "progress",
    "telemetry",
    "emit-trace",
    "only",
    "out",
];

struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            if BOOL_FLAGS.contains(&key) {
                flags.insert(key.to_owned(), "true".to_owned());
                continue;
            }
            if !VALUE_FLAGS.contains(&key) {
                return Err(format!("unknown flag `{a}`"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?
                .clone();
            flags.insert(key.to_owned(), value);
        }
        Ok(Self { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn is_set(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }
}

/// Parses `--task` (plus the serve flags `--prompt`, `--decode`,
/// `--decode-batch`, `--kv`) into a [`Workload`].
fn parse_workload(args: &Args) -> Result<Workload, String> {
    let parse_flag = |key: &str| -> Result<Option<usize>, String> {
        args.get(key)
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("--{key} expects a number"))
            })
            .transpose()
    };
    match args.get("task").unwrap_or("pretraining") {
        "pretraining" | "pretrain" | "train" => Ok(Workload::pretrain()),
        "inference" | "infer" => Ok(Workload::inference()),
        "finetune-dense" | "finetune-mlp" => Ok(Workload::finetune_only(LayerClass::Dense)),
        "finetune-embedding" | "finetune-emb" => Ok(Workload::finetune_only(LayerClass::Embedding)),
        "serve" => {
            let kv_cache = parse_bool(args, "kv", true)?;
            let cfg = ServeConfig {
                prompt_len: parse_flag("prompt")?,
                decode_len: parse_flag("decode")?.unwrap_or(0),
                decode_batch: parse_flag("decode-batch")?,
                kv_cache,
            };
            Ok(Workload::serve(cfg))
        }
        other => Err(format!("unknown task `{other}`")),
    }
}

/// Parses an optional `true`/`false` flag, `default` when absent.
fn parse_bool(args: &Args, key: &str, default: bool) -> Result<bool, String> {
    match args.get(key) {
        None => Ok(default),
        Some("true") => Ok(true),
        Some("false") => Ok(false),
        Some(other) => Err(format!("--{key} expects true or false, got `{other}`")),
    }
}

/// Parses an optional numeric flag.
fn parse_num<T: std::str::FromStr>(args: &Args, key: &str) -> Result<Option<T>, String> {
    args.get(key)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("--{key} expects a number"))
        })
        .transpose()
}

/// Parses `--arrival-rate`: one rate for `simulate`, a comma-separated
/// ladder for `search` (e.g. `--arrival-rate 0.05,0.2,1`).
fn parse_rates(args: &Args) -> Result<Option<Vec<f64>>, String> {
    args.get("arrival-rate")
        .map(|v| {
            v.split(',')
                .map(|r| {
                    r.trim()
                        .parse::<f64>()
                        .map_err(|_| format!("--arrival-rate: `{r}` is not a number"))
                })
                .collect::<Result<Vec<f64>, String>>()
        })
        .transpose()
}

/// Parses the continuous-batching load flags into a [`LoadSpec`], when
/// any arrival process is requested. `--arrival-rate R` (with
/// `--arrival-count` / `--arrival-seed`) builds a seeded Poisson stream;
/// `--arrival-trace PATH` reads a JSONL request trace (one
/// `{"arrival": s, "prompt_len": n, "decode_len": m}` object per line).
/// `--kv-blocks`, `--queue-cap`, `--eviction`, and `--horizon` shape the
/// paged KV budget and admission queue of either process.
fn parse_load_spec(args: &Args) -> Result<Option<LoadSpec>, String> {
    let rates = parse_rates(args)?;
    let burst = match (
        parse_num::<f64>(args, "burst-on")?,
        parse_num::<f64>(args, "burst-off")?,
    ) {
        (Some(on), Some(off)) => Some((on, off)),
        (None, None) => None,
        _ => return Err("--burst-on and --burst-off must be given together".to_owned()),
    };
    if burst.is_some() && rates.is_none() {
        return Err(
            "--burst-on/--burst-off modulate a Poisson stream; add --arrival-rate".to_owned(),
        );
    }
    let mut spec = match (&rates, args.get("arrival-trace")) {
        (Some(_), Some(_)) => {
            return Err("--arrival-rate and --arrival-trace are mutually exclusive".to_owned());
        }
        (Some(rates), None) => {
            let count = parse_num::<usize>(args, "arrival-count")?.unwrap_or(64);
            let seed = parse_num::<u64>(args, "arrival-seed")?.unwrap_or(42);
            match burst {
                Some((on, off)) => LoadSpec::bursty(rates[0], on, off, count, seed),
                None => LoadSpec::poisson(rates[0], count, seed),
            }
        }
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            LoadSpec::trace(parse_request_jsonl(&text).map_err(|e| e.to_string())?)
        }
        (None, None) => return Ok(None),
    };
    if let Some(blocks) = parse_num::<u64>(args, "kv-blocks")? {
        spec = spec.with_kv_blocks(blocks);
    }
    if let Some(cap) = parse_num::<usize>(args, "queue-cap")? {
        spec = spec.with_queue_capacity(cap);
    }
    if args.is_set("eviction") {
        spec = spec.with_eviction(true);
    }
    if let Some(h) = parse_num::<f64>(args, "horizon")? {
        spec = spec.with_horizon(h);
    }
    Ok(Some(spec))
}

/// Parses `--slo-ttft-p99` (seconds, finite and positive).
fn parse_slo(args: &Args) -> Result<Option<Seconds>, String> {
    match parse_num::<f64>(args, "slo-ttft-p99")? {
        Some(slo) if !(slo.is_finite() && slo > 0.0) => {
            Err(format!("--slo-ttft-p99: {slo} must be finite and positive"))
        }
        slo => Ok(slo.map(Seconds::new)),
    }
}

/// Parses `--checkpoint-interval`: one interval for `simulate`, a
/// comma-separated grid for `search` (e.g.
/// `--checkpoint-interval 60,300,1800`). Empty when the flag is absent.
fn parse_intervals(args: &Args) -> Result<Vec<f64>, String> {
    args.get("checkpoint-interval").map_or(Ok(Vec::new()), |v| {
        v.split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("--checkpoint-interval: `{s}` is not a number"))
            })
            .collect()
    })
}

/// Parses the fault-injection flags into a [`FaultSpec`], when `--mtbf`
/// requests one. The checkpoint interval is left to the caller
/// (`simulate` applies a single `--checkpoint-interval`; `search`
/// sweeps the comma ladder through [`FaultAxes`]).
fn parse_fault_spec(args: &Args) -> Result<Option<FaultSpec>, String> {
    let Some(mtbf) = parse_num::<f64>(args, "mtbf")? else {
        for flag in [
            "checkpoint-interval",
            "recovery",
            "slots-lost",
            "retry",
            "retry-backoff",
            "retry-timeout",
            "fault-seed",
            "fault-horizon",
        ] {
            if args.get(flag).is_some() {
                return Err(format!("--{flag} needs --mtbf"));
            }
        }
        return Ok(None);
    };
    let recovery = parse_num::<f64>(args, "recovery")?.unwrap_or(30.0);
    let seed = parse_num::<u64>(args, "fault-seed")?.unwrap_or(7);
    let mut spec = FaultSpec::fatal(mtbf, recovery, seed);
    if let Some(n) = parse_num::<usize>(args, "slots-lost")? {
        spec = spec.with_slots_lost(n);
    }
    spec.validate()?;
    Ok(Some(spec))
}

/// Parses the retry flags into a [`RetryPolicy`].
fn parse_retry(args: &Args) -> Result<RetryPolicy, String> {
    let mut policy = match parse_num::<u32>(args, "retry")? {
        Some(n) => RetryPolicy::retries(n),
        None => RetryPolicy::default(),
    };
    if let Some(backoff) = parse_num::<f64>(args, "retry-backoff")? {
        policy = policy.with_backoff(backoff);
    }
    if let Some(timeout) = parse_num::<f64>(args, "retry-timeout")? {
        policy = policy.with_timeout(timeout);
    }
    policy.validate()?;
    Ok(policy)
}

/// `simulate` with an arrival process: run the continuous-batching load
/// simulator instead of the one-wave report. With a [`FaultSpec`]
/// (`--mtbf`), the stream runs through the fault-aware simulator:
/// fatal faults interrupt in-flight requests (requeued per the retry
/// policy) and degrade capacity until recovery.
fn run_load_simulation(
    model: &ModelArch,
    system: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
    spec: &LoadSpec,
    fault: Option<&FaultSpec>,
    args: &Args,
) -> Result<(), String> {
    let scenario = Scenario::new(model, system)
        .plan_ref(plan)
        .workload_ref(workload);
    let slo = parse_slo(args)?;
    let costs = scenario.price_load(spec).map_err(|e| e.to_string())?;
    let ticker = parse_num::<u64>(args, "progress")?.map(StderrTicker::every);
    let (events, retry) = match fault {
        Some(f) => {
            // Cover the whole run: the load horizon when set, else four
            // MTBFs (capped to the exact grid's ~16384 s range).
            let horizon_secs = match parse_num::<f64>(args, "fault-horizon")? {
                Some(h) => h,
                None => spec
                    .horizon
                    .unwrap_or_else(|| (4.0 * f.mtbf.unwrap_or(f64::INFINITY)).min(16_000.0)),
            };
            let horizon = grid_units_round(Seconds::new(horizon_secs))
                .ok_or_else(|| format!("fault horizon {horizon_secs} s beyond the exact grid"))?;
            let events = materialize_faults(f, horizon).map_err(|e| e.to_string())?;
            (events, parse_retry(args)?)
        }
        None => (Vec::new(), RetryPolicy::default()),
    };
    let started = std::time::Instant::now();
    let mut hook = ticker.as_ref().map(|t| forward_to_sink(t));
    let outcome = scenario
        .serve_load_faulty(
            spec,
            &costs,
            SimMode::Event,
            &events,
            &retry,
            hook.as_mut().map(|h| h as &mut dyn FnMut(&_)),
        )
        .map_err(|e| e.to_string())?;
    let telemetry = LoadTelemetry::from_outcome(
        &outcome,
        SimMode::Event,
        started.elapsed().as_secs_f64() * 1e3,
    );
    if let Some(t) = &ticker {
        t.load_finished(&telemetry);
    }
    let r = &outcome.report;
    println!("workload:        {} ({workload})", model.name);
    println!("system:          {}", system.name);
    println!("plan:            {}", plan.summary());
    println!(
        "load:            {} arrivals | {} completed | {} rejected | {} evictions",
        r.arrivals, r.completed, r.rejected, r.evictions
    );
    if fault.is_some() {
        println!(
            "faults:          {} windows | availability {:.1}% | {} retries | {} failed",
            outcome.trace.faults.len(),
            r.availability * 100.0,
            r.retries,
            r.failed
        );
    }
    if let Some(t) = &r.ttft {
        println!(
            "ttft:            p50 {:.1} ms | p95 {:.1} ms | p99 {:.1} ms | max {:.1} ms",
            t.p50.as_ms(),
            t.p95.as_ms(),
            t.p99.as_ms(),
            t.max.as_ms()
        );
    }
    if let Some(t) = &r.tpot {
        println!(
            "tpot:            p50 {:.2} ms | p95 {:.2} ms | p99 {:.2} ms",
            t.p50.as_ms(),
            t.p95.as_ms(),
            t.p99.as_ms()
        );
    }
    println!(
        "goodput:         {:.1} tokens/s over a {:.3} s makespan",
        r.tokens_per_sec,
        r.makespan.as_secs()
    );
    if let Some(slo) = slo {
        let verdict = if r.meets_ttft_slo(slo) {
            "met"
        } else {
            "violated"
        };
        println!(
            "slo:             p99 TTFT <= {:.0} ms {verdict} | {:.1} tokens/s within SLO",
            slo.as_ms(),
            r.goodput_tokens_per_sec(slo)
        );
        if fault.is_some() {
            for (from, to) in r.slo_violation_windows(slo) {
                println!(
                    "slo violation:   arrivals in [{:.1} s, {:.1} s] missed the TTFT bound",
                    from.as_secs(),
                    to.as_secs()
                );
            }
        }
    }
    println!(
        "queue:           max depth {} | mean {:.2}",
        r.max_queue_depth, r.mean_queue_depth
    );
    if let Some(total) = outcome.trace.total_blocks {
        println!("kv blocks:       peak {} of {total}", r.peak_kv_blocks);
    }
    if let Some(path) = args.get("emit-trace") {
        ChromeTrace::from_load_trace(&outcome.trace)
            .write(path)
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("trace written to {path} (open at https://ui.perfetto.dev)");
    }
    if args.is_set("verify") {
        finish_verify(&madmax_verify::verify_load(&outcome.trace))?;
    }
    Ok(())
}

/// `simulate` with `--mtbf` and no arrival process: the training
/// checkpoint/restart goodput evaluation — checkpoint costs priced from
/// the plan's memory breakdown, the closed-form Young/Daly expected
/// goodput, and a seeded discrete-event replay cross-check.
fn run_goodput(
    model: &ModelArch,
    system: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
    fault: &FaultSpec,
    args: &Args,
) -> Result<(), String> {
    let intervals = parse_intervals(args)?;
    let fault = match intervals.as_slice() {
        [] => fault.clone(),
        [one] => fault.clone().with_checkpoint_interval(*one),
        _ => {
            return Err(
                "simulate takes a single --checkpoint-interval; pass a comma ladder to search"
                    .to_owned(),
            )
        }
    };
    let outcome = Scenario::new(model, system)
        .plan_ref(plan)
        .workload_ref(workload)
        .goodput(&fault)
        .map_err(|e| e.to_string())?;
    let g = &outcome.goodput;
    println!("workload:        {} ({workload})", model.name);
    println!("system:          {}", system.name);
    println!("plan:            {}", plan.summary());
    println!(
        "iteration:       {:.3} ms | checkpoint state {:.1} GB/device",
        outcome.report.iteration_time.as_ms(),
        outcome.ckpt.state_bytes.as_gb()
    );
    println!(
        "checkpoint:      write {:.2} s | restart {:.2} s | interval {} s{}",
        g.checkpoint_write,
        g.restart,
        format_secs(g.interval),
        if fault.checkpoint_interval.is_some() {
            ""
        } else {
            " (Young/Daly optimum)"
        }
    );
    println!(
        "goodput:         {:.2}% of {:.4} iter/s fault-free -> {:.4} iter/s at MTBF {} s",
        g.goodput_fraction * 100.0,
        g.fault_free_throughput,
        g.effective_throughput,
        format_secs(g.mtbf)
    );
    const REPLAY_SEGMENTS: usize = 200_000;
    match replay_goodput(
        g.checkpoint_write,
        g.restart,
        g.mtbf,
        g.interval,
        fault.seed,
        REPLAY_SEGMENTS,
    ) {
        Ok(replayed) => println!(
            "replay check:    {:.2}% goodput over {REPLAY_SEGMENTS} replayed segments (seed {})",
            replayed * 100.0,
            fault.seed
        ),
        Err(why) => println!("replay check:    skipped, not replayable: {why}"),
    }
    if args.is_set("verify") {
        finish_verify(&madmax_verify::verify_goodput(g))?;
    }
    Ok(())
}

fn lookup_model(args: &Args) -> Result<ModelArch, String> {
    let name = args.get("model").ok_or("missing --model")?;
    models()
        .get(name)
        .map(|id| id.build())
        .ok_or_else(|| format!("unknown model `{name}` (see `madmax list`)"))
}

fn lookup_system(args: &Args) -> Result<ClusterSpec, String> {
    let name = args.get("system").ok_or("missing --system")?;
    systems()
        .get(name)
        .map(|f| f())
        .ok_or_else(|| format!("unknown system `{name}` (see `madmax list`)"))
}

fn build_plan(model: &ModelArch, args: &Args) -> Result<Plan, String> {
    let mut plan = Plan::fsdp_baseline(model);
    for (flag, class) in [
        ("embedding", LayerClass::Embedding),
        ("dense", LayerClass::Dense),
        ("transformer", LayerClass::Transformer),
        ("moe", LayerClass::Moe),
    ] {
        if let Some(notation) = args.get(flag) {
            let strategy: HierStrategy = notation.parse().map_err(|e| format!("{e}"))?;
            plan = plan.with_strategy(class, strategy);
        }
    }
    Ok(plan)
}

/// Exports a scenario's schedule as Chrome trace-event JSON.
fn emit_trace(
    model: &ModelArch,
    system: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
    path: &str,
) -> Result<(), String> {
    let (_, trace, sched) = Scenario::new(model, system)
        .plan(plan.clone())
        .workload(workload.clone())
        .run_with_trace()
        .map_err(|e| e.to_string())?;
    ChromeTrace::from_schedule(&trace, &sched)
        .write(path)
        .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    eprintln!("trace written to {path} (open at https://ui.perfetto.dev)");
    Ok(())
}

/// Runs the full `madmax-verify` rule set on the scenario's
/// engine-produced trace and schedule.
fn verify_scenario(
    model: &ModelArch,
    system: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
) -> Result<madmax_verify::VerifyReport, String> {
    let (_, trace, sched) = Scenario::new(model, system)
        .plan(plan.clone())
        .workload(workload.clone())
        .run_with_trace()
        .map_err(|e| e.to_string())?;
    Ok(madmax_verify::Verifier::for_plan(plan, workload).verify(&trace, &sched))
}

/// Prints a verification report (diagnostics plus the critical-path
/// analysis) and turns error-severity findings into a CLI failure.
fn finish_verify(report: &madmax_verify::VerifyReport) -> Result<(), String> {
    for d in &report.diagnostics {
        println!("  {d}");
    }
    if let Some(cp) = &report.critical_path {
        println!(
            "verify:          critical path {:.3} ms over {} ops",
            cp.lower_bound.as_ms(),
            cp.ops
        );
    }
    if report.is_clean() {
        println!(
            "verify:          clean ({} warnings)",
            report.warning_count()
        );
        Ok(())
    } else {
        Err(format!(
            "schedule verification found {} error(s)",
            report.error_count()
        ))
    }
}

/// Prints a search's `telemetry:` summary line and, when `--telemetry
/// PATH` was given, writes the full telemetry there as JSON.
fn report_telemetry(telemetry: &SearchTelemetry, path: Option<&str>) -> Result<(), String> {
    println!("telemetry: {}", telemetry.summary());
    if let Some(path) = path {
        let js = serde_json::to_string_pretty(telemetry)
            .map_err(|e| format!("telemetry does not serialize: {e}"))?;
        std::fs::write(path, js).map_err(|e| format!("cannot write telemetry to {path}: {e}"))?;
        eprintln!("telemetry written to {path}");
    }
    Ok(())
}

fn print_report(
    model: &ModelArch,
    system: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
) -> Result<(), String> {
    let report = Scenario::new(model, system)
        .plan(plan.clone())
        .workload(workload.clone())
        .run()
        .map_err(|e| e.to_string())?;
    println!("workload:        {} ({workload})", model.name);
    println!("system:          {}", system.name);
    println!("plan:            {}", plan.summary());
    println!(
        "iteration:       {:.3} ms (serialized {:.3} ms)",
        report.iteration_time.as_ms(),
        report.serialized_time.as_ms()
    );
    match model.batch_unit {
        madmax_model::BatchUnit::Samples => println!("throughput:      {:.3} MQPS", report.mqps()),
        madmax_model::BatchUnit::Tokens => {
            println!("throughput:      {:.0} tokens/s", report.tokens_per_sec());
        }
    }
    println!(
        "comm exposed:    {:.2} ms of {:.2} ms ({:.1}%)",
        report.exposed_comm.as_ms(),
        report.comm_time.as_ms(),
        report.exposed_fraction() * 100.0
    );
    println!("memory/device:   {:.1} GB", report.memory.total().as_gb());
    if report.memory.kv_cache.as_gb() > 0.0 {
        println!("  kv-cache       {:.1} GB", report.memory.kv_cache.as_gb());
    }
    if let Some(s) = &report.serve {
        println!(
            "serve:           TTFT {:.3} ms | TPOT {:.3} ms | {:.0} tokens/s out",
            s.ttft.as_ms(),
            s.tpot.as_ms(),
            report.serve_tokens_per_sec().unwrap_or(0.0)
        );
    }
    for (k, t) in &report.comm_by_collective {
        println!("  {k:<14} {:.3} ms", t.as_ms());
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("usage: madmax <list|simulate|search|verify|config> [flags]".to_owned());
    };
    match cmd.as_str() {
        "list" => {
            println!("models:");
            for (name, id) in models() {
                let s = id.build().stats();
                println!(
                    "  {name:<22} {}",
                    madmax_hw::units::human_params(s.params_total)
                );
            }
            println!("systems:");
            for (name, f) in systems() {
                let c = f();
                println!("  {name:<22} {} x{}", c.device.name, c.total_devices());
            }
            Ok(())
        }
        "simulate" => {
            let args = Args::parse(rest)?;
            if let Some(dir) = args.get("config-dir") {
                let dir = std::path::Path::new(dir);
                let cfg = SimulationConfig::from_json_files(
                    dir.join("model.json"),
                    dir.join("system.json"),
                    dir.join("experiment.json"),
                )
                .map_err(|e| e.to_string())?;
                print_report(
                    &cfg.model,
                    &cfg.system,
                    &cfg.experiment.plan,
                    &cfg.experiment.workload,
                )?;
                if let Some(path) = args.get("emit-trace") {
                    emit_trace(
                        &cfg.model,
                        &cfg.system,
                        &cfg.experiment.plan,
                        &cfg.experiment.workload,
                        path,
                    )?;
                }
                if args.is_set("verify") {
                    let report = verify_scenario(
                        &cfg.model,
                        &cfg.system,
                        &cfg.experiment.plan,
                        &cfg.experiment.workload,
                    )?;
                    finish_verify(&report)?;
                }
                return Ok(());
            }
            let model = lookup_model(&args)?;
            let system = lookup_system(&args)?;
            let workload = parse_workload(&args)?;
            let plan = build_plan(&model, &args)?;
            let fault = parse_fault_spec(&args)?;
            if let Some(spec) = parse_load_spec(&args)? {
                return run_load_simulation(
                    &model,
                    &system,
                    &plan,
                    &workload,
                    &spec,
                    fault.as_ref(),
                    &args,
                );
            }
            if let Some(fault) = &fault {
                return run_goodput(&model, &system, &plan, &workload, fault, &args);
            }
            print_report(&model, &system, &plan, &workload)?;
            if let Some(path) = args.get("emit-trace") {
                emit_trace(&model, &system, &plan, &workload, path)?;
            }
            if args.is_set("verify") {
                let report = verify_scenario(&model, &system, &plan, &workload)?;
                finish_verify(&report)?;
            }
            Ok(())
        }
        "search" => {
            let args = Args::parse(rest)?;
            let model = lookup_model(&args)?;
            let system = lookup_system(&args)?;
            let workload = parse_workload(&args)?;
            let mut space = SearchSpace::strategies();
            space.ignore_memory_limits = parse_bool(&args, "unconstrained", false)?;
            let ticker = args
                .get("progress")
                .map(|n| {
                    n.parse::<u64>()
                        .map(StderrTicker::every)
                        .map_err(|_| "--progress expects a number")
                })
                .transpose()?;
            let mut explorer = Explorer::new(&model, &system)
                .workload(workload)
                .space(space)
                .verify_winner(args.is_set("verify"));
            if let Some(t) = ticker.as_ref() {
                explorer = explorer.progress(t);
            }
            if let Some(n) = args.get("threads") {
                let n: usize = n.parse().map_err(|_| "--threads expects a number")?;
                explorer = explorer.threads(n);
            }
            if let Some(fault) = parse_fault_spec(&args)? {
                if parse_load_spec(&args)?.is_some() {
                    return Err(
                        "goodput search takes no arrival process; drop the load flags or \
                         run `simulate` for a fault-aware load simulation"
                            .to_owned(),
                    );
                }
                let mut axes = FaultAxes::new(fault);
                let intervals = parse_intervals(&args)?;
                if !intervals.is_empty() {
                    axes = axes.with_intervals(intervals);
                }
                let r = explorer.explore_goodput(&axes).map_err(|e| e.to_string())?;
                println!(
                    "goodput search: {} candidates | {} goodput evaluations",
                    r.candidates.len(),
                    r.evaluated
                );
                report_telemetry(&r.telemetry, args.get("telemetry"))?;
                let best = r.best();
                println!("goodput-best: {}", best.plan.summary());
                if let Some(i) = best.best_point {
                    let p = &best.points[i];
                    println!(
                        "best point:   interval {} s -> {:.2}% goodput, {:.4} iter/s \
                         effective (MTBF {} s)",
                        format_secs(p.interval),
                        p.goodput_fraction * 100.0,
                        p.effective_throughput,
                        format_secs(p.mtbf)
                    );
                }
                println!("latency-best: {}", r.fault_free().plan.summary());
                if r.plan_flip() {
                    println!(
                        "plan flip: the goodput-optimal plan diverges from the \
                         latency-optimal one at this MTBF"
                    );
                } else {
                    println!("no plan flip: latency-optimal stays goodput-optimal at this MTBF");
                }
                return Ok(());
            }
            if let Some(spec) = parse_load_spec(&args)? {
                let mut axes = LoadAxes::new(spec, parse_rates(&args)?.unwrap_or_default());
                if let Some(slo) = parse_slo(&args)? {
                    axes = axes.with_slo_ttft_p99(slo);
                }
                let r = explorer.explore_load(&axes).map_err(|e| e.to_string())?;
                println!(
                    "load search: {} candidates | {} load simulations",
                    r.candidates.len(),
                    r.evaluated
                );
                report_telemetry(&r.telemetry, args.get("telemetry"))?;
                let best = r.best();
                println!("best plan: {}", best.plan.summary());
                match best.best_point {
                    Some(i) => {
                        let p = &best.points[i];
                        println!(
                            "best point: {:.3} req/s -> {:.1} tokens/s, p99 TTFT {:.1} ms",
                            p.rate,
                            p.report.tokens_per_sec,
                            p.report.ttft.map_or(f64::NAN, |t| t.p99.as_ms())
                        );
                    }
                    None => {
                        println!(
                            "no rate meets the SLO; showing the lowest-tail-latency candidate"
                        );
                    }
                }
                println!("frontier:  rate req/s   tokens/s   p99 TTFT s");
                for (rate, tput, p99) in r.frontier() {
                    println!("           {rate:>10.3} {tput:>10.1} {p99:>12.3}");
                }
                return Ok(());
            }
            let r = explorer.explore().map_err(|e| e.to_string())?;
            println!("evaluated {} plans ({} OOM)", r.evaluated, r.oom);
            report_telemetry(&r.telemetry, args.get("telemetry"))?;
            if let Some(path) = args.get("emit-trace") {
                emit_trace(&model, &system, &r.best_plan, &r.best_workload, path)?;
            }
            println!(
                "baseline:  {:.3} ms/iter",
                r.baseline.iteration_time.as_ms()
            );
            println!(
                "best:      {:.3} ms/iter ({:.2}x) with {}",
                r.best.iteration_time.as_ms(),
                r.speedup(),
                r.winning_strategies()
            );
            if let Some(report) = &r.verify {
                finish_verify(report)?;
            }
            Ok(())
        }
        "verify" => {
            let args = Args::parse(rest)?;
            let only = args.get("only");
            let mut failed = 0usize;
            let mut ran = 0usize;
            for sc in madmax_bench::verify_corpus() {
                if only.is_some_and(|pat| !sc.name.contains(pat)) {
                    continue;
                }
                ran += 1;
                let report = verify_scenario(&sc.model, &sc.system, &sc.plan, &sc.workload)?;
                let cp = report.critical_path.as_ref().map_or_else(
                    || "-".to_owned(),
                    |c| format!("{:.3} ms", c.lower_bound.as_ms()),
                );
                println!(
                    "{:<28} {:>2} errors {:>2} warnings  critical path {}",
                    sc.name,
                    report.error_count(),
                    report.warning_count(),
                    cp
                );
                for d in &report.diagnostics {
                    println!("    {d}");
                }
                if !report.is_clean() {
                    failed += 1;
                }
            }
            // The fault-injection corpus: materialized fault streams
            // through the fault-aware load simulator, checked by the
            // fault-ledger rules (plus the rest of the load rule set).
            for fs in madmax_bench::fault_corpus() {
                if only.is_some_and(|pat| !fs.name.contains(pat)) {
                    continue;
                }
                ran += 1;
                let scenario = Scenario::new(&fs.model, &fs.system)
                    .plan_ref(&fs.plan)
                    .workload_ref(&fs.workload);
                let costs = scenario.price_load(&fs.load).map_err(|e| e.to_string())?;
                let events =
                    materialize_faults(&fs.fault, fs.horizon_units).map_err(|e| e.to_string())?;
                let outcome = scenario
                    .serve_load_faulty(&fs.load, &costs, SimMode::Event, &events, &fs.retry, None)
                    .map_err(|e| e.to_string())?;
                let report = madmax_verify::verify_load(&outcome.trace);
                println!(
                    "{:<28} {:>2} errors {:>2} warnings  {} fault windows",
                    fs.name,
                    report.error_count(),
                    report.warning_count(),
                    outcome.trace.faults.len()
                );
                for d in &report.diagnostics {
                    println!("    {d}");
                }
                if !report.is_clean() {
                    failed += 1;
                }
            }
            // Closed-form goodput reports under the goodput-bound rule.
            for (name, mtbf) in [
                ("goodput/llama2@3600", 3600.0),
                ("goodput/llama2@600", 600.0),
            ] {
                if only.is_some_and(|pat| !name.contains(pat)) {
                    continue;
                }
                ran += 1;
                let model = ModelId::Llama2.build();
                let system = catalog::llama_llm_system();
                let plan = Plan::fsdp_baseline(&model);
                let outcome = Scenario::new(&model, &system)
                    .plan_ref(&plan)
                    .workload(Workload::pretrain())
                    .goodput(&FaultSpec::fatal(mtbf, 60.0, 7))
                    .map_err(|e| e.to_string())?;
                let report = madmax_verify::verify_goodput(&outcome.goodput);
                println!(
                    "{:<28} {:>2} errors {:>2} warnings  goodput {:.2}%",
                    name,
                    report.error_count(),
                    report.warning_count(),
                    outcome.goodput.goodput_fraction * 100.0
                );
                for d in &report.diagnostics {
                    println!("    {d}");
                }
                if !report.is_clean() {
                    failed += 1;
                }
            }
            if ran == 0 {
                return Err("no corpus scenario matches --only filter".to_owned());
            }
            if failed > 0 {
                return Err(format!("{failed} of {ran} scenarios failed verification"));
            }
            println!("all {ran} scenarios verified clean");
            Ok(())
        }
        "config" => {
            let args = Args::parse(rest)?;
            let model = lookup_model(&args)?;
            let system = args
                .get("system")
                .map(|_| lookup_system(&args))
                .transpose()?
                .unwrap_or_else(catalog::zionex_dlrm_system);
            let out = args.get("out").ok_or("missing --out <dir>")?;
            let plan = build_plan(&model, &args)?;
            let workload = parse_workload(&args)?;
            SimulationConfig {
                model,
                system,
                experiment: ExperimentSpec { workload, plan },
            }
            .write_split(out)
            .map_err(|e| e.to_string())?;
            println!("wrote model.json / system.json / experiment.json to {out}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
