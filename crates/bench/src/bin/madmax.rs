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
//! # Flags
//!
//! A flag's value is the next argument unless that argument starts with
//! `--`, and a flag given twice is an error. The switches `--verify`,
//! `--eviction`, `--unconstrained` and `--kv` take an optional `true` or
//! `false`: absent gives the default (on for `--kv`, off for the others)
//! and a bare switch turns it on.
//! Each command reads all of its flags before it runs anything, and a
//! flag it does not read is an error naming the flag and the command,
//! e.g. "unknown flag `--emit-trace` for `madmax search --mtbf`": a typo,
//! a flag of another command and a flag of another mode all fail the
//! same way. The flags each command and mode reads:
//!
//! - `list`: none.
//! - `verify`: `--only`.
//! - `config`: the scenario flags (`--system` defaults to `zionex`) and
//!   `--out DIR`.
//! - `simulate`: the scenario flags, or `--config-dir DIR` in their
//!   place, and `--verify`; then, by mode,
//!   - plain report: `--emit-trace`;
//!   - goodput (`--mtbf`, no arrival process): the fault flags and
//!     `--checkpoint-interval`;
//!   - load run (an arrival process): the load flags, `--slo-ttft-p99`,
//!     `--progress` and `--emit-trace`; with `--mtbf` also the fault
//!     flags, `--slots-lost`, the retry flags and `--fault-horizon`.
//! - `search`: the scenario flags other than the strategy flags,
//!   `--unconstrained`, `--threads`, `--progress` and `--telemetry`;
//!   then, by mode,
//!   - plan search: `--emit-trace` and `--verify`;
//!   - goodput search (`--mtbf`): the fault flags and
//!     `--checkpoint-interval`;
//!   - load search (an arrival process): the load flags and
//!     `--slo-ttft-p99`.
//!
//! The scenario flags are `--model`, `--system`, `--task` (with `--task
//! serve` also `--prompt`, `--decode`, `--decode-batch` and `--kv`) and
//! the strategy flags `--embedding`, `--dense`, `--transformer` and
//! `--moe`. `simulate --config-dir DIR` reads the scenario (model,
//! system, plan and workload) from `DIR`'s three JSON files instead.
//!
//! Continuous-batching load flags (serve task):
//!
//! - `--arrival-rate R` — seeded Poisson arrivals at `R` requests/second
//!   (`search` accepts a comma-separated rate ladder and sweeps it;
//!   `simulate` takes a single rate);
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
//! - In a `simulate` load run, with `--progress N` request completions
//!   tick on stderr; with `--verify`, the load trace runs the
//!   `request-lifecycle` and `paged-kv-residency` rules; with
//!   `--emit-trace PATH`, per-request Perfetto tracks (queue wait, KV
//!   residency, engine timeline) are exported.
//!
//! Fault-injection flags:
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
//! - `--recovery S` — capacity-recovery time per fatal fault (default
//!   30); `--fault-seed S` — fault-stream PRNG seed (default 7).
//! - `--checkpoint-interval S` (goodput) — seconds of useful work
//!   between checkpoint writes (default: the Young/Daly optimum; `search`
//!   accepts a comma ladder and sweeps it per candidate).
//! - Load run only: `--slots-lost N` — serving slots lost per fault
//!   (default 1); `--retry N` — fault-retry budget per request (default
//!   3), with `--retry-backoff S` / `--retry-timeout S`;
//!   `--fault-horizon S` — materialization horizon (default: the load
//!   horizon, else 4 MTBFs).
//!
//! Observability flags:
//!
//! - `--emit-trace PATH` (plain `simulate`, `simulate` load run, plan
//!   `search`): write the simulated schedule as Chrome trace-event JSON —
//!   open it at <https://ui.perfetto.dev>. `search` exports its winner's
//!   schedule, byte for byte the file `simulate` writes for that plan.
//!   The search's own wall time is in `--telemetry`; perfbench
//!   (`perfbench/`) times it layer by layer.
//! - `--telemetry PATH` (`search`, every mode): write the search's
//!   [`madmax_obs::SearchTelemetry`] (outcome counters, cache hit rates,
//!   per-worker throughput, latency histogram, driver phase times) as
//!   JSON.
//! - `--progress N` (`search`, `simulate` load run): print a progress
//!   line every N candidates or completed requests.
//! - `--verify` (`simulate`, plan `search`): run the full `madmax-verify`
//!   rule set on the produced (simulate) or winning (search) schedule, or
//!   the goodput and load rules on a goodput or load run; any
//!   error-severity diagnostic fails the command.
//!
//! The `verify` subcommand sweeps the whole built-in corpus
//! ([`madmax_bench::verify_corpus`]: the model zoo, the pipeline and
//! serve shapes, and the obs golden-trace scenarios) and exits non-zero
//! if any scenario draws an error — this is CI's schedule-integrity
//! gate. `--only SUBSTR` restricts it to matching scenario names.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;

use madmax_core::config::{ExperimentSpec, SimulationConfig};
use madmax_core::steady::grid_units_round;
use madmax_core::{Schedule, Trace};
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
use madmax_verify::VerifyReport;

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

/// One `--name [value]` of the command line.
struct Flag {
    name: String,
    /// The next argument, unless it starts with `--`.
    value: Option<String>,
    /// Whether a lookup has asked for this flag.
    read: Cell<bool>,
}

/// The flags of one command line. Every lookup marks the flag it asks
/// for as read, and [`Args::finish`] rejects the first flag none asked
/// for, so a command accepts exactly the flags it reads.
struct Args {
    flags: Vec<Flag>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            if flags.iter().any(|f: &Flag| f.name == name) {
                return Err(format!("flag --{name} given more than once"));
            }
            flags.push(Flag {
                name: name.to_owned(),
                value: it.next_if(|v| !v.starts_with("--")).cloned(),
                read: Cell::new(false),
            });
        }
        Ok(Self { flags })
    }

    /// Marks `key` read and returns it: `None` when absent, `Some(None)`
    /// when given without a value.
    fn lookup(&self, key: &str) -> Option<Option<&str>> {
        let flag = self.flags.iter().find(|f| f.name == key)?;
        flag.read.set(true);
        Some(flag.value.as_deref())
    }

    /// The value of `key`, `None` when absent.
    fn value(&self, key: &str) -> Result<Option<&str>, String> {
        match self.lookup(key) {
            Some(None) => Err(format!("flag --{key} needs a value")),
            found => Ok(found.flatten()),
        }
    }

    /// A switch: `default` when absent, on when bare, else `true` or
    /// `false`.
    fn switch(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.lookup(key) {
            None => Ok(default),
            Some(None | Some("true")) => Ok(true),
            Some(Some("false")) => Ok(false),
            Some(Some(other)) => Err(format!("--{key} expects true or false, got `{other}`")),
        }
    }

    /// A number, `None` when absent.
    fn num<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)?
            .map(|v| v.parse().map_err(|_| format!("--{key} expects a number")))
            .transpose()
    }

    /// A comma-separated list of numbers (e.g. `--arrival-rate
    /// 0.05,0.2,1`), `None` when absent.
    fn list<T: FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        self.value(key)?
            .map(|v| {
                v.split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("--{key}: `{s}` is not a number"))
                    })
                    .collect()
            })
            .transpose()
    }

    /// Rejects the first flag no lookup read. The error names it and the
    /// command, `madmax COMMAND` followed by those of the mode-selecting
    /// flags `modes` that were given.
    fn finish(&self, command: &str, modes: &[&str]) -> Result<(), String> {
        let Some(unread) = self.flags.iter().find(|f| !f.read.get()) else {
            return Ok(());
        };
        let mut command = format!("madmax {command}");
        for mode in modes {
            if self.flags.iter().any(|f| f.name == *mode) {
                command += &format!(" --{mode}");
            }
        }
        Err(format!("unknown flag `--{}` for `{command}`", unread.name))
    }
}

/// Parses `--task` (plus the serve flags `--prompt`, `--decode`,
/// `--decode-batch`, `--kv`) into a [`Workload`].
fn parse_workload(args: &Args) -> Result<Workload, String> {
    match args.value("task")?.unwrap_or("pretraining") {
        "pretraining" | "pretrain" | "train" => Ok(Workload::pretrain()),
        "inference" | "infer" => Ok(Workload::inference()),
        "finetune-dense" | "finetune-mlp" => Ok(Workload::finetune_only(LayerClass::Dense)),
        "finetune-embedding" | "finetune-emb" => Ok(Workload::finetune_only(LayerClass::Embedding)),
        "serve" => Ok(Workload::serve(ServeConfig {
            kv_cache: args.switch("kv", true)?,
            prompt_len: args.num("prompt")?,
            decode_len: args.num("decode")?.unwrap_or(0),
            decode_batch: args.num("decode-batch")?,
        })),
        other => Err(format!("unknown task `{other}`")),
    }
}

/// Parses the continuous-batching load flags into a [`LoadSpec`], when
/// any arrival process is requested. `--arrival-rate R` (with
/// `--arrival-count`, `--arrival-seed` and `--burst-on`/`--burst-off`)
/// builds a seeded Poisson stream; `--arrival-trace PATH` reads a JSONL
/// request trace (one `{"arrival": s, "prompt_len": n, "decode_len": m}`
/// object per line). `--kv-blocks`, `--queue-cap`, `--eviction`, and
/// `--horizon` shape the paged KV budget and admission queue of either
/// process.
fn parse_load_spec(args: &Args) -> Result<Option<LoadSpec>, String> {
    let mut spec = match (
        args.list::<f64>("arrival-rate")?,
        args.value("arrival-trace")?,
    ) {
        (Some(_), Some(_)) => {
            return Err("--arrival-rate and --arrival-trace are mutually exclusive".to_owned());
        }
        (Some(rates), None) => {
            let count = args.num("arrival-count")?.unwrap_or(64);
            let seed = args.num("arrival-seed")?.unwrap_or(42);
            match (args.num("burst-on")?, args.num("burst-off")?) {
                (Some(on), Some(off)) => LoadSpec::bursty(rates[0], on, off, count, seed),
                (None, None) => LoadSpec::poisson(rates[0], count, seed),
                _ => return Err("--burst-on and --burst-off must be given together".to_owned()),
            }
        }
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            LoadSpec::trace(parse_request_jsonl(&text).map_err(|e| e.to_string())?)
        }
        (None, None) => return Ok(None),
    };
    if let Some(blocks) = args.num("kv-blocks")? {
        spec = spec.with_kv_blocks(blocks);
    }
    if let Some(cap) = args.num("queue-cap")? {
        spec = spec.with_queue_capacity(cap);
    }
    spec = spec.with_eviction(args.switch("eviction", false)?);
    if let Some(h) = args.num("horizon")? {
        spec = spec.with_horizon(h);
    }
    Ok(Some(spec))
}

/// Parses `--slo-ttft-p99` (seconds, finite and positive).
fn parse_slo(args: &Args) -> Result<Option<Seconds>, String> {
    match args.num::<f64>("slo-ttft-p99")? {
        Some(slo) if !(slo.is_finite() && slo > 0.0) => {
            Err(format!("--slo-ttft-p99: {slo} must be finite and positive"))
        }
        slo => Ok(slo.map(Seconds::new)),
    }
}

/// Parses `--mtbf` (with `--recovery` and `--fault-seed`) into a
/// [`FaultSpec`], when given. Each mode reads its own further fault
/// flags: the goodput paths the checkpoint interval, a load run
/// [`parse_load_faults`].
fn parse_fault_spec(args: &Args) -> Result<Option<FaultSpec>, String> {
    let Some(mtbf) = args.num::<f64>("mtbf")? else {
        return Ok(None);
    };
    let recovery = args.num("recovery")?.unwrap_or(30.0);
    let seed = args.num("fault-seed")?.unwrap_or(7);
    let spec = FaultSpec::fatal(mtbf, recovery, seed);
    spec.validate()?;
    Ok(Some(spec))
}

/// The faults of a `simulate` load run: `fault` with `--slots-lost`, the
/// fault-stream horizon in grid units (`--fault-horizon`) and the retry
/// policy (`--retry`, `--retry-backoff`, `--retry-timeout`).
fn parse_load_faults(
    args: &Args,
    fault: FaultSpec,
    spec: &LoadSpec,
) -> Result<(FaultSpec, i64, RetryPolicy), String> {
    let fault = match args.num("slots-lost")? {
        Some(n) => fault.with_slots_lost(n),
        None => fault,
    };
    // Cover the whole run: the load horizon when set, else four MTBFs
    // (capped to the exact grid's ~16384 s range).
    let horizon_secs = match args.num::<f64>("fault-horizon")? {
        Some(h) => h,
        None => spec
            .horizon
            .unwrap_or_else(|| (4.0 * fault.mtbf.unwrap_or(f64::INFINITY)).min(16_000.0)),
    };
    let horizon = grid_units_round(Seconds::new(horizon_secs))
        .ok_or_else(|| format!("fault horizon {horizon_secs} s beyond the exact grid"))?;
    let mut retry = match args.num("retry")? {
        Some(n) => RetryPolicy::retries(n),
        None => RetryPolicy::default(),
    };
    if let Some(backoff) = args.num("retry-backoff")? {
        retry = retry.with_backoff(backoff);
    }
    if let Some(timeout) = args.num("retry-timeout")? {
        retry = retry.with_timeout(timeout);
    }
    retry.validate()?;
    Ok((fault, horizon, retry))
}

/// `simulate` with an arrival process: run the continuous-batching load
/// simulator instead of the one-wave report. With faults (`--mtbf`: the
/// spec, its horizon in grid units and the retry policy), the stream
/// runs through the fault-aware simulator: fatal faults interrupt
/// in-flight requests (requeued per the retry policy) and degrade
/// capacity until recovery.
fn run_load_simulation(
    cfg: &SimulationConfig,
    spec: &LoadSpec,
    fault: Option<&(FaultSpec, i64, RetryPolicy)>,
    slo: Option<Seconds>,
    ticker: Option<&StderrTicker>,
    emit: Option<&str>,
    verify: bool,
) -> Result<(), String> {
    let (model, system, plan, workload) = parts(cfg);
    let scenario = Scenario::new(model, system)
        .plan_ref(plan)
        .workload_ref(workload);
    let costs = scenario.price_load(spec).map_err(|e| e.to_string())?;
    let (events, retry) = match fault {
        Some((f, horizon, retry)) => (
            materialize_faults(f, *horizon).map_err(|e| e.to_string())?,
            *retry,
        ),
        None => (Vec::new(), RetryPolicy::default()),
    };
    let started = std::time::Instant::now();
    let mut hook = ticker.map(|t| forward_to_sink(t));
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
    if let Some(t) = ticker {
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
    if let Some(path) = emit {
        ChromeTrace::from_load_trace(&outcome.trace)
            .write(path)
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("trace written to {path} (open at https://ui.perfetto.dev)");
    }
    if verify {
        finish_verify(&madmax_verify::verify_load(&outcome.trace))?;
    }
    Ok(())
}

/// `simulate` with `--mtbf` and no arrival process: the training
/// checkpoint/restart goodput evaluation — checkpoint costs priced from
/// the plan's memory breakdown, the closed-form Young/Daly expected
/// goodput, and a seeded discrete-event replay cross-check.
fn run_goodput(cfg: &SimulationConfig, fault: &FaultSpec, verify: bool) -> Result<(), String> {
    let (model, system, plan, workload) = parts(cfg);
    let outcome = Scenario::new(model, system)
        .plan_ref(plan)
        .workload_ref(workload)
        .goodput(fault)
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
    if verify {
        finish_verify(&madmax_verify::verify_goodput(g))?;
    }
    Ok(())
}

/// A scenario's model, system, plan and workload.
fn parts(cfg: &SimulationConfig) -> (&ModelArch, &ClusterSpec, &Plan, &Workload) {
    (
        &cfg.model,
        &cfg.system,
        &cfg.experiment.plan,
        &cfg.experiment.workload,
    )
}

fn lookup_model(args: &Args) -> Result<ModelArch, String> {
    let name = args.value("model")?.ok_or("missing --model")?;
    models()
        .get(name)
        .map(|id| id.build())
        .ok_or_else(|| format!("unknown model `{name}` (see `madmax list`)"))
}

/// The system `--system` names, else `default` when there is one.
fn lookup_system(args: &Args, default: Option<fn() -> ClusterSpec>) -> Result<ClusterSpec, String> {
    match (args.value("system")?, default) {
        (Some(name), _) => systems()
            .get(name)
            .map(|f| f())
            .ok_or_else(|| format!("unknown system `{name}` (see `madmax list`)")),
        (None, Some(default)) => Ok(default()),
        (None, None) => Err("missing --system".to_owned()),
    }
}

/// The scenario of the scenario flags; `default_system` stands in for
/// an absent `--system`, when there is one.
fn parse_scenario(
    args: &Args,
    default_system: Option<fn() -> ClusterSpec>,
) -> Result<SimulationConfig, String> {
    let model = lookup_model(args)?;
    let system = lookup_system(args, default_system)?;
    let workload = parse_workload(args)?;
    let plan = build_plan(&model, args)?;
    Ok(SimulationConfig {
        model,
        system,
        experiment: ExperimentSpec { workload, plan },
    })
}

/// The scenario `simulate` runs: the three JSON files of `--config-dir`,
/// else the scenario flags.
fn load_scenario(args: &Args) -> Result<SimulationConfig, String> {
    let Some(dir) = args.value("config-dir")? else {
        return parse_scenario(args, None);
    };
    let dir = std::path::Path::new(dir);
    SimulationConfig::from_json_files(
        dir.join("model.json"),
        dir.join("system.json"),
        dir.join("experiment.json"),
    )
    .map_err(|e| e.to_string())
}

fn build_plan(model: &ModelArch, args: &Args) -> Result<Plan, String> {
    let mut plan = Plan::fsdp_baseline(model);
    for (flag, class) in [
        ("embedding", LayerClass::Embedding),
        ("dense", LayerClass::Dense),
        ("transformer", LayerClass::Transformer),
        ("moe", LayerClass::Moe),
    ] {
        if let Some(notation) = args.value(flag)? {
            let strategy: HierStrategy = notation.parse().map_err(|e| format!("{e}"))?;
            plan = plan.with_strategy(class, strategy);
        }
    }
    Ok(plan)
}

/// Runs the scenario once for its engine-produced trace and schedule, the
/// input of both `--emit-trace` and `--verify`.
fn run_traced(
    model: &ModelArch,
    system: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
) -> Result<(Trace, Schedule), String> {
    let (_, trace, sched) = Scenario::new(model, system)
        .plan_ref(plan)
        .workload_ref(workload)
        .run_with_trace()
        .map_err(|e| e.to_string())?;
    Ok((trace, sched))
}

/// Writes a schedule as Chrome trace-event JSON.
fn write_trace(trace: &Trace, sched: &Schedule, path: &str) -> Result<(), String> {
    ChromeTrace::from_schedule(trace, sched)
        .write(path)
        .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    eprintln!("trace written to {path} (open at https://ui.perfetto.dev)");
    Ok(())
}

/// Prints a verification report (diagnostics plus the critical-path
/// analysis) and turns error-severity findings into a CLI failure.
fn finish_verify(report: &VerifyReport) -> Result<(), String> {
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

fn print_report(cfg: &SimulationConfig) -> Result<(), String> {
    let (model, system, plan, workload) = parts(cfg);
    let report = Scenario::new(model, system)
        .plan_ref(plan)
        .workload_ref(workload)
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

/// `madmax simulate`: one scenario as a plain report, a goodput
/// evaluation (`--mtbf`) or a load run (an arrival process).
fn simulate(args: &Args) -> Result<(), String> {
    const MODES: &[&str] = &["config-dir", "arrival-rate", "arrival-trace", "mtbf"];
    let cfg = load_scenario(args)?;
    let verify = args.switch("verify", false)?;
    let fault = parse_fault_spec(args)?;
    match (parse_load_spec(args)?, fault) {
        (Some(spec), fault) => {
            if args
                .list::<f64>("arrival-rate")?
                .is_some_and(|r| r.len() > 1)
            {
                return Err(
                    "simulate takes a single --arrival-rate; pass a comma ladder to search"
                        .to_owned(),
                );
            }
            let fault = fault
                .map(|f| parse_load_faults(args, f, &spec))
                .transpose()?;
            let slo = parse_slo(args)?;
            let ticker = args.num("progress")?.map(StderrTicker::every);
            let emit = args.value("emit-trace")?;
            args.finish("simulate", MODES)?;
            run_load_simulation(
                &cfg,
                &spec,
                fault.as_ref(),
                slo,
                ticker.as_ref(),
                emit,
                verify,
            )
        }
        (None, Some(fault)) => {
            let fault =
                match args.list("checkpoint-interval")?.as_deref() {
                    None => fault,
                    Some([one]) => fault.with_checkpoint_interval(*one),
                    Some(_) => return Err(
                        "simulate takes a single --checkpoint-interval; pass a comma ladder to \
                         search"
                            .to_owned(),
                    ),
                };
            args.finish("simulate", MODES)?;
            run_goodput(&cfg, &fault, verify)
        }
        (None, None) => {
            let emit = args.value("emit-trace")?;
            args.finish("simulate", MODES)?;
            print_report(&cfg)?;
            if emit.is_some() || verify {
                let (model, system, plan, workload) = parts(&cfg);
                let (trace, sched) = run_traced(model, system, plan, workload)?;
                if let Some(path) = emit {
                    write_trace(&trace, &sched, path)?;
                }
                if verify {
                    let report =
                        madmax_verify::Verifier::for_plan(plan, workload).verify(&trace, &sched);
                    finish_verify(&report)?;
                }
            }
            Ok(())
        }
    }
}

/// `madmax search`: the strategy search, ranked by iteration latency, by
/// goodput (`--mtbf`) or by SLO-bounded throughput (an arrival process).
fn search(args: &Args) -> Result<(), String> {
    let model = lookup_model(args)?;
    let system = lookup_system(args, None)?;
    let mut space = SearchSpace::strategies();
    space.ignore_memory_limits = args.switch("unconstrained", false)?;
    let ticker = args.num("progress")?.map(StderrTicker::every);
    let telemetry = args.value("telemetry")?;
    let mut explorer = Explorer::new(&model, &system)
        .workload(parse_workload(args)?)
        .space(space);
    if let Some(t) = ticker.as_ref() {
        explorer = explorer.progress(t);
    }
    if let Some(n) = args.num("threads")? {
        explorer = explorer.threads(n);
    }
    if let Some(fault) = parse_fault_spec(args)? {
        let mut axes = FaultAxes::new(fault);
        if let Some(intervals) = args.list("checkpoint-interval")? {
            axes = axes.with_intervals(intervals);
        }
        args.finish("search", &["mtbf"])?;
        let r = explorer.explore_goodput(&axes).map_err(|e| e.to_string())?;
        println!(
            "goodput search: {} candidates | {} goodput evaluations",
            r.candidates.len(),
            r.evaluated
        );
        report_telemetry(&r.telemetry, telemetry)?;
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
    if let Some(spec) = parse_load_spec(args)? {
        let mut axes = LoadAxes::new(spec, args.list("arrival-rate")?.unwrap_or_default());
        if let Some(slo) = parse_slo(args)? {
            axes = axes.with_slo_ttft_p99(slo);
        }
        args.finish("search", &["arrival-rate", "arrival-trace"])?;
        let r = explorer.explore_load(&axes).map_err(|e| e.to_string())?;
        println!(
            "load search: {} candidates | {} load simulations",
            r.candidates.len(),
            r.evaluated
        );
        report_telemetry(&r.telemetry, telemetry)?;
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
                println!("no rate meets the SLO; showing the lowest-tail-latency candidate");
            }
        }
        println!("frontier:  rate req/s   tokens/s   p99 TTFT s");
        for (rate, tput, p99) in r.frontier() {
            println!("           {rate:>10.3} {tput:>10.1} {p99:>12.3}");
        }
        return Ok(());
    }
    let verify = args.switch("verify", false)?;
    let emit = args.value("emit-trace")?;
    args.finish("search", &[])?;
    let r = explorer
        .verify_winner(verify)
        .explore()
        .map_err(|e| e.to_string())?;
    println!("evaluated {} plans ({} OOM)", r.evaluated, r.oom);
    report_telemetry(&r.telemetry, telemetry)?;
    if let Some(path) = emit {
        let (trace, sched) = run_traced(&model, &system, &r.best_plan, &r.best_workload)?;
        write_trace(&trace, &sched, path)?;
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

/// `madmax verify`: the corpus sweep, filtered by `--only`.
fn verify(args: &Args) -> Result<(), String> {
    let only = args.value("only")?;
    args.finish("verify", &[])?;
    let (mut ran, mut failed) = (0usize, 0usize);
    // Verifies the scenario `name` unless `--only` filters it out:
    // `verify` returns its report and the summary printed after the
    // error and warning counts.
    let mut check =
        |name: &str, verify: &mut dyn FnMut() -> Result<(VerifyReport, String), String>| {
            if only.is_some_and(|pat| !name.contains(pat)) {
                return Ok::<(), String>(());
            }
            ran += 1;
            let (report, summary) = verify()?;
            println!(
                "{name:<28} {:>2} errors {:>2} warnings  {summary}",
                report.error_count(),
                report.warning_count()
            );
            for d in &report.diagnostics {
                println!("    {d}");
            }
            if !report.is_clean() {
                failed += 1;
            }
            Ok(())
        };
    for sc in madmax_bench::verify_corpus() {
        check(&sc.name, &mut || {
            let (trace, sched) = run_traced(&sc.model, &sc.system, &sc.plan, &sc.workload)?;
            let report =
                madmax_verify::Verifier::for_plan(&sc.plan, &sc.workload).verify(&trace, &sched);
            let cp = report.critical_path.as_ref().map_or_else(
                || "-".to_owned(),
                |c| format!("{:.3} ms", c.lower_bound.as_ms()),
            );
            Ok((report, format!("critical path {cp}")))
        })?;
    }
    // The fault-injection corpus: materialized fault streams through the
    // fault-aware load simulator, checked by the fault-ledger rules (plus
    // the rest of the load rule set).
    for fs in madmax_bench::fault_corpus() {
        check(&fs.name, &mut || {
            let scenario = Scenario::new(&fs.model, &fs.system)
                .plan_ref(&fs.plan)
                .workload_ref(&fs.workload);
            let costs = scenario.price_load(&fs.load).map_err(|e| e.to_string())?;
            let events =
                materialize_faults(&fs.fault, fs.horizon_units).map_err(|e| e.to_string())?;
            let outcome = scenario
                .serve_load_faulty(&fs.load, &costs, SimMode::Event, &events, &fs.retry, None)
                .map_err(|e| e.to_string())?;
            let windows = outcome.trace.faults.len();
            Ok((
                madmax_verify::verify_load(&outcome.trace),
                format!("{windows} fault windows"),
            ))
        })?;
    }
    // Closed-form goodput reports under the goodput-bound rule.
    for (name, mtbf) in [
        ("goodput/llama2@3600", 3600.0),
        ("goodput/llama2@600", 600.0),
    ] {
        check(name, &mut || {
            let model = ModelId::Llama2.build();
            let system = catalog::llama_llm_system();
            let plan = Plan::fsdp_baseline(&model);
            let outcome = Scenario::new(&model, &system)
                .plan_ref(&plan)
                .workload(Workload::pretrain())
                .goodput(&FaultSpec::fatal(mtbf, 60.0, 7))
                .map_err(|e| e.to_string())?;
            Ok((
                madmax_verify::verify_goodput(&outcome.goodput),
                format!("goodput {:.2}%", outcome.goodput.goodput_fraction * 100.0),
            ))
        })?;
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

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("usage: madmax <list|simulate|search|verify|config> [flags]".to_owned());
    };
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "list" => {
            args.finish("list", &[])?;
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
        "simulate" => simulate(&args),
        "search" => search(&args),
        "verify" => verify(&args),
        "config" => {
            let cfg = parse_scenario(&args, Some(catalog::zionex_dlrm_system))?;
            let out = args.value("out")?.ok_or("missing --out <dir>")?;
            args.finish("config", &[])?;
            cfg.write_split(out).map_err(|e| e.to_string())?;
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
