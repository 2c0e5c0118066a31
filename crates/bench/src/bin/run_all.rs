//! `run_all` — the figure runner. It runs the experiments of the registry
//! ([`madmax_bench::experiments::ALL`]), prints each report and persists
//! it as `results/<name>.txt`:
//!
//! ```text
//! run_all [NAME ...] [--threads N] [--progress N] [--telemetry PATH] [--verify]
//! run_all                                  # every table and figure
//! run_all fig10_pretraining_speedup --threads 1
//! ```
//!
//! With no names it runs every experiment in registry order, else the
//! named ones in the order given; an unknown name prints the usage with
//! every registry name and exits 2. DSE-heavy experiments fan out over
//! `--threads` workers (default: all cores); their reports are identical
//! at any thread count. The telemetry layer's [`ElapsedSummary`] prints a
//! per-experiment elapsed-time table to stderr at the end, so hot-path
//! regressions are visible straight from the artifact run. Per-search
//! telemetry (outcome counters, cache hit rates) lands in `--telemetry
//! PATH`, else in `results/telemetry.json`.

use std::path::PathBuf;

use madmax_bench::experiments::{self, Experiment};
use madmax_bench::{emit, SearchHooks};
use madmax_obs::{ElapsedSummary, ProgressSink, StderrTicker, TelemetrySpool};

/// Parsed command line.
struct Cli {
    experiments: Vec<&'static Experiment>,
    threads: usize,
    progress: Option<StderrTicker>,
    telemetry: Option<PathBuf>,
    verify: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run_all [NAME ...] [--threads N] [--progress N] [--telemetry PATH] [--verify]\n\
         \x20 NAME              run only the named experiments (default: all)\n\
         \x20 --threads N       explorer worker-pool size (default: all cores)\n\
         \x20 --progress N      print a progress line every N candidates\n\
         \x20 --telemetry PATH  write per-search telemetry JSON to PATH\n\
         \x20                   (default: results/telemetry.json)\n\
         \x20 --verify          verify each plan search's winner schedule\n\
         \x20                   (goodput and load searches verify nothing)\n\
         experiments:"
    );
    for e in experiments::ALL {
        eprintln!("  {}", e.name);
    }
    std::process::exit(2);
}

/// Parses the process arguments, exiting with the usage on a malformed
/// or unknown flag or an unknown experiment name.
fn parse_args() -> Cli {
    let mut cli = Cli {
        experiments: Vec::new(),
        threads: madmax_bench::default_threads(),
        progress: None,
        telemetry: None,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--verify" {
            cli.verify = true;
            continue;
        }
        if !a.starts_with("--") {
            let Some(e) = experiments::find(&a) else {
                eprintln!("run_all: unknown experiment `{a}`");
                usage()
            };
            cli.experiments.push(e);
            continue;
        }
        let Some(v) = it.next() else { usage() };
        match a.as_str() {
            "--threads" => match v.parse::<usize>() {
                Ok(n) => cli.threads = n.max(1),
                Err(_) => usage(),
            },
            "--progress" => match v.parse::<u64>() {
                Ok(n) => cli.progress = Some(StderrTicker::every(n)),
                Err(_) => usage(),
            },
            "--telemetry" => cli.telemetry = Some(PathBuf::from(v)),
            _ => usage(),
        }
    }
    if cli.experiments.is_empty() {
        cli.experiments = experiments::ALL.iter().collect();
    }
    cli
}

fn main() {
    let cli = parse_args();
    let spool = TelemetrySpool::new();
    let hooks = SearchHooks {
        threads: cli.threads,
        sink: cli.progress.as_ref().map(|t| t as &dyn ProgressSink),
        spool: Some(&spool),
        verify: cli.verify,
    };
    let mut summary = ElapsedSummary::new();
    for e in &cli.experiments {
        eprintln!(">>> {}", e.name);
        let report = summary.run(e.name, || (e.run)(&hooks));
        emit(e.name, &report);
    }

    eprintln!(
        "\n=== elapsed per experiment ({} thread(s)) ===",
        cli.threads
    );
    eprint!("{}", summary.table());

    let telemetry_path = cli
        .telemetry
        .unwrap_or_else(|| madmax_bench::results_dir().join("telemetry.json"));
    match spool.write(&telemetry_path) {
        Ok(()) => eprintln!("search telemetry written to {}", telemetry_path.display()),
        Err(err) => eprintln!("cannot write search telemetry: {err}"),
    }
}
