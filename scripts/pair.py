#!/usr/bin/env python3
"""Paired perfbench runs: a parent commit against a change, on one host.

A speed claim in this repository is a paired A/B number, never a ratio
against numbers measured in another session. This driver makes one:

1. It builds perfbench (`perfbench/`) once per distinct commit, offline,
   in a git worktree under `target/pair/<sha>`. A worktree that is
   already there is reused.
2. Each pair runs both commits on one fresh seed (`--seed`, then
   `--seed + 1`, ...), one workload at a time, alternating which side
   runs first.
3. It reads each run's last stdout line (perfbench's JSON result) and
   stops with an error on any run whose `correct` is not true or whose
   `failed` is above 0.
4. Per workload and `BENCHMARK.json` end-to-end metric it prints each
   side's median and interquartile range (IQR), the relative difference
   of the medians, how many pairs the change won (ties count for
   neither), and a verdict:
   - `unresolved`: fewer than ten pairs ran, or the parent's IQR
     exceeds the metric's bound (the runs are too noisy to judge) and
     not every change run reads better than every parent run;
   - `REGRESSED`: the change's median is worse than the parent's by more
     than the bound;
   - `gain`: the change won at least nine tenths of the pairs and its
     median is better by more than the parent's IQR;
   - `within bound`: anything else.

The metrics, their direction (`better`), their `bound` and the default
run length (`run_seconds`) come from the change's `BENCHMARK.json`. The
host fingerprint (`nproc`, `rustc -V`, both SHAs) is printed first. The
exit status is 0 when every run was correct, 1 when a build or run
failed, 2 on a usage error; verdicts do not change it.

Reproducing a claim, from the repository root (ten pairs of train-search
runs on seeds 101..110, parent first on even pairs):

    python3 scripts/pair.py --parent HEAD~1 --change HEAD \\
        --workloads train_search --pairs 10 --seed 101

Paste the whole output with the claim, and use seeds no earlier run of
the claim used. The script needs only python3's standard library, git
and cargo.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR_DIR = ROOT / "target" / "pair"
RUN_TIMEOUT_S = 600


def fail(msg):
    print(f"pair: {msg}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    out = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True
    )
    if out.returncode != 0:
        fail(f"git {' '.join(args)}: {out.stderr.strip()}")
    return out.stdout.strip()


def build(sha):
    """Builds perfbench at `sha` in its worktree; returns the binary."""
    tree = PAIR_DIR / sha
    if not (tree / ".git").exists():
        git("worktree", "prune")
        git("worktree", "add", "--detach", str(tree), sha)
    manifest = tree / "perfbench" / "Cargo.toml"
    if not manifest.exists():
        fail(f"{sha[:12]} has no perfbench/")
    print(f"pair: building perfbench at {sha[:12]}", file=sys.stderr)
    out = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(manifest)],
        capture_output=True, text=True,
    )
    if out.returncode != 0:
        fail(f"building {sha[:12]} failed:\n{out.stderr}")
    return tree / "perfbench" / "target" / "release" / "madmax-perfbench"


def run(binary, workload, seed, seconds):
    """One perfbench run; returns its metrics as {name: value}."""
    argv = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        out = subprocess.run(argv, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"`{' '.join(argv)}` ran past {RUN_TIMEOUT_S} s")
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"`{' '.join(argv)}` exited {out.returncode} without a "
             f"result line:\n{out.stderr}")
    if result.get("correct") is not True or result.get("failed", 1) > 0:
        fail(f"`{' '.join(argv)}`: correct={result.get('correct')} "
             f"failed={result.get('failed')}\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    """Lower quartile, median and upper quartile, interpolated linearly."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(metric, parent, change):
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    lower = metric["better"] == "lower"
    bound = metric["bound"] * abs(p_med)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    gap = (p_med - c_med) if lower else (c_med - p_med)
    separated = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if len(parent) < 10 or (p3 - p1 > bound and not separated):
        word = "unresolved"
    elif -gap > bound:
        word = "REGRESSED"
    elif wins * 10 >= 9 * len(parent) and gap > p3 - p1:
        word = "gain"
    else:
        word = "within bound"
    delta = (c_med - p_med) / p_med * 100 if p_med else 0.0
    return p_med, p3 - p1, c_med, c3 - c1, delta, wins, word


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent git rev")
    ap.add_argument("--change", required=True, help="change git rev")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated perfbench workloads "
                         "(default: every BENCHMARK.json workload)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="perfbench --seconds per run "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair; pair i uses seed + i")
    args = ap.parse_args()
    if args.pairs < 1 or (args.seconds is not None and args.seconds <= 0):
        ap.error("--pairs and --seconds must be positive")

    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("parent", args.parent),
                              ("change", args.change))}
    binaries = {sha: build(sha) for sha in dict.fromkeys(shas.values())}
    bench = json.loads(
        (PAIR_DIR / shas["change"] / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    rustc = subprocess.run(["rustc", "-V"], capture_output=True,
                           text=True).stdout.strip()
    print(f"host: nproc {os.cpu_count()} | {rustc}")
    print(f"parent: {shas['parent']} ({args.parent})")
    print(f"change: {shas['change']} ({args.change})")
    print(f"pairs: {args.pairs} per workload, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}, perfbench --seconds {seconds:g}")

    rows = []
    for workload in workloads:
        samples = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            for side in order:
                samples[side].append(
                    run(binaries[shas[side]], workload, seed, seconds))
            print(f"pair: {workload} {i + 1}/{args.pairs} seed {seed}",
                  file=sys.stderr)
        for m in metrics:
            try:
                parent = [s[m["name"]] for s in samples["parent"]]
                change = [s[m["name"]] for s in samples["change"]]
            except KeyError:
                fail(f"{workload} does not report {m['name']}")
            rows.append((workload, m, *verdict(m, parent, change)))

    print(f"\n{'workload':<18} {'metric':<16} {'unit':<5} "
          f"{'parent p50':>11} {'IQR':>9} {'change p50':>11} {'IQR':>9} "
          f"{'delta':>8} {'wins':>6}  verdict")
    for workload, m, p_med, p_iqr, c_med, c_iqr, delta, wins, word in rows:
        print(f"{workload:<18} {m['name']:<16} {m['unit']:<5} "
              f"{p_med:>11.4g} {p_iqr:>9.3g} {c_med:>11.4g} {c_iqr:>9.3g} "
              f"{delta:>+7.1f}% {wins:>3}/{args.pairs:<2}  {word} "
              f"(bound {m['bound']:.0%}, {m['better']} is better)")


if __name__ == "__main__":
    main()
