"""Benchmark of the expcycles command line.

Run from the repository root:

    python3 perfbench/run.py --workload fixedbase --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

Untraced (--trace 0): the workload's CLI command runs as a fresh process
tree (`python -m expcycles.cli`, sources from src/), job after job for
about --seconds. Every output is validated outside the timed
region, and repeats must give byte-identical output. It reports the
medians over jobs of

    rows_per_s   validated output rows per wall second
    nodes_per_s  domain sizes (p-1 or N-1) of the validated rows per wall second
    peak_rss_mb  peak RSS of the CLI process tree (getrusage of the process and
                 its reaped children: the largest process, not the sum)
    setup_s      a fresh interpreter importing expcycles.cli and building the
                 parser (median of SETUP_REPEATS)

Traced (--trace 1): one untraced end-to-end job, then the workload twice
in this process with --workers 1 (sweeps cut into per-prime-block
cli.main calls, so a failing pair loses only its block): untraced, then
with the public functions of modarith, dynamics, bounds, ecdynamics and
cli wrapped in spans (see tracing.py). The three outputs must agree. It
reports the per-layer metrics of tracing.LAYER_METRICS and writes the
spans to perfbench/results/. This is a fixed amount of work; --seconds
does not apply.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; failed counts items (pairs or maps)
without a validated row. The run's record, with the environment, each
job's exit code and first stderr line, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 150

END_TO_END = {
    "rows_per_s": "1/s",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def environment(seed: int) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit, "seed": seed}


def run_process(argv: list[str], stdout, stderr) -> tuple[float, int, float]:
    """Run argv as its own process group; (wall s, exit code, peak RSS MB of the tree)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT,
                            start_new_session=True)
    timer = threading.Timer(JOB_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)  # pool workers orphaned by a killed CLI
    return wall, proc.returncode, usage.ru_maxrss / 1024


def measure_setup() -> tuple[list[float], float]:
    """(wall s of each repeat, median peak RSS MB) of a fresh interpreter that
    imports expcycles.cli and builds its parser; one unmeasured warm-up first."""
    argv = [sys.executable, "-c", "import expcycles.cli as c; c.build_parser()"]
    runs = [run_process(argv, subprocess.DEVNULL, subprocess.DEVNULL)
            for _ in range(SETUP_REPEATS + 1)][1:]
    if any(code != 0 for _, code, _ in runs):
        raise RuntimeError("expcycles.cli does not import")
    return [r[0] for r in runs], statistics.median(r[2] for r in runs)


def parse_rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


def run_cli_job(inst, scratch: Path) -> dict:
    """One end-to-end CLI job, its output kept for validation."""
    out_path, err_path = scratch / "out.jsonl", scratch / "err.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        wall, code, rss_mb = run_process([sys.executable, "-m", "expcycles.cli"] + inst.argv(),
                                         out, err)
    data = out_path.read_bytes()
    stderr = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return {"wall_s": wall, "exit_code": code, "peak_rss_mb": rss_mb,
            "stderr": stderr[0] if stderr else "", "digest": hashlib.sha256(data).hexdigest(),
            "text": data.decode()}


def run_in_process(inst, tracer=None) -> dict:
    """The workload's blocks as cli.main calls in this process, --workers 1."""
    from expcycles import cli

    pieces, codes, first_error = [], [], ""
    start = time.perf_counter()
    for item_id, argv in enumerate(inst.blocks()):
        if tracer is not None:
            tracer.item_id = item_id
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an internal error of the CLI loses this block only
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
        pieces.append(out.getvalue())
        codes.append(code)
        if code not in (0, 1):
            first_error = first_error or err.getvalue().strip().split("\n")[0]
    wall = time.perf_counter() - start
    text = "".join(pieces)
    return {"wall_s": wall, "exit_codes": sorted(set(codes)),
            "stderr": first_error, "digest": hashlib.sha256(text.encode()).hexdigest(),
            "text": text}


def check(inst, run: dict, exit_code: int, cache: dict) -> workloads.Validation:
    """Validate a run's output (popped from it) once per distinct digest and exit code."""
    text = run.pop("text")
    key = (run["digest"], exit_code)
    if key not in cache:
        cache[key] = inst.validate(parse_rows(text), exit_code)
    return cache[key]


def untraced(inst, seconds: float, scratch: Path) -> tuple[dict, dict]:
    setup_runs, _ = measure_setup()
    jobs = []
    start = time.perf_counter()
    # Start another job while the run would end at most half a job past `seconds`.
    while not jobs or (time.perf_counter() - start
                       + statistics.mean(j["wall_s"] for j in jobs) / 2 <= seconds):
        jobs.append(run_cli_job(inst, scratch))
    cache: dict = {}
    for job in jobs:
        v = check(inst, job, job["exit_code"], cache)
        job.update(valid_rows=v.valid_rows, valid_nodes=v.valid_nodes)
    errors = [e for v in cache.values() for e in v.errors]
    if len({job["digest"] for job in jobs}) > 1:
        errors.append("output differs between repeats")
    metrics = {
        "rows_per_s": statistics.median(j["valid_rows"] / j["wall_s"] for j in jobs),
        "nodes_per_s": statistics.median(j["valid_nodes"] / j["wall_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        "setup_s": statistics.median(setup_runs),
    }
    summary = {
        "correct": not errors,
        "attempted": inst.items * len(jobs),
        "failed": sum(inst.items - j["valid_rows"] for j in jobs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
    }
    record = {"jobs": jobs, "setup_runs_s": setup_runs, "errors": errors,
              "fail_frac": summary["failed"] / summary["attempted"]}
    return summary, record


def traced(inst, scratch: Path, spans_path: Path) -> tuple[dict, dict]:
    _, base_rss_mb = measure_setup()
    e2e = run_cli_job(inst, scratch)
    plain = run_in_process(inst)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced_run = run_in_process(inst, tracer)
    tracer.save(spans_path)
    totals = tracer.totals()

    cache: dict = {}
    check(inst, e2e, e2e["exit_code"], cache)
    codes = traced_run["exit_codes"]
    v = check(inst, traced_run, max(codes) if set(codes) <= {0, 1} else 2, cache)
    plain.pop("text")
    errors = [e for c in cache.values() for e in c.errors]
    if plain["digest"] != traced_run["digest"]:
        errors.append("traced output differs from the untraced in-process output")
    if e2e["exit_code"] == 0 and e2e["digest"] != traced_run["digest"]:
        errors.append("traced --workers 1 output differs from the --workers 2 output")

    graph_rss = 0.0
    if totals.get("dynamics.census_graph", {}).get("calls"):
        graph_rss = (e2e["peak_rss_mb"] - base_rss_mb) * 2**20 / (inst.p - 1)
    values = tracing.layer_metrics(
        totals, traced_wall=traced_run["wall_s"], untraced_wall=plain["wall_s"],
        e2e_wall=e2e["wall_s"], graph_rss_bytes_per_node=graph_rss,
        tasks=inst.items, items_failed=inst.items - v.valid_rows)
    summary = {
        "correct": not errors,
        "attempted": inst.items,
        "failed": inst.items - v.valid_rows,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _better) in tracing.LAYER_METRICS.items()},
    }
    record = {"end_to_end_job": e2e, "in_process": plain, "traced": traced_run,
              "baseline_rss_mb": base_rss_mb, "errors": errors, "spans": len(tracer.start),
              "functions": totals}
    return summary, record


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    why, make = workloads.WORKLOADS[name]
    inst = make(seed)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    scratch = Path(tempfile.mkdtemp(dir=RESULTS))
    try:
        if trace:
            summary, record = traced(inst, scratch, stem.with_name(stem.name + "-spans.npz"))
        else:
            summary, record = untraced(inst, seconds, scratch)
    finally:
        shutil.rmtree(scratch)
    record = {"workload": name, "why": why, "argv": inst.argv(),
              "environment": environment(seed), **summary, **record}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    jobs = record.get("jobs") or [record["end_to_end_job"]]
    print(f"{name} (seed {seed}, {'traced' if trace else 'untraced'}): "
          f"expcycles {' '.join(inst.argv())}")
    env = record["environment"]
    print(f"  {env['nproc']} CPUs ({env['cpu']}), Python {env['python']}, numpy {env['numpy']},"
          f" commit {env['commit']}")
    print(f"  {len(jobs)} end-to-end job(s), exit codes {sorted({j['exit_code'] for j in jobs})}"
          + (f", stderr: {jobs[0]['stderr']}" if jobs[0]["stderr"] else ""))
    print(f"  items {summary['attempted']}, failed {summary['failed']}"
          f" (fail_frac {summary['failed'] / summary['attempted']:.4f}),"
          f" correct {summary['correct']}")
    for error in record["errors"][:5]:
        print(f"  error: {error}")
    for metric, m in summary["metrics"].items():
        print(f"  {metric:42s} {m['value']:14.6g} {m['unit']}")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "expcycles" / "cli.py").is_file():
        print(f"perfbench: no expcycles sources at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
