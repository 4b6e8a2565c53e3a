#!/usr/bin/env python3
"""The addbasis benchmark: one closed-loop client calling the CLI in-process.

    python3 bench/run.py --workload flagship-verify --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/`` of the
same checkout; the workload's job list is generated from ``--seed``.  After
one untimed warm-up job the fixed job list runs round after round, each job
through ``addbasis.cli.main(argv)`` with stdout captured, until the next
round would overrun ``--seconds``.  Every job's exit code and output are
checked against the oracles in ``oracles.py``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics: spans taken from outside by ``spans.Tracer`` plus the
tracing overhead (traced minus untraced round wall time).

The last stdout line is one JSON object; a fuller record goes to
``bench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SPAWNS = 9
SETUP_CODE = "import time, addbasis.cli as c; c.build_parser(); print(time.monotonic())"


def load_cli():
    """Import ``addbasis.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "addbasis" / "cli.py").is_file():
        raise SystemExit(f"error: no addbasis sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import addbasis.cli

    if Path(addbasis.cli.__file__).resolve().parent != SRC / "addbasis":
        raise SystemExit(f"error: imported addbasis from {addbasis.cli.__file__}, not {SRC}")
    return addbasis.cli


def setup_seconds() -> list[float]:
    """Fresh interpreter spawned -> ``addbasis.cli`` imported and parser built.

    CLOCK_MONOTONIC is system-wide on Linux, so the child's reading after
    ``build_parser()`` is comparable with the parent's reading before spawn.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, check=True
        )
        out.append(float(proc.stdout) - t0)
    return out


def run_job(cli, job) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(job.argv))  # looked up per call, so a traced wrapper is seen
    return time.perf_counter() - t0, rc, out.getvalue()


def run_round(cli, workload, failures: list) -> dict:
    times = []
    failed = 0
    for job in workload.jobs:
        try:
            dt, rc, out = run_job(cli, job)
        except Exception as exc:  # a crash is a failed job, not a dead benchmark
            dt, rc, out = float("nan"), -1, ""
            message = f"raised {exc!r}"
        else:
            message = None
            try:
                job.check(rc, out)
            except Exception as exc:  # Mismatch, or output of an unexpected shape
                message = str(exc) if isinstance(exc, jobs.Mismatch) else repr(exc)
        if message is not None:
            failed += 1
            if len(failures) < 20:
                failures.append({"kind": job.kind, "argv": list(job.argv), "error": message})
        times.append(dt)
    return {"wall_s": sum(t for t in times if t == t), "job_s": times, "failed": failed}


def measure(cli, workload, seconds: float, tracer=None) -> tuple[list[dict], list[dict]]:
    """Rounds until the next would overrun ``seconds``; always at least one.

    With a tracer, rounds come in untraced/traced pairs.
    """
    rounds: list[dict] = []
    failures: list[dict] = []
    step: list[float] = []
    start = time.perf_counter()
    while not step or time.perf_counter() - start + statistics.median(step) <= seconds:
        t0 = time.perf_counter()
        rounds.append(dict(run_round(cli, workload, failures), traced=False))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                rec = run_round(cli, workload, failures)
            finally:
                tracer.uninstall()
            rec.update(
                traced=True,
                layers=tracer.by_name(),
                work=dict(tracer.work),
                root_s=tracer.root_s(),
                counter_s=tracer.counter_s,
                spans=[[n, p, *v] for (n, p), v in sorted(tracer.spans.items(), key=str)],
            )
            rounds.append(rec)
        step.append(time.perf_counter() - t0)
    return rounds, failures


def end_to_end(rounds: list[dict], setup: list[float]) -> dict[str, float]:
    # Each job's time is its median over rounds, so the percentiles describe
    # the job list and not the worst noise burst of the run.
    job_s = [statistics.median(times) for times in zip(*(r["job_s"] for r in rounds))]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "job_s_p50": statistics.median(job_s),
        "job_s_p90": statistics.quantiles(job_s, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(rounds: list[dict], names: list[str]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = {
        "bench.root_coverage": sum(r["root_s"] for r in traced) / sum(r["wall_s"] for r in traced),
        "bench.trace_overhead_s": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain),
    }
    for name in names:
        if name in values:
            continue
        layer, stat = name.rsplit(".", 1)
        if stat in ("calls", "self_s"):
            per_round = [r["layers"].get(layer, {}).get(stat, 0) for r in traced]
        else:
            per_round = [r["work"].get(name, 0) for r in traced]
        values[name] = statistics.median(per_round)
    return values


def meta(seed: int) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        git_hash = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_hash = None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_hash": git_hash,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    workload = jobs.WORKLOADS[args.workload](args.seed)
    setup = [] if args.trace else setup_seconds()
    run_job(cli, workload.warmup)
    tracer = spans.Tracer() if args.trace else None
    rounds, failures = measure(cli, workload, args.seconds, tracer)

    attempted = sum(len(r["job_s"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        declared = spec["per_layer"]
        values = per_layer(rounds, [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        values = end_to_end(rounds, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta(args.seed),
        "metrics": metrics,
        "failed_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_s": setup,
        "jobs": [[job.kind, *job.argv] for job in workload.jobs],
        "rounds": rounds,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}: {len(rounds)} rounds of {len(workload.jobs)} jobs; {out.relative_to(ROOT)}")
    print(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for f in failures[:5]:
        print(f"  FAILED {f['kind']}: {f['error']}  argv={f['argv']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
