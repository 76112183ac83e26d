"""Benchmark of the arbordyn CLI: seeded workloads, checked outputs, layer trace.

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the program is run from ``src/`` as it is, one
process per job, in a closed loop with one client: a job starts only after
the previous one has exited.  See perfbench/README.md for the workloads,
the metrics and the failures known at the baseline.

--trace 0 measures the end-to-end metrics: set-up is repeated and its median
reported, then the job list is run in passes until --seconds is used up
(always at least one whole pass); a job's time is the best of its passes.
--trace 1 runs the README commands and the job list job by job, untraced
and then under perfbench/tracing.py, checks that both give the same stdout
bytes, and reports the per-layer metrics.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Details,
per-job times and the scaling curves go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import jobs as joblib  # noqa: E402
import tracing  # noqa: E402

SETUP_REPS = 9
IMPORT_PROBES = 5
# Whole-run cap so that every run ends well inside 180 s; a job that cannot
# start before it is charged as failed.
RUN_CAP_S = 150.0
OUT_DIR = ROOT / ".perfbench_out"
LAUNCH = "import sys; from arbordyn.cli import main; sys.exit(main())"
# Per-layer metrics measured by the runner rather than from spans.
RUN_LAYER_METRICS = ("cli.import_s", "cli.emit_bytes", "proc.peak_rss_mb", "trace.overhead_frac")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Jobs never choose threads, the digit limit stays the interpreter default,
    # and bytecode caches are written next to the sources, as for an install.
    for var in ("ARBORDYN_THREADS", "PYTHONINTMAXSTRDIGITS", "PYTHONDONTWRITEBYTECODE",
                "PYTHONPYCACHEPREFIX", "PYTHONOPTIMIZE", "PYTHONUNBUFFERED"):
        env.pop(var, None)
    return env


def spawn(cmd: list[str], env: dict, timeout: float):
    """Run cmd to its end: (exit code, stdout, stderr, wall s, timed out, peak RSS kB).

    The child is reaped with wait4 so that its own peak RSS is known; output
    goes to files, so a large payload cannot stall on a full pipe.
    """
    with tempfile.TemporaryFile(dir=OUT_DIR) as fo, tempfile.TemporaryFile(dir=OUT_DIR) as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=str(ROOT))
        done = []
        waiter = threading.Thread(
            target=lambda: done.append((os.wait4(proc.pid, 0), time.perf_counter())))
        waiter.start()
        waiter.join(timeout)
        timed_out = waiter.is_alive()
        if timed_out:
            os.kill(proc.pid, signal.SIGKILL)
            waiter.join()
        (_, status, usage), t1 = done[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return proc.returncode, fo.read(), fe.read(), t1 - t0, timed_out, usage.ru_maxrss


class Runner:
    def __init__(self, workload: str, started: float):
        self.limit = joblib.JOB_LIMIT_S[workload]
        self.started = started
        self.env = child_env()
        self.checked: dict[tuple, list[str]] = {}

    def remaining(self) -> float:
        return RUN_CAP_S - (time.perf_counter() - self.started)

    def run(self, job: dict, trace_file: Path | None = None) -> dict:
        """Run one job to completion and classify it."""
        timeout = min(self.limit, self.remaining())
        if timeout <= 0:
            return {"wall": 0.0, "rc": None, "status": "fail", "reason": "run time cap",
                    "incorrect": False, "digest": None, "bytes": 0, "rss_kb": 0}
        if trace_file is None:
            cmd = [sys.executable, "-c", LAUNCH, *job["argv"]]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(trace_file), str(job["id"]),
                   "--", *job["argv"]]
        rc, out, err, wall, timed_out, rss_kb = spawn(cmd, self.env, timeout)
        rec = {"wall": wall, "rc": rc, "digest": hashlib.sha256(out).hexdigest(),
               "bytes": len(out), "rss_kb": rss_kb, "incorrect": False, "status": "ok",
               "reason": None}
        stderr = err.decode(errors="replace")
        if timed_out:
            rec.update(status="fail", reason="timeout")
        elif rc not in checker.DOCUMENTED_EXIT_CODES:
            rec.update(status="fail", reason=f"undocumented exit code {rc}")
        elif checker.TRACEBACK_MARK in stderr:
            last = stderr.strip().splitlines()[-1][:160]
            rec.update(status="fail", reason=f"traceback (exit {rc}): {last}")
        else:
            key = (job["id"], rec["digest"], rc)
            if key not in self.checked:
                self.checked[key] = checker.check_job(job, rc, out.decode(errors="replace"), stderr)
            problems = self.checked[key]
            if problems and not out.strip():
                # an error exit on valid input is a failure, not a wrong answer
                last = (stderr.strip().splitlines() or [""])[-1][:160]
                rec.update(status="fail", reason=f"refused (exit {rc}): {last}")
            elif problems:
                rec.update(status="fail", reason="check: " + "; ".join(problems), incorrect=True)
        return rec

    def charged(self, rec: dict) -> float:
        """A failed job costs its own time plus the per-job limit."""
        return rec["wall"] if rec["status"] == "ok" else rec["wall"] + self.limit


def mark_nondeterminism(execs: dict[int, list[dict]]) -> None:
    """Executions whose stdout differs from the job's first run are failures."""
    for runs in execs.values():
        first = next((r["digest"] for r in runs if r["digest"] is not None), None)
        for r in runs:
            if r["digest"] is not None and r["digest"] != first and r["status"] == "ok":
                r.update(status="fail", reason="stdout differs between runs", incorrect=True)


def setup(workload: str, seed: int, runner: Runner) -> tuple[list[dict], list[float], dict]:
    """Input generation plus one warm-up job, repeated with each README command in turn.

    Returns the jobs, the set-up times and the warm-up records by job id.
    """
    times, warm = [], {}
    warmups = joblib.warmup_jobs()
    jobs = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        jobs = joblib.make_jobs(workload, seed)
        job = warmups[rep % len(warmups)]
        warm.setdefault(job["id"], []).append(runner.run(job))
        times.append(time.perf_counter() - t0)
    mark_nondeterminism(warm)
    return jobs, times, warm


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it, and its value."""
    xs = sorted(values)
    n = len(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def curves(jobs: list[dict], per_job: dict[int, float]) -> dict:
    """Wall time keyed by command, then a-or-map, then depth-or-n."""
    out: dict = {}
    for job in jobs:
        cmd, param, level = job["key"]
        out.setdefault(cmd, {}).setdefault(param, {})[str(level)] = round(per_job[job["id"]], 6)
    return out


def measure(workload: str, seed: int, seconds: float, started: float) -> dict:
    runner = Runner(workload, started)
    jobs, setup_times, warm = setup(workload, seed, runner)
    execs: dict[int, list[dict]] = {j["id"]: [] for j in jobs}
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        t0 = time.perf_counter()
        for job in jobs:
            execs[job["id"]].append(runner.run(job))
        passes += 1
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    mark_nondeterminism(execs)
    # best of the passes: other processes on the machine only ever slow a job down
    per_job = {jid: min(runner.charged(r) for r in runs) for jid, runs in execs.items()}
    values = list(per_job.values())
    attempted = sum(len(r) for r in execs.values())
    failed = sum(1 for runs in execs.values() for r in runs if r["status"] != "ok")
    pct, tail_v = tail(values)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "p50_s": (statistics.median(values), "s"),
        "tail_s": (tail_v, "s"),
        "mean_s": (statistics.fmean(values), "s"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    incorrect = any(r["incorrect"] for runs in (*execs.values(), *warm.values()) for r in runs)
    detail = {
        "passes": passes, "jobs": len(jobs), "tail_percentile": pct,
        "fail_frac": failed / attempted, "job_limit_s": runner.limit,
        "setup_times_s": setup_times,
        "per_job": [{"id": j["id"], "argv": j["argv"], "key": j["key"], "charged_s": per_job[j["id"]],
                     "runs": execs[j["id"]]} for j in jobs],
        "curves": curves(jobs, per_job),
    }
    return {"correct": not incorrect, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def _probe(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_traced(workload: str, seed: int, started: float, out_dir: Path) -> dict:
    runner = Runner(workload, started)
    jobs, _, warm = setup(workload, seed, runner)
    jobs = joblib.warmup_jobs() + jobs
    bare = statistics.median(_probe("pass", runner.env) for _ in range(IMPORT_PROBES))
    imported = statistics.median(_probe("import arbordyn.cli", runner.env) for _ in range(IMPORT_PROBES))
    span_file = out_dir / f"spans-{workload}-seed{seed}.job.json"
    plain, traced, span_docs = {}, {}, []
    agg = tracing.Aggregate()
    # untraced then traced, job by job, so that drift in machine speed hits both
    for job in jobs:
        plain[job["id"]] = runner.run(job)
        span_file.unlink(missing_ok=True)
        traced[job["id"]] = runner.run(job, trace_file=span_file)
        if span_file.exists():
            doc = json.loads(span_file.read_text())
            agg.add(doc)
            span_docs.append(doc)
    span_file.unlink(missing_ok=True)
    mark_nondeterminism({jid: [plain[jid], traced[jid]] for jid in plain})
    runs = list(plain.values()) + list(traced.values())
    attempted, failed = len(runs), sum(1 for r in runs if r["status"] != "ok")
    metrics = tracing.layer_metrics(agg)
    metrics["cli.import_s"] = (imported - bare, "s")
    metrics["cli.emit_bytes"] = (sum(r["bytes"] for r in plain.values()), "bytes")
    metrics["proc.peak_rss_mb"] = (max(r["rss_kb"] for r in plain.values()) / 1024.0, "MB")
    plain_wall = sum(r["wall"] for r in plain.values())
    metrics["trace.overhead_frac"] = (sum(r["wall"] for r in traced.values()) / plain_wall - 1.0, "ratio")
    # all spans of the pass, written once at the end: job, name, start, end, parent
    with open(out_dir / f"spans-{workload}-seed{seed}.json", "w") as fh:
        json.dump([{"job": d["job"], "names": d["names"], "spans": d["spans"]} for d in span_docs], fh)
    incorrect = any(r["incorrect"] for r in runs) or any(
        r["incorrect"] for recs in warm.values() for r in recs)
    detail = {
        "jobs": len(jobs),
        "per_job": [{"id": j["id"], "argv": j["argv"], "key": j["key"],
                     "untraced": plain[j["id"]], "traced": traced[j["id"]]} for j in jobs],
        "curves": curves(jobs, {jid: r["wall"] for jid, r in plain.items()}),
    }
    return {"correct": not incorrect, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def report(workload: str, seed: int, res: dict, trace: int) -> None:
    d = res["detail"]
    print(f"== {workload} seed={seed} trace={trace}: {d['jobs']} jobs, "
          f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
    if not trace:
        print(f"   passes {d['passes']}, per-job limit {d['job_limit_s']} s, "
              f"fail_frac {d['fail_frac']:.4f}, tail_s is p{d['tail_percentile']:.1f} "
              f"of {d['jobs']} per-job times")
    for name, (value, unit) in res["metrics"].items():
        print(f"   {name:48s} {value:14.6f} {unit}")
    reasons: dict[str, int] = {}
    examples: dict[str, str] = {}
    for pj in d["per_job"]:
        for r in pj.get("runs", [pj.get("untraced"), pj.get("traced")]):
            if r and r["status"] != "ok":
                short = r["reason"].split(":")[0]
                reasons[short] = reasons.get(short, 0) + 1
                examples.setdefault(short, " ".join(pj["argv"]) + " -> " + r["reason"][:200])
    for short, count in sorted(reasons.items()):
        print(f"   failures: {count} x {short}; e.g. {examples[short]}")


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: int, started: float) -> dict:
    """Measure one workload, print its report and write its result file."""
    if trace:
        res = measure_traced(workload, seed, started, OUT_DIR)
    else:
        res = measure(workload, seed, seconds, started)
    report(workload, seed, res, trace)
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": as_json(res["metrics"]), **res["detail"],
    }
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=joblib.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "arbordyn" / "cli.py").is_file():
        print(f"error: no arbordyn sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload != "all":
        res = run_workload(args.workload, args.seed, args.seconds, args.trace, started)
        print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": as_json(res["metrics"])}))
        return 0
    # every workload, untraced then traced, each with its own time cap
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in joblib.WORKLOADS:
        for trace in (0, 1):
            res = run_workload(wl, args.seed, args.seconds, trace, time.perf_counter())
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for k, v in as_json(res["metrics"]).items():
                total["metrics"][f"{wl}.{k}"] = v
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
