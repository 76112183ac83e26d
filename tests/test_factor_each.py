"""factor_each: the batch form of factor_integer, with Brent-rho in forked workers.

Every result must equal factor_integer's, term for term, whether the rho
stages run here or in workers, and whatever the CPU count.  The workers'
lifecycle is checked from outside: a worker never outlives its parent, is
gone after Ctrl-C, never runs its parent's cleanup, and a lost worker's
terms are factored by the parent.
"""

import contextlib
import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbordyn import cli, factorint
from arbordyn.factorint import FactorBudget, factor_each, factor_integer

ROOT = Path(__file__).resolve().parents[1]
M89 = 2 ** 89 - 1
M127 = 2 ** 127 - 1
# primes of 17 to 31 bits: a product of two needs about 2^8 to 2^15 rho iterations
RHO_PRIMES = (131071, 524287, 1048573, 16777213, 2147483647)

# Terms that mix units, primes certified and probable, small factors and
# semiprimes that Brent-rho must split or give up on.
terms = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).filter(bool),
    st.sampled_from((M89, M127, -M127, 4 * M127, M89 * M127)),
    st.builds(lambda p, q, k: k * p * q, st.sampled_from(RHO_PRIMES),
              st.sampled_from(RHO_PRIMES), st.sampled_from((1, -1, 12, 3 ** 5))),
)
budgets = st.builds(FactorBudget, st.sampled_from((2, 100, 10 ** 4)),
                    st.sampled_from((1, 10, 300, 10 ** 4, 10 ** 5)), st.integers(0, 3))


@pytest.mark.parametrize("cpus", [1, 3])
@settings(max_examples=30, deadline=None)
@given(ns=st.lists(terms, max_size=6), budget=budgets)
def test_equals_factor_integer_term_for_term(cpus, ns, budget):
    with mock.patch.object(factorint, "_cpus", lambda: cpus):
        assert factor_each(ns, budget) == [factor_integer(n, budget) for n in ns]


def test_forks_one_worker_per_further_cpu_once_two_terms_need_rho(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(factorint, "_cpus", lambda: 3)
    budget = FactorBudget(100, 10 ** 5)
    hard = [p * q for p, q in zip(RHO_PRIMES, RHO_PRIMES[1:])]
    assert factor_each(hard[:1] + [M127, 97], budget)[0].cofactor == 1
    assert forks == []  # only one term needed rho
    assert factor_each(hard, budget) == [factor_integer(n, budget) for n in hard]
    assert forks == [1, 1]  # min(3 CPUs, 4 terms) - 1 workers beside this process


def test_lost_worker_terms_are_factored_here(monkeypatch, capsys, tmp_path):
    argv = ["sequence", "--a", "-98", "--n", "9", "--factor", "--rho-budget", "100000"]
    monkeypatch.setattr(factorint, "_cpus", lambda: 1)
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    parent = os.getpid()
    marker = tmp_path / "died"
    real_stage = factorint._rho_stage

    def dying(n, budget):
        if os.getpid() != parent:  # in a worker only: die in the middle of a term
            marker.write_text("x")
            os._exit(0)
        return real_stage(n, budget)

    monkeypatch.setattr(factorint, "_rho_stage", dying)
    monkeypatch.setattr(factorint, "_cpus", lambda: 3)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    assert marker.exists()


# ---------------------------------------------------------------------------
# Byte-identical output pinned to one CPU
# ---------------------------------------------------------------------------

DIGEST_SCRIPT = """
import contextlib, hashlib, importlib.util, io, os, sys
if PIN:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from arbordyn.cli import main
spec = importlib.util.spec_from_file_location("jobs", "perfbench/jobs.py")
jobs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(jobs)
for argv in jobs.README_COMMANDS + [job["argv"] for job in jobs.make_jobs("factor_heavy", 7)]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def job_digests(pin: bool) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", f"PIN = {pin}\n{DIGEST_SCRIPT}"], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_readme_and_factor_heavy_jobs_identical_on_one_cpu():
    pinned = job_digests(True)
    assert len(pinned) == 8 + 46
    assert job_digests(False) == pinned


# ---------------------------------------------------------------------------
# Worker lifecycle, from outside
# ---------------------------------------------------------------------------

# The arbordyn command with three workers beside the parent whatever the CPU
# count, so that every test below sees workers.
LAUNCH = """
import faulthandler, signal, sys
from arbordyn import cli, factorint
faulthandler.register(signal.SIGUSR1, all_threads=True)
factorint._cpus = lambda: 4
sys.exit(cli.main(sys.argv[1:]))
"""
# Terms of about 4000 bits that the default rho budget keeps busy for minutes.
LONG_RUN = ["sequence", "--a", "-246", "--n", "10", "--factor"]


def live_members(pgid: int) -> list[int]:
    """The processes of group pgid that are not zombies."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        state, _, group = stat.rsplit(")", 1)[1].split()[:3]
        if int(group) == pgid and state != "Z":
            pids.append(int(entry))
    return pids


def wait_for(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def start(argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen([sys.executable, "-c", LAUNCH, *argv], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)


def stall_report(proc: subprocess.Popen) -> str:
    """Where each live member of proc's group waits, read before the group is
    killed: its state and wchan from /proc, then its Python stacks, which
    faulthandler writes to stderr on SIGUSR1, one member at a time."""
    lines = []
    for pid in live_members(proc.pid):
        with contextlib.suppress(OSError):
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            wchan = Path(f"/proc/{pid}/wchan").read_text() or "0"
            lines.append(f"pid {pid}: state {state}, wchan {wchan}")
            os.kill(pid, signal.SIGUSR1)
            time.sleep(0.3)
    kill_group(proc.pid)
    _, err = proc.communicate()
    return "\n".join(["no exit 10 s after SIGINT", *lines, err.decode(errors="replace")])


def kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")


@needs_proc
def test_workers_leave_when_the_parent_is_killed():
    proc = start(LONG_RUN)
    try:
        time.sleep(0.5)
        assert wait_for(lambda: len(live_members(proc.pid)) > 1, 30)
        proc.kill()
        proc.wait(timeout=5)
        assert wait_for(lambda: not live_members(proc.pid), 2)
    finally:
        kill_group(proc.pid)
        proc.communicate()


@needs_proc
@pytest.mark.parametrize("to_group", [True, False])
def test_interrupt_exits_1_with_no_traceback_and_no_worker(to_group):
    proc = start(LONG_RUN)
    try:
        assert wait_for(lambda: len(live_members(proc.pid)) > 1, 30)
        if to_group:  # as Ctrl-C does
            os.killpg(proc.pid, signal.SIGINT)
        else:
            proc.send_signal(signal.SIGINT)
        try:
            out, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            pytest.fail(stall_report(proc))
        assert proc.returncode == cli.EXIT_FAIL
        assert err == b"error: interrupted\n" and out == b""
        assert wait_for(lambda: not live_members(proc.pid), 2)
    finally:
        kill_group(proc.pid)
        proc.communicate()


CLEANUP_SCRIPT = """
import atexit, sys
from arbordyn import cli, factorint
factorint._cpus = lambda: 4
atexit.register(lambda: print("atexit", file=sys.stderr))
try:
    code = cli.main(["sequence", "--a", "-98", "--n", "9", "--factor", "--rho-budget", "100000"])
finally:
    print("finally", file=sys.stderr)
sys.exit(code)
"""


def test_parent_cleanup_runs_once():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CLEANUP_SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == "finally\natexit\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["sequence", "--a", "-98", "--n", "9", "--factor", "--rho-budget", "100000"])
    assert proc.stdout == out.getvalue()
