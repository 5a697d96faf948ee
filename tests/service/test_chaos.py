"""Unified chaos harness: the daemon under every injected fault class.

These tests arm :mod:`repro._faults` specs (``REPRO_FAULT_INJECT`` +
a shared ``REPRO_FAULT_STATE`` counter directory, so ``@count`` caps
hold across the daemon's worker processes) and drive a real
``python -m repro serve`` subprocess through each fault mode at the
two service sites:

* ``service:<family>`` — inside a shard worker process, per request;
* ``frontend:<op>`` — on the asyncio event loop, per admission.

The invariants pinned here are the PR 9 acceptance criteria: the
daemon keeps serving under every fault class, no journaled request is
ever lost (faulted answers stay *pending* and a drain completes them),
and a SIGKILL of a chaos-wedged daemon is equivalent to a clean run
after ``--resume --drain-exit``.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.parallel.journal import Journal
from repro.service.client import SocketClient

BENCH = "3-5 RNS"
SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def daemon_env(tmp_path, fault=None, **extra):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_FAULT_INJECT", None)
    if fault is not None:
        state = tmp_path / "fault-state"
        state.mkdir(exist_ok=True)
        env["REPRO_FAULT_INJECT"] = fault
        env["REPRO_FAULT_STATE"] = str(state)
    env.update(extra)
    return env


def start_daemon(tmp_path, *args, env=None):
    sock = tmp_path / "svc.sock"
    sock.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(sock), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=tmp_path,
        env=env or daemon_env(tmp_path),
    )
    deadline = time.monotonic() + 30
    while not sock.exists():
        if proc.poll() is not None:
            out = proc.stdout.read().decode()
            raise AssertionError(f"daemon died on start:\n{out}")
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("daemon never created its socket")
        time.sleep(0.05)
    return proc, sock


def process_alive(pid):
    """True while ``pid`` runs (a zombie left for init counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def stop_daemon(proc, sock):
    if proc.poll() is None:
        try:
            with SocketClient(sock, timeout=10) as client:
                client.call("shutdown")
        except Exception:
            proc.kill()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def drain(tmp_path, journal, env=None):
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--journal", str(journal), "--resume", "--drain-exit",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=env or daemon_env(tmp_path),
    )


class TestWorkerSiteFaults:
    """Every fault mode at ``service:rns``, one real daemon each.

    ``survives_via`` is how the daemon absorbs the fault: ``retry``
    (worker dies, is rebuilt, and the re-journaled attempt succeeds —
    the client still gets ``ok``) or ``answer`` (the fault surfaces as
    a structured engine-error reply and the worker stays up).
    """

    @pytest.mark.parametrize(
        "mode,survives_via,args,extra_env",
        [
            ("crash", "retry", (), {}),
            ("pickle", "retry", (), {}),
            ("hang", "retry", ("--request-timeout", "1"),
             {"REPRO_FAULT_HANG_S": "60"}),
            ("raise", "answer", (), {}),
            ("oom", "answer", (), {}),
            ("slow", "ok", (), {"REPRO_FAULT_SLOW_S": "0.3"}),
        ],
        ids=["crash", "pickle", "hang", "raise", "oom", "slow"],
    )
    def test_daemon_keeps_serving(
        self, tmp_path, mode, survives_via, args, extra_env
    ):
        journal = tmp_path / "svc.journal"
        env = daemon_env(tmp_path, fault=f"{mode}=service:rns@1", **extra_env)
        proc, sock = start_daemon(
            tmp_path, "--workers", "2", "--journal", str(journal), *args,
            env=env,
        )
        try:
            with SocketClient(sock, timeout=120) as client:
                first = client.call(
                    "width_reduce", {"benchmark": BENCH}, check=False
                )
                stats = client.call("stats", check=False)["result"]
                if survives_via in ("retry", "ok"):
                    assert first["ok"], first
                    restarts = stats["workers"]["processes"]["rns"]["restarts"]
                    assert restarts == (1 if survives_via == "retry" else 0)
                    if mode == "slow":
                        assert first["meta"]["wall_s"] >= 0.3
                else:
                    assert first["ok"] is False
                    expected = {"raise": "FaultInjected", "oom": "MemoryError"}
                    assert first["error"]["type"] == expected[mode]
                # The daemon is intact either way: the breaker closed
                # again (or never opened) and fresh work still serves.
                breaker = stats["workers"]["breakers"].get("rns", {})
                assert breaker.get("state", "closed") == "closed"
                again = client.call(
                    "width_reduce",
                    {"benchmark": BENCH, "sift": False},
                    check=False,
                )
                assert again["ok"], again
        finally:
            stop_daemon(proc, sock)
        assert proc.wait(timeout=30) == 0

        # No journaled request lost: ok answers have result records; a
        # faulted *answer* stays pending and the drain completes it
        # (the fault state dir remembers the @1 cap, so it cannot
        # re-fire during the drain).
        with Journal(journal, resume=True) as j:
            pending = {rec["key"] for rec in j.pending()}
        if survives_via == "answer":
            assert len(pending) == 1
            drained = drain(tmp_path, journal, env=env)
            assert drained.returncode == 0, drained.stderr
            assert "drained 1" in drained.stdout
            with Journal(journal, resume=True) as j:
                assert j.pending() == []
        else:
            assert pending == set()


class TestFrontendSiteFaults:
    def test_raise_on_the_event_loop_answers_structured_error(self, tmp_path):
        """A fault on the asyncio front door must answer, not kill the
        loop — and it fires *before* the journal write, so nothing is
        recorded for a request that was never admitted."""
        journal = tmp_path / "svc.journal"
        env = daemon_env(tmp_path, fault="raise=frontend:width_reduce@1")
        proc, sock = start_daemon(
            tmp_path, "--journal", str(journal), env=env
        )
        try:
            with SocketClient(sock) as client:
                doc = client.call(
                    "width_reduce", {"benchmark": BENCH}, check=False
                )
                assert doc["ok"] is False
                assert doc["error"]["type"] == "FaultInjected"
                assert client.call("ping", check=False)["ok"]
                again = client.call(
                    "width_reduce", {"benchmark": BENCH}, check=False
                )
                assert again["ok"], again
        finally:
            stop_daemon(proc, sock)
        with Journal(journal, resume=True) as j:
            assert len(j.results()) == 1  # only the successful retry

    def test_abort_kills_the_daemon_like_sigkill(self, tmp_path):
        """``abort`` is the whole-process kill: the daemon dies with
        exit code 32 mid-request, clients see the connection drop, and
        a restart serves normally."""
        env = daemon_env(tmp_path, fault="abort=frontend:width_reduce@1")
        proc, sock = start_daemon(tmp_path, env=env)
        client = SocketClient(sock)
        client.send(
            {"id": "x", "op": "width_reduce", "params": {"benchmark": BENCH}}
        )
        assert proc.wait(timeout=30) == 32
        client.close()
        # The @1 cap is spent (shared state dir): the restart is clean.
        proc2, sock2 = start_daemon(tmp_path, env=env)
        try:
            with SocketClient(sock2) as c2:
                assert c2.call(
                    "width_reduce", {"benchmark": BENCH}, check=False
                )["ok"]
        finally:
            stop_daemon(proc2, sock2)


class TestKillEquivalenceUnderChaos:
    def test_sigkill_wedged_daemon_drains_to_clean_results(self, tmp_path):
        """SIGKILL a daemon whose worker is hanging on an injected
        fault: ``--resume --drain-exit`` re-executes the journaled
        request and its results equal an uninterrupted run's."""
        query = {"id": "a", "op": "width_reduce", "params": {"benchmark": BENCH}}

        kill_journal = tmp_path / "killed.journal"
        env = daemon_env(
            tmp_path, fault="hang=service:rns@1", REPRO_FAULT_HANG_S="10"
        )
        proc, sock = start_daemon(
            tmp_path, "--workers", "2", "--journal", str(kill_journal), env=env
        )
        client = SocketClient(sock)
        client.send(query)  # enqueue; the worker will wedge on it
        deadline = time.monotonic() + 30
        while True:
            text = (
                kill_journal.read_text() if kill_journal.exists() else ""
            )
            if '"type":"attempt"' in text:
                break
            assert time.monotonic() < deadline, "attempt never journaled"
            time.sleep(0.02)
        with SocketClient(sock) as probe:
            workers = probe.call("stats")["result"]["workers"]["processes"]
        worker_pids = [w["pid"] for w in workers.values()]
        assert worker_pids
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        killed_at = time.monotonic()
        client.close()

        # Drain with no fault armed: the journaled request completes.
        drained = drain(tmp_path, kill_journal)
        assert drained.returncode == 0, drained.stderr
        assert "drained 1" in drained.stdout

        clean_journal = tmp_path / "clean.journal"
        proc2, sock2 = start_daemon(
            tmp_path, "--journal", str(clean_journal)
        )
        try:
            with SocketClient(sock2) as c2:
                reply = c2.call(query["op"], query["params"], check=False)
                assert reply["ok"], reply
        finally:
            stop_daemon(proc2, sock2)

        with Journal(kill_journal, resume=True) as jk:
            assert jk.pending() == []
            killed = {k: r.result for k, r in jk.results().items()}
        with Journal(clean_journal, resume=True) as jc:
            clean = {k: r.result for k, r in jc.results().items()}
        assert killed == clean
        assert len(killed) == 1

        # The killed daemon's workers exit on their own: the wedged one
        # once its 10 s hang ends and its pipe to the daemon is closed.
        try:
            while any(map(process_alive, worker_pids)):
                assert time.monotonic() < killed_at + 30, (
                    f"worker(s) {worker_pids} outlived the killed daemon"
                )
                time.sleep(0.1)
        finally:
            for pid in filter(process_alive, worker_pids):
                os.kill(pid, signal.SIGKILL)


class TestDeadlineUnderChaos:
    def test_slow_fault_trips_deadline_worker_stays_reusable(self, tmp_path):
        """A ``slow`` fault manufactures an expensive query; its
        ``deadline_ms`` turns into a wedge-terminate (the injected
        sleep never reaches a governor checkpoint), the daemon rebuilds
        the worker, and the family keeps serving."""
        env = daemon_env(
            tmp_path, fault="slow=service:rns@1", REPRO_FAULT_SLOW_S="30"
        )
        proc, sock = start_daemon(tmp_path, "--workers", "2", env=env)
        try:
            with SocketClient(sock, timeout=120) as client:
                t0 = time.monotonic()
                doc = client.call(
                    "width_reduce",
                    {"benchmark": BENCH},
                    deadline_ms=1000,
                    check=False,
                )
                wall = time.monotonic() - t0
                assert doc["ok"] is False, doc
                assert wall < 29, "the 30s injected sleep was cut short"
                again = client.call(
                    "width_reduce", {"benchmark": BENCH}, check=False
                )
                assert again["ok"], again
        finally:
            stop_daemon(proc, sock)
        assert proc.wait(timeout=30) == 0
