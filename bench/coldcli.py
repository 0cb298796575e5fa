"""cold-cli workload: every session is ``python -m tamperstore.cli store``
followed by ``retrieve`` in fresh processes, one process at a time, each
writing into its own directory under the run's temp dir.

Traced sessions run ``cli_child.py`` instead, which installs the layer
wrappers inside the child and writes its spans to a file this process
reads back.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time
from pathlib import Path

from tamperstore.experiments import parse_dist

from common import BENCH, DIST, Trial, Workload, run_child
from inprocess import direct_call, prepare_trial

_OUTCOME = re.compile(r"omega = (\d+), abort_reason = (\w+), message = (\S+)")


def warm_up(env: dict) -> None:
    """Compile bytecode and fill the page cache before anything is timed."""
    proc = run_child([sys.executable, "-c", "import tamperstore.cli"], env)
    if proc.returncode != 0:
        raise RuntimeError(f"warm-up failed: {proc.stderr.strip()[-500:]}")


def _parse_retrieve(stdout: str) -> tuple[int, str, int | None]:
    match = _OUTCOME.search(stdout)
    if match is None:
        return 0, "unparsed", None
    omega, reason, message = match.groups()
    return int(omega), reason, None if message == "None" else int(message)


def run_sessions(workload: Workload, seed: int, seconds: float, tmp: Path, env: dict,
                 tracer=None):
    """Run CLI sessions for ``seconds`` (and at least the digest count).

    Returns the trials, the loop's wall time and the wrappers any traced
    child reported it could not remove.
    """
    epsilon, beta0, ell = workload.params
    dist = parse_dist(DIST)
    call = tracer.call if tracer else direct_call
    trials = []
    left_patched = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < workload.digest_trials or time.perf_counter() < deadline:
        if tracer:
            tracer.session = index
        rng, message = call("experiments.trial_prep", prepare_trial, seed, index, dist)
        store_seed, retrieve_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
        out = tmp / f"session{index}"
        commands = (
            ["store", "--epsilon", repr(epsilon), "--ber", repr(beta0), "--ell", str(ell),
             "--dist", DIST, "--message", str(message), "--seed", str(store_seed),
             "--out", str(out)],
            ["retrieve", "--seed", str(retrieve_seed), "--out", str(out)],
        )
        times, procs = [], []
        for command in commands:
            spans_path = tmp / f"spans{index}-{command[0]}.json"
            if tracer:
                argv = [sys.executable, str(BENCH / "cli_child.py"), str(spans_path),
                        str(index), "--", *command]
            else:
                argv = [sys.executable, "-m", "tamperstore.cli", *command]
            t0 = time.perf_counter()
            procs.append(run_child(argv, env))
            times.append(time.perf_counter() - t0)
            if tracer and spans_path.exists():
                exported = json.loads(spans_path.read_text())
                left_patched.extend(exported["left_patched"])
                tracer.absorb(exported)
                spans_path.unlink()
        if all(p.returncode == 0 for p in procs):
            omega, reason, got = _parse_retrieve(procs[1].stdout)
        else:
            omega, reason, got = 0, "exit", None
        trials.append(Trial(index, "", message, omega, got, reason, store_s=times[0],
                            retrieve_s=times[1], attack_s=0.0, session_s=sum(times)))
        shutil.rmtree(out, ignore_errors=True)
        index += 1
    return trials, time.perf_counter() - start, left_patched

