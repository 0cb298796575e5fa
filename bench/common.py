"""Workload table, session records, statistics and child-process helpers.

Imports only the standard library, so the launcher can pin the BLAS
thread counts before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIST = "example1:12"
CHILD_TIMEOUT_S = 120
SETUP_PROBES = 3
IMPORT_PROBES = 3

# (epsilon, beta0, ell) of the ROADMAP reference parameter sets
PARAMS_A = (0.05, 0.0, 4)
PARAMS_C = (0.01, 0.05, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    params: tuple
    strategies: tuple = ()  # trial i uses strategies[i % len]; empty = honest
    cli: bool = False
    digest_trials: int = 32  # every run completes at least this many sessions


WORKLOADS = {
    w.name: w
    for w in (
        Workload("honest-A", PARAMS_A, digest_trials=64),
        Workload("noisy-C", PARAMS_C),
        Workload("tamper-C", PARAMS_C, ("intercept-resend/random-basis", "flip-c/0")),
        Workload("cold-cli", PARAMS_A, cli=True, digest_trials=2),
    )
}


@dataclass(frozen=True)
class Trial:
    index: int
    strategy: str  # "" for an honest session
    sent: int
    omega: int
    message: int | None
    reason: str
    store_s: float
    retrieve_s: float
    attack_s: float
    session_s: float

    @property
    def ok(self) -> bool:
        """Honest sessions return the sent message; attacked ones never a wrong one."""
        if not self.strategy:
            return self.omega == 1 and self.message == self.sent
        return not (self.omega == 1 and self.message != self.sent)


def outcome_digest(trials: list[Trial]) -> str:
    """SHA-256 over (trial, omega, abort_reason, message) of the given trials."""
    h = hashlib.sha256()
    for t in trials:
        h.update(f"{t.index},{t.omega},{t.reason},{t.message}\n".encode())
    return h.hexdigest()


def session_check(trials: list[Trial]) -> tuple[str, bool, str]:
    bad = [t.index for t in trials if not t.ok]
    return ("sessions", not bad, f"{len(bad)} of {len(trials)} failed, first {bad[:5]}")


def p50(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    return float(statistics.quantiles(values, n=10)[-1]) if len(values) > 1 else float(values[0])


def child_env(tmp: Path) -> dict:
    """Environment for every child: pinned BLAS threads, cache in the run's temp dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TAMPERSTORE_CACHE"] = str(tmp / "cache")
    env.pop("TAMPERSTORE_OUT", None)
    return env


def run_child(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def setup_probes(params: tuple, env: dict) -> list[dict]:
    """Cold set-up (import + prefix code + derive) in fresh processes, one at a time."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = run_child(
            [sys.executable, str(BENCH / "setup_probe.py"), *map(str, params)], env
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _importtime_tree(text: str) -> list:
    """Parse ``-X importtime`` output into (name, self_us, cumulative_us, children)."""
    pending: dict[int, list] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, cum_us, label = line.split("|", 2)
        self_us = head[len("import time:"):]
        level = (len(label) - len(label.lstrip(" ")) - 1) // 2
        node = (label.strip(), int(self_us), int(cum_us), pending.pop(level + 1, []))
        pending.setdefault(level, []).append(node)
    return pending.get(0, [])


def import_breakdown(env: dict) -> dict:
    """Median over fresh processes of ``python -X importtime -c 'import tamperstore'``.

    tamperstore_ms is the package's cumulative import time; scipy_ms the
    cumulative time of scipy modules first pulled in under it; deps_ms the
    part of tamperstore_ms spent outside tamperstore's own modules.
    """
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import tamperstore"], env)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        root = next(n for n in _importtime_tree(proc.stderr) if n[0] == "tamperstore")
        own_us = 0
        scipy_us = 0
        stack = [root]
        while stack:
            name, self_us, cum_us, children = stack.pop()
            if name == "scipy" or name.startswith("scipy."):
                scipy_us += cum_us
                continue
            if name == "tamperstore" or name.startswith("tamperstore."):
                own_us += self_us
            stack.extend(children)
        samples.append((root[2] / 1e3, scipy_us / 1e3, (root[2] - own_us) / 1e3))
    return {
        "tamperstore_ms": p50([s[0] for s in samples]),
        "scipy_ms": p50([s[1] for s in samples]),
        "deps_ms": p50([s[2] for s in samples]),
    }


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance() -> dict:
    """Where a result came from: machine, interpreter, libraries and source."""
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }
