#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload.

    python3 bench/smoke.py [--seconds 1]

For each workload ``run.py`` knows (those of BENCHMARK.json, and cold-cli)
it runs ``run.py`` twice untraced and once traced at one seed, and checks
that:

- each run exits 0 and its last line has exactly ``correct``,
  ``attempted``, ``failed`` and ``metrics``, with ``correct`` true and
  ``failed`` 0;
- the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) names of BENCHMARK.json, each a finite number with its unit;
- the report line says the correctness gate passed and lists the checks
  that apply to the workload;
- every run prints the same ``outcome_digest``.

Last, it runs ``run.py`` in a directory holding only BENCHMARK.json and
``bench/`` and checks that it fails without printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7

ACCEPTANCE = {"acceptance[intercept-resend/random-basis]", "acceptance[flip-c/0]"}
EXPECTED_CHECKS = {
    "honest-A": {"sessions", "cross-check[correctness]"},
    "noisy-C": {"sessions", "cross-check[correctness]"},
    "tamper-C": {"sessions", "cross-check[intercept-resend/random-basis]",
                 "cross-check[flip-c/0]"} | ACCEPTANCE,
    "cold-cli": {"sessions"},
}
TRACED_CHECKS = {"sessions", "traced digest == untraced digest", "wrappers removed"}
REPORT_KEYS = {
    "honest-A": {"latency", "failure_rate", "setup_probes"},
    "noisy-C": {"latency", "failure_rate", "setup_probes"},
    "tamper-C": {"latency", "failure_rate", "setup_probes", "attack_p50_ms"},
    "cold-cli": {"latency", "failure_rate", "setup_probes", "cli_store_p50_s",
                 "cli_retrieve_p50_s", "cli_p90_s"},
}
WORKLOAD_SPECIFIC = {
    "linear_code.syn_dec_us", "randomizer.derandomize_us", "randomizer.decompress_us",
    "qsim.noise_us", "qsim.eve_us", "import.scipy_ms", "protocol.accounted_pct",
    "traced_sessions",
}


def run(cwd: Path, workload: str, seconds: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(spec: dict, workload: str, seconds: str, trace: int) -> str:
    proc = run(ROOT, workload, seconds, trace)
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {report['checks']}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, label
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], f"{label}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), label
    if not trace:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] > 0, f"{label}: {metric['name']}"
    assert report["gate"] == "passed", label
    names = {c["name"] for c in report["checks"]}
    if trace:
        expected = TRACED_CHECKS | (ACCEPTANCE if workload == "tamper-C" else set())
        if workload != "cold-cli":
            expected |= {"cli probe"}
    else:
        expected = EXPECTED_CHECKS[workload]
    assert names == expected, f"{label}: checks {sorted(names)}"
    assert all(c["ok"] for c in report["checks"]), label
    if trace:
        assert set(report["workload_specific"]) == WORKLOAD_SPECIFIC, label
        assert report["untraced_digest"] == report["outcome_digest"], label
    else:
        assert REPORT_KEYS[workload] <= set(report), label
        assert report["failure_rate"] == 0 or workload == "tamper-C", label
    for key in ("nproc", "python", "numpy", "scipy", "source_sha256"):
        assert key in report["provenance"], f"{label}: provenance {key}"
    print(f"ok  {label}: {result['attempted']} sessions, digest {report['outcome_digest'][:16]}",
          flush=True)
    return report["outcome_digest"]


def check_refuses_without_sources() -> None:
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".bench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(BENCH, scratch / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(scratch, "honest-A", "1", 0)
        assert proc.returncode != 0, "ran without src/tamperstore"
        assert '"metrics"' not in proc.stdout, "printed a result without src/tamperstore"
        print("ok  refuses to run without src/tamperstore", flush=True)
    finally:
        shutil.rmtree(scratch)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it


def main() -> int:
    parser = argparse.ArgumentParser(description="short run of every benchmark workload")
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        digests = {check_run(spec, workload, args.seconds, trace) for trace in (0, 0, 1)}
        assert len(digests) == 1, f"{workload}: digests differ between runs: {digests}"
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    check_refuses_without_sources()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
