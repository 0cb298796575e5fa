"""Command-line surface.

Subcommands: params, store, retrieve, simulate, attack-support, rates,
selftest.  Exit status 0 on success, 1 on usage or configuration errors,
2 when selftest finds a bound violation.  The attack lab and the
experiment harness are imported by the subcommands that run them, so
params, store, retrieve and rates load only the session layers.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import kv
from .bits import Bits
from .gf2 import phi
from .linear_code import default_registry
from .mac import MacKey, forgery_bound, tag as mac_tag
from .params import (
    InfeasibleParamsError,
    ProtocolParams,
    asymptotic_rates,
    correctness_bound,
    derive_params,
    security_bound,
)
from .protocol import (
    ServerBundle,
    ClientSecrets,
    _check_secrets,
    _check_shapes,
    retrieve as protocol_retrieve,
    store as protocol_store,
)
from .randomizer import PrefixCode, prefix_code_for

USAGE_EXIT = 1
VIOLATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _out_dir(value: str | None) -> Path:
    path = Path(value or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_params(args) -> int:
    params = derive_params(args.epsilon, args.ber, args.ell, ell0=args.ell0)
    text = kv.dumps("params", params.to_kv())
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _load_message(args) -> int:
    if args.message is not None:
        return args.message
    if args.message_file:
        words = Path(args.message_file).read_text().split()
        if not words:
            raise ValueError(f"message file {args.message_file} holds no message")
        return int(words[0], 0)
    raise InfeasibleParamsError("no message given (use --message or --message-file)", "cli")


def _cmd_store(args) -> int:
    prefix = prefix_code_for(args.dist)
    params = derive_params(args.epsilon, args.ber, args.ell, ell0=prefix.max_len)
    message = _load_message(args)
    rng = np.random.default_rng(args.seed)
    code = default_registry().by_name(params.code_name)
    bundle, secrets = protocol_store(message, params, code, prefix, rng)
    out = _out_dir(args.out)  # only once nothing is left to refuse
    prefix.dump(out / "prefix_code.txt")
    params.dump(out / "params.txt")
    bundle.dump(out / "bundle.txt")
    secrets.dump(out / "secrets.txt")
    print(f"stored message {message}: bundle.txt, secrets.txt, params.txt, "
          f"prefix_code.txt in {out}")
    print(f"qubits: {params.n + params.r}, local bits: {secrets.storage_bits()}")
    return 0


def _cmd_retrieve(args) -> int:
    out = Path(args.out or ".")  # read, never created
    params = ProtocolParams.load(out / "params.txt")
    code = default_registry().by_name(params.code_name)
    prefix = PrefixCode.load(out / "prefix_code.txt")
    bundle = ServerBundle.load(out / "bundle.txt")
    secrets = ClientSecrets.load(out / "secrets.txt")
    # the records' cross-checks are retrieve's own; run first here, a
    # refusal names the two files that disagree
    for record, check in (
        ("prefix_code.txt", lambda: _check_shapes(params, code, prefix)),
        ("secrets.txt", lambda: _check_secrets(secrets, params)),
    ):
        try:
            check()
        except ValueError as exc:
            raise ValueError(f"{out / record} does not fit {out / 'params.txt'}: {exc}") from None
    rng = np.random.default_rng(args.seed)
    outcome = protocol_retrieve(bundle, secrets, params, code, prefix, rng)
    print(f"omega = {outcome.omega}, abort_reason = {outcome.abort_reason}, "
          f"message = {outcome.message}")
    return 0


def _cmd_simulate(args) -> int:
    from .experiments import ExperimentConfig, run_correctness_experiment, run_tamper_experiment

    config = ExperimentConfig(
        scenario=args.scenario,
        epsilon=args.epsilon,
        beta0=args.ber,
        ell=args.ell,
        dist=args.dist,
        strategy=args.strategy,
        trials=args.trials,
        master_seed=args.seed,
    )
    runner = run_correctness_experiment if args.scenario == "correctness" else run_tamper_experiment
    report = runner(config)
    print(f"{report.scenario} [{report.strategy}]: {report.event_name} "
          f"{report.event_count}/{report.trials} = {report.frequency:.6f}")
    print(f"wilson95 = [{report.wilson_low:.6f}, {report.wilson_high:.6f}], "
          f"{report.bound_name} = {report.bound_value:.6g} -> {report.verdict}")
    if args.out:
        report.to_csv(args.out)
        print(f"report written to {args.out}")
    return 0


def _cmd_attack_support(args) -> int:
    from .attack_lab import ToyScheme, advantage_floor, bb84_toy, run_support

    if args.scheme == "toy-bb84":
        scheme = bb84_toy(2, 1)
    elif os.path.exists(args.scheme):
        scheme = ToyScheme.load(args.scheme)
    else:
        raise InfeasibleParamsError(f"unknown scheme {args.scheme!r}", "cli")
    report = run_support(scheme)
    floor = advantage_floor(
        report.p_star, len(scheme.keys), len(scheme.messages)
    )
    print(f"scheme = {report.scheme}, m* = {report.m_star}, p* = {report.p_star}")
    print(f"Pr[WIN] = {report.pr_win:.9f}")
    print(f"Pr[acc] = {report.pr_acc:.9f}")
    print(f"Pr[WIN|acc] = {report.pr_win_given_acc:.9f}")
    print(f"advantage = {report.advantage:.9f} (guaranteed floor {floor:.9f})")
    if args.out:
        report.to_csv(args.out)
        print(f"per-(message,key) rows written to {args.out}")
    return 0


def _cmd_rates(args) -> int:
    if args.ber_max is not None:
        points = np.linspace(args.ber, args.ber_max, args.steps)
    else:
        points = [args.ber]
    lines = ["beta0,n_per_ell,syndrome_per_ell,recursive_per_ell"]
    for beta0 in points:
        rates = asymptotic_rates(float(beta0))
        rec = "inf" if not np.isfinite(rates.recursive_per_ell) else f"{rates.recursive_per_ell:.6f}"
        lines.append(f"{float(beta0):.6f},{rates.n_per_ell:.6f},{rates.syndrome_per_ell:.6f},{rec}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _selftest_checks():
    from .attack_lab import advantage_floor, bb84_toy, run_support

    # universal hash exactness, exhaustively over GF(2^3)
    ok = True
    for l in (1, 2, 3):
        expected = 8 >> l
        for x, xp in itertools.combinations(range(8), 2):
            hits = sum(
                phi(Bits(w, 3), Bits(x, 3), l) == phi(Bits(w, 3), Bits(xp, 3), l)
                for w in range(8)
            )
            ok &= hits == expected
    yield "universal-hash-exact", ok, "collision count 2^(nu-l) for every pair"

    # one-time MAC forgery bound, exhaustively at lam = 4; the tag under
    # (a, b) is the tag under (a, 0) plus b, so each a tags every message once
    lam, msg_bits = 4, 8
    worst = 0
    tags = [
        [mac_tag(MacKey(a, 0, lam), Bits(m, msg_bits)).value for m in range(1 << msg_bits)]
        for a in range(1 << lam)
    ]
    msg = Bits.from_01("10110100").value
    for target in range(1 << msg_bits):
        if target == msg:
            continue
        # 16 keys share each observed tag; count forgery hits per class
        best = Counter((row[msg] ^ b, row[target] ^ b) for row in tags for b in range(1 << lam))
        worst = max(worst, max(best.values()))
    ok = worst / 16 <= forgery_bound(lam, msg_bits)
    yield "mac-forgery-exhaustive", ok, f"worst class {worst}/16 vs bound {forgery_bound(lam, msg_bits)}"

    # syndrome decoding on the smallest menu code: the zero pattern, eight
    # random patterns of weight t_corr, and one of t_out blocks one error
    # past the inner radius plus a block at it (weight t_corr again)
    code = default_registry().by_name("rs(12,2)*rm(1,7)")
    inner, rng = code.inner, np.random.default_rng(2024)
    patterns = np.zeros((10, code.n), dtype=np.uint8)
    for row in patterns[1:9]:
        row[rng.choice(code.n, size=code.t_corr, replace=False)] = 1
    blocks = rng.choice(code.outer_n, size=code.t_out + 1, replace=False)
    for i, block in enumerate(blocks):
        flips = rng.choice(inner.n, size=inner.t_corr + (i < code.t_out), replace=False)
        patterns[9, block * inner.n + flips] = 1
    zeros = np.zeros(code.n, dtype=np.uint8)
    ok = all(
        np.count_nonzero(e) == (i > 0) * code.t_corr
        and np.array_equal(code.syn_dec(code.syn(e), zeros), e)
        for i, e in enumerate(patterns)
    )
    yield "menu-code-decode", ok, f"{code.name}: zero, weight-{code.t_corr} and block patterns"

    # support attack on the toy scheme
    report = run_support(bb84_toy(2, 1))
    floor = advantage_floor(report.p_star, 2, 4)
    ok = (
        abs(report.win_and_acc_given_star - 1) <= 1e-10
        and report.pr_acc >= report.p_star - 1e-10
        and report.advantage >= floor - 1e-9
    )
    yield "support-attack-exact", ok, f"advantage {report.advantage:.4f} >= floor {floor:.4f}"

    # parameter recipe plug-backs
    params = derive_params(0.05, 0.05, 4, ell0=13)
    ok = (
        correctness_bound(params) <= params.epsilon
        and security_bound(params) <= params.epsilon + 1e-9
        and abs(params.delta - params.epsilon / 8) <= 1e-9
    )
    yield "recipe-plug-backs", ok, (
        f"delta_c = {correctness_bound(params):.4f}, security = {security_bound(params):.4f}"
    )

    # asymptotics
    rates = asymptotic_rates(0.05)
    ok = (
        abs(rates.n_per_ell - 1.4014) <= 1e-3
        and abs(rates.syndrome_per_ell - 0.4014) <= 1e-3
        and abs(rates.recursive_per_ell - 2.3412) <= 1e-3
        and abs(rates.qkd_threshold - 0.110028) <= 1e-6
    )
    yield "asymptotic-rates", ok, f"threshold {rates.qkd_threshold:.6f}"


def _cmd_selftest(args) -> int:
    failures = 0
    for name, ok, detail in _selftest_checks():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    if failures:
        print(f"{failures} bound violation(s)")
        return VIOLATION_EXIT
    print("all selftest checks passed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tamperstore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags store and simulate share
    session = argparse.ArgumentParser(add_help=False)
    session.add_argument("--epsilon", type=float, required=True)
    session.add_argument("--ber", type=float, required=True)
    session.add_argument("--ell", type=int, default=4)
    session.add_argument("--dist", default="example1:12",
                         help="example1:<L>, uniform:<n> or file:<path>")
    session.add_argument("--seed", type=int, default=2024)
    session.add_argument("--out", default=None)

    p = sub.add_parser("params", help="derive protocol parameters")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--ber", type=float, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--ell0", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("store", help="run the storage phase, write a session dir",
                       parents=[session])
    p.add_argument("--message", type=int, default=None)
    p.add_argument("--message-file", default=None)
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser("retrieve", help="run the retrieval phase from a session dir")
    p.add_argument("--seed", type=int, default=4048)
    p.add_argument("--out", default=None, help="session dir written by store")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("simulate", help="Monte-Carlo bound-consistency runs", parents=[session])
    p.add_argument("--scenario", choices=("correctness", "tamper"), default="correctness")
    p.add_argument("--strategy", default="passive",
                   help="passive, intercept-resend[/policy], flip-c[/bit]")
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("attack-support", help="exact support-measurement attack report")
    p.add_argument("--scheme", default="toy-bb84")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_attack_support)

    p = sub.add_parser("rates", help="asymptotic ratios as CSV")
    p.add_argument("--ber", type=float, required=True)
    p.add_argument("--ber-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
