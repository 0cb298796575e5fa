import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from tamperstore import cli, kv
from tamperstore.bits import Bits
from tamperstore.entropy import parse_dist
from tamperstore.experiments import (
    ExperimentConfig,
    build_instance,
    log_binomial_cdf,
    make_strategy,
    run_correctness_experiment,
    run_tamper_experiment,
    tamper_acceptance_bound,
    trial_rng,
    wilson_interval,
)
from tamperstore.params import derive_params
from tamperstore.protocol import ProtocolInstance
from tamperstore.qsim import ClassicalTamper, InterceptResend, PassiveEve, apply_storage_noise
from tamperstore.randomizer import build_prefix_code, example1_code, prefix_code_for


@pytest.fixture(scope="module")
def noiseless_instance():
    return ProtocolInstance.derive(0.05, 0.0, 4, example1_code(12))


def test_wilson_interval_values():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0.03 < high < 0.05
    low, high = wilson_interval(50, 100)
    assert low == pytest.approx(0.404, abs=1e-3)
    assert high == pytest.approx(0.596, abs=1e-3)
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_trial_rng_is_order_independent():
    a = [trial_rng(9, i).integers(0, 1 << 30) for i in (0, 1, 2)]
    b = [trial_rng(9, i).integers(0, 1 << 30) for i in (2, 0, 1)]
    assert a[0] == b[1] and a[1] == b[2] and a[2] == b[0]
    assert len(set(a)) == 3


def test_parse_dist_specs(tmp_path):
    assert parse_dist("uniform:8").support_size == 8
    assert parse_dist("example1:4").support_size == 16
    path = tmp_path / "d.txt"
    path.write_text("0 0.5\n1 0.5\n")
    assert parse_dist(f"file:{path}").support_size == 2
    with pytest.raises(ValueError):
        parse_dist("nope:1")


def test_build_instance_reads_a_file_table_once(tmp_path, monkeypatch):
    # the distribution sampled and the prefix code built come from one read
    path = tmp_path / "d.txt"
    path.write_text("".join(f"{i} {p}\n" for i, p in enumerate([0.5, 0.25, 0.125, 0.0625, 0.0625])))
    reads = []
    load_table = kv.load_table
    monkeypatch.setattr(kv, "load_table", lambda *args: reads.append(args) or load_table(*args))
    config = ExperimentConfig("correctness", 0.05, 0.0, 4, dist=f"file:{path}")
    instance, dist = build_instance(config)
    assert len(reads) == 1
    assert instance.prefix_code == build_prefix_code(dist)
    # both stay callable with the spec alone, one read each
    assert prefix_code_for(config.dist) == instance.prefix_code and len(reads) == 2
    assert np.array_equal(parse_dist(config.dist).probs, dist.probs) and len(reads) == 3


def test_make_strategy():
    assert isinstance(make_strategy("passive"), PassiveEve)
    s = make_strategy("intercept-resend/all-standard")
    assert isinstance(s, InterceptResend) and s.policy == "all-standard"
    t = make_strategy("flip-c/3")
    assert isinstance(t, ClassicalTamper) and t.bit == 3
    with pytest.raises(ValueError):
        make_strategy("unknown")
    s = make_strategy("intercept-resend")
    assert isinstance(s, InterceptResend) and s.policy == "random-basis"
    t = make_strategy("flip-c")
    assert isinstance(t, ClassicalTamper) and (t.field, t.bit) == ("c", 0)


GUESSED_NAMES = [
    "intercept-resendfoo", "intercept-resend/", "intercept-resend/sideways",
    "flip-cX", "flip-cc", "flip-c/", "flip-c/-1", "flip-c/+1", "flip-c/ 1", "flip-c/1/2",
    "passive/", "Passive",
]


@pytest.mark.parametrize("name", GUESSED_NAMES)
def test_make_strategy_refuses_guessed_names(name):
    with pytest.raises(ValueError, match="unknown"):
        make_strategy(name)
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig("tamper", 0.05, 0.0, 4, strategy=name)


@pytest.mark.parametrize("bit", [-1, 4, 99])
def test_classical_tamper_refuses_a_bit_outside_its_field(bit):
    transcript = {"c": Bits(0b0110, 4)}
    with pytest.raises(ValueError, match=f"bit {bit} outside the 4-bit field c"):
        ClassicalTamper(bit=bit).apply(None, transcript, np.random.default_rng(0))
    assert transcript["c"] == Bits(0b0110, 4)
    ClassicalTamper(bit=3).apply(None, transcript, np.random.default_rng(0))
    assert transcript["c"] == Bits(0b1110, 4)


@pytest.mark.parametrize("name", GUESSED_NAMES + ["flip-c/99"])
def test_simulate_refuses_guessed_strategy_names(capsys, name):
    # params A: c has ell = 4 bits, so flip-c/99 names no bit of it
    code = cli.main([
        "simulate", "--scenario", "tamper", "--strategy", name,
        "--epsilon", "0.05", "--ber", "0.0", "--ell", "4", "--trials", "2",
    ])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def test_correctness_noiseless_zero_failures(noiseless_instance):
    config = ExperimentConfig("correctness", 0.05, 0.0, 4, trials=40, master_seed=5)
    report = run_correctness_experiment(config, instance=noiseless_instance)
    assert report.event_count == 0
    assert report.verdict == "consistent"
    assert report.bound_value <= 0.05


def test_report_reproducible_bit_for_bit(tmp_path, noiseless_instance):
    config = ExperimentConfig("correctness", 0.05, 0.0, 4, trials=10, master_seed=11)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_correctness_experiment(config, instance=noiseless_instance).to_csv(a)
    run_correctness_experiment(config, instance=noiseless_instance).to_csv(b)
    assert a.read_bytes() == b.read_bytes()
    body = a.read_text()
    assert "master_seed,11" in body
    assert "bound_name,correctness_failure_bound" in body
    assert "version," in body


def test_sanity_inversion_noise_beyond_budget(noiseless_instance):
    # drive the channel far above beta + nu: failures must dominate
    inst = noiseless_instance
    rng = np.random.default_rng(3)
    failures = 0
    for _ in range(15):
        bundle, secrets = inst.store(7, rng)
        apply_storage_noise(bundle.register, 0.4, rng)
        out = inst.retrieve(bundle, secrets, rng)
        failures += out.omega == 0
    assert failures >= 14


def test_tamper_classical_flip_rejected(noiseless_instance):
    config = ExperimentConfig(
        "tamper", 0.05, 0.0, 4, strategy="flip-c/0", trials=40, master_seed=6
    )
    report = run_tamper_experiment(config, instance=noiseless_instance)
    assert report.bound_name == "mac_forgery_bound"
    assert report.bound_value == 0.05 / 8
    assert report.event_count == 0
    assert report.verdict == "consistent"
    reasons = {reason for _, reason in report.outcomes}
    assert reasons == {"mac"}


def test_tamper_intercept_resend_detected(noiseless_instance):
    config = ExperimentConfig(
        "tamper", 0.05, 0.0, 4, strategy="intercept-resend/random-basis",
        trials=40, master_seed=7,
    )
    report = run_tamper_experiment(config, instance=noiseless_instance)
    assert report.event_count == 0
    assert report.bound_value < 1e-6  # binomial tail far below beta r
    assert report.verdict == "consistent"
    assert {"trap", "decode"} >= {reason for _, reason in report.outcomes}


def test_tamper_bound_names(noiseless_instance):
    params = noiseless_instance.params
    name, value = tamper_acceptance_bound(params, InterceptResend(policy="random-basis"))
    assert "binom_cdf" in name and 0 <= value < 1e-6
    name, value = tamper_acceptance_bound(params, ClassicalTamper())
    assert name == "mac_forgery_bound" and value == params.eps_mac
    name, value = tamper_acceptance_bound(params, InterceptResend(policy="all-hadamard"))
    assert value == 1.0  # traps cannot see an attack in their own basis


def test_eve_payload_proxy_unit():
    from tamperstore.experiments import _eve_payload_proxy
    from tamperstore.qsim import TrapLayout

    rng = np.random.default_rng(8)
    layout = TrapLayout.random(10, 3, rng)

    class FakeSecrets:
        pass

    secrets = FakeSecrets()
    secrets.layout = layout
    bases = np.zeros(10, dtype=np.uint8)
    bases[layout.payload_indices[:3]] = 1  # three payload cells in the wrong basis
    transcript = {"eve_records": [(bases, np.zeros(10, dtype=np.uint8))]}
    proxy = _eve_payload_proxy(transcript, secrets)
    assert proxy == pytest.approx(4 / 7)
    assert _eve_payload_proxy({}, secrets) is None


def test_scenario_mismatch_rejected():
    config = ExperimentConfig("correctness", 0.05, 0.0, 4, trials=1)
    with pytest.raises(ValueError):
        run_tamper_experiment(config)


@pytest.mark.parametrize(
    "epsilon,beta0,ell", [(0.05, 0.0, 4), (0.05, 0.05, 4), (0.01, 0.05, 3)], ids="ABC"
)
def test_binomial_cdf_matches_scipy_oracle(epsilon, beta0, ell):
    from scipy.stats import binom

    params = derive_params(epsilon, beta0, ell, ell0=example1_code(12).max_len)
    k = math.floor(params.beta * params.r)
    # random-basis, all-standard, and a payload-basis flip n / (2(n + r))
    for p in (0.25, 0.5, 0.5 * params.n / (params.n + params.r)):
        oracle = float(binom.cdf(k, params.r, p))
        cdf = math.exp(log_binomial_cdf(k, params.r, p))
        assert math.isclose(cdf, oracle, rel_tol=1e-9, abs_tol=0.0)


@pytest.mark.parametrize(
    "epsilon,beta0,ell", [(0.05, 0.0, 4), (0.05, 0.05, 4), (0.01, 0.05, 3)], ids="ABC"
)
def test_log_binomial_cdf_matches_scipy_oracle(epsilon, beta0, ell):
    from scipy.special import logsumexp
    from scipy.stats import binom

    params = derive_params(epsilon, beta0, ell, ell0=example1_code(12).max_len)
    k = math.floor(params.beta * params.r)
    for p in (0.25, 0.5):
        oracle = float(binom.logcdf(k, params.r, p))
        if not math.isfinite(oracle):  # scipy's logcdf underflows to -inf at B and C
            oracle = float(logsumexp(binom.logpmf(np.arange(k + 1), params.r, p)))
        assert math.isclose(log_binomial_cdf(k, params.r, p), oracle, rel_tol=1e-9, abs_tol=0.0)


def test_all_standard_bound_is_finite_in_log_space_at_C():
    params = derive_params(0.01, 0.05, 3, ell0=example1_code(12).max_len)
    k = math.floor(params.beta * params.r)
    log10_tail = log_binomial_cdf(k, params.r, 0.5) / math.log(10)
    assert math.isfinite(log10_tail) and log10_tail < -300
    name, value = tamper_acceptance_bound(params, InterceptResend(policy="all-standard"))
    assert value == 0.0  # the float underflows; the name keeps the exponent
    assert name == f"binom_cdf(r={params.r}, p=0.5, k<={k}) = 10^{log10_tail:.4g}"


def test_binomial_cdf_edges():
    assert log_binomial_cdf(-1, 10, 0.3) == -math.inf
    assert log_binomial_cdf(10, 10, 0.3) == 0.0
    assert math.isclose(log_binomial_cdf(0, 10, 0.3), 10 * math.log(0.7), rel_tol=1e-12)
    assert math.isclose(log_binomial_cdf(2, 4, 0.5), math.log(11 / 16), rel_tol=1e-12)


# SHA-256 of every ExperimentReport field, outcomes included, as sorted JSON:
# any change to a trial's draws, its outcome or the report moves these
REPORT_DIGESTS = [
    (("correctness", 0.05, 0.0, 4, "passive"),
     "6dd923bfd74197f4fef731d2a74c6b2f8cfd8834fb75ac5c39398b0490cdcf9c"),
    (("tamper", 0.01, 0.05, 3, "intercept-resend/random-basis"),
     "206a27e44768d7aa536a2adf16b5349c71f77c83f2f7c787ca189c2f78240cdb"),
    (("tamper", 0.01, 0.05, 3, "intercept-resend/all-standard"),
     "14ad7ac34c8935eff38273ccc3c11f8588fc4b58e9d958fff906ec567b998cac"),
    (("tamper", 0.01, 0.05, 3, "flip-c/0"),
     "5afa1911df109685f0ea300565974bd35f97a23d2240ae2ac5ff21780dd4a3f9"),
]


@pytest.mark.parametrize(
    "setting,digest", REPORT_DIGESTS,
    ids=["correctness-A", "random-basis-C", "all-standard-C", "flip-c-C"],
)
def test_report_digest_pinned(setting, digest):
    scenario, epsilon, beta0, ell, strategy = setting
    config = ExperimentConfig(
        scenario, epsilon, beta0, ell, strategy=strategy, trials=50, master_seed=3
    )
    run = run_correctness_experiment if scenario == "correctness" else run_tamper_experiment
    report = dataclasses.asdict(run(config))
    assert len(report["outcomes"]) == 50
    blob = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize(
    "overrides,message",
    [({"scenario": "sideways"}, "unknown scenario"), ({"trials": 0}, "at least 1")],
    ids=["unknown-scenario", "no-trials"],
)
def test_config_constructor_rejects(overrides, message):
    fields = {"scenario": "tamper", "epsilon": 0.05, "beta0": 0.0, "ell": 4, **overrides}
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**fields)


def test_correctness_config_must_be_passive():
    with pytest.raises(ValueError, match="passive"):
        ExperimentConfig("correctness", 0.05, 0.0, 4, strategy="flip-c/0")


def test_simulate_correctness_with_attack_is_an_error(capsys):
    code = cli.main([
        "simulate", "--scenario", "correctness", "--strategy", "flip-c/0",
        "--epsilon", "0.05", "--ber", "0.0", "--trials", "2",
    ])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "passive" in err
    assert "Traceback" not in err and "retrieval_failure" not in out
