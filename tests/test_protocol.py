import math
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest

from tamperstore import kv
from tamperstore.bits import Bits
from tamperstore.gf2 import GF2Field
from tamperstore.linear_code import default_registry
from tamperstore.mac import MacKey, verify
from tamperstore.params import InfeasibleParamsError, ProtocolParams, derive_params
from tamperstore.protocol import (
    BUNDLE_VARS,
    SECRET_VARS,
    ClientSecrets,
    ProtocolInstance,
    RetrievalOutcome,
    ServerBundle,
    ideal_recursion_accounting,
    one_time_pad,
    usefulness,
)
from tamperstore.qsim import QubitRegister, apply_storage_noise
from tamperstore.randomizer import example1_code


@lru_cache(maxsize=None)
def params_a() -> ProtocolInstance:
    """Params A, (eps, beta0, l) = (0.05, 0, 4) with example1:12.

    n = 2,560 and l0 = 13 are pinned degrees, so no modulus is searched.
    """
    return ProtocolInstance.derive(0.05, 0.0, 4, example1_code(12))


def test_params_hand_built_validate():
    # the six choices rebuild params A; a choice that breaks the recipe is
    # refused when the params are made, so a session never sees it
    p = params_a().params
    assert [f.name for f in fields(ProtocolParams)] == [
        "epsilon", "beta0", "ell", "ell0", "r", "code_name"
    ]
    hand_built = ProtocolParams(0.05, 0.0, 4, 13, 1276, "rs(20,4)*rm(1,7)")
    assert hand_built == p and hand_built.to_kv() == p.to_kv()
    for broken in ({"r": p.n // 2}, {"ell": p.kappa}):
        with pytest.raises(InfeasibleParamsError):
            replace(p, **broken)
    with pytest.raises(KeyError):
        replace(p, code_name="rs(20,7)*rm(1,7)")  # not on the menu


def test_bundle_and_secret_shapes():
    inst = params_a()
    rng = np.random.default_rng(0)
    bundle, secrets = inst.store(2, rng)
    p = inst.params
    assert bundle.c.length == p.ell
    assert secrets.s.length == p.n - p.kappa
    assert secrets.v.length == p.r
    assert secrets.m_nabla.length == p.ell0 - p.ell
    assert bundle.u.length == p.d == p.n
    assert bundle.theta.length == p.lam
    assert bundle.w.length == p.ell0
    assert bundle.register.size == p.n + p.r


def test_store_is_reproducible_bit_for_bit():
    inst = params_a()
    b1, s1 = inst.store(3, np.random.default_rng(42))
    b2, s2 = inst.store(3, np.random.default_rng(42))
    assert b1.to_kv() == b2.to_kv()
    assert s1.to_kv() == s2.to_kv()


def test_noiseless_completeness_small():
    inst = params_a()
    assert {inst.prefix_code.codewords[m].length for m in range(4)} == {13}  # no padding
    rng = np.random.default_rng(1)
    for message in range(4):
        for _ in range(25):
            bundle, secrets = inst.store(message, rng)
            out = inst.retrieve(bundle, secrets, rng)
            assert out.omega == 1 and out.message == message
            assert out.abort_reason == "none"


def test_noiseless_completeness_with_compression():
    # unequal codeword lengths: message 4095 compresses to one bit and
    # carries 12 bits of random padding
    inst = params_a()
    lengths = {m: inst.prefix_code.codewords[m].length for m in (0, 4095)}
    assert lengths == {0: 13, 4095: 1}
    rng = np.random.default_rng(2)
    for message in lengths:
        for _ in range(25):
            bundle, secrets = inst.store(message, rng)
            out = inst.retrieve(bundle, secrets, rng)
            assert (out.omega, out.message) == (1, message)


def test_noise_within_radius_still_completes():
    # error-free traps are not required: noise at 0.02 stays under the
    # accepted trap rate beta = 0.035 and far inside t_corr = 287
    inst = params_a()
    assert inst.params.beta > 0.02 and inst.code.t_corr == 287
    rng = np.random.default_rng(3)
    ok = 0
    for _ in range(50):
        bundle, secrets = inst.store(1, rng)
        apply_storage_noise(bundle.register, 0.02, rng)
        out = inst.retrieve(bundle, secrets, rng)
        ok += out.omega
    assert ok == 50


def test_classical_tamper_hits_mac():
    inst = params_a()
    rng = np.random.default_rng(4)
    rejected = 0
    trials = 200
    for _ in range(trials):
        bundle, secrets = inst.store(2, rng)
        tampered = replace(bundle, c=bundle.c.flip(0))
        out = inst.retrieve(tampered, secrets, rng)
        if out.omega == 0:
            assert out.abort_reason == "mac"
            rejected += 1
    # acceptance of a flipped ciphertext is a forgery: rate <= eps_mac-ish
    assert rejected >= trials * (1 - 2 * inst.params.eps_mac)


def test_tampered_tag_rejected():
    inst = params_a()
    rng = np.random.default_rng(5)
    bundle, secrets = inst.store(0, rng)
    out = inst.retrieve(replace(bundle, theta=bundle.theta.flip(2)), secrets, rng)
    assert (out.omega, out.abort_reason) == (0, "mac")


def test_trap_abort_on_heavy_disturbance():
    from tamperstore.qsim import EveView, InterceptResend

    inst = params_a()
    rng = np.random.default_rng(6)
    aborts = 0
    for _ in range(60):
        bundle, secrets = inst.store(1, rng)
        InterceptResend(policy="all-standard").apply(EveView(bundle.register), {}, rng)
        out = inst.retrieve(bundle, secrets, rng)
        if out.omega == 0:
            aborts += 1
            assert out.abort_reason in ("trap", "decode")
    # traps flip at rate 1/2 under the wrong basis; beta r = 44.5 out of r = 1,276
    assert aborts == 60


def test_trap_abort_bundle_never_gathers_the_payload(monkeypatch):
    from tamperstore.qsim import TrapLayout

    inst = params_a()
    rng = np.random.default_rng(16)
    bundle, secrets = inst.store(1, rng)
    basis, value = bundle.register._records()
    value[secrets.layout.trap_indices] ^= 1  # every trap wrong: r > beta r errors

    def no_payload(layout, word):
        raise AssertionError("payload gathered on a trap abort")

    monkeypatch.setattr(TrapLayout, "payload", no_payload)
    assert inst.retrieve(bundle, secrets, rng) == RetrievalOutcome(0, None, "trap")


def test_outcome_invariant():
    with pytest.raises(ValueError):
        RetrievalOutcome(1, None, "none")
    with pytest.raises(ValueError):
        RetrievalOutcome(0, 3, "mac")


def test_variable_partition_audit():
    assert set(BUNDLE_VARS) & set(SECRET_VARS) == set()
    assert set(ServerBundle.__dataclass_fields__) == set(BUNDLE_VARS)
    fields = set(ClientSecrets.__dataclass_fields__)
    assert fields == set(SECRET_VARS)


def test_serialization_round_trips(tmp_path):
    inst = params_a()
    rng = np.random.default_rng(7)
    bundle, secrets = inst.store(3, rng)
    bundle.dump(tmp_path / "bundle.txt")
    secrets.dump(tmp_path / "secrets.txt")
    bundle2 = ServerBundle.load(tmp_path / "bundle.txt")
    secrets2 = ClientSecrets.load(tmp_path / "secrets.txt")
    assert bundle2.to_kv() == bundle.to_kv()
    assert secrets2 == secrets
    out = inst.retrieve(bundle2, secrets2, rng)
    assert (out.omega, out.message) == (1, 3)


def test_secrets_file_with_code_names_still_loads(tmp_path):
    # files written before the unused code-name fields were dropped carry them
    inst = params_a()
    rng = np.random.default_rng(7)
    bundle, secrets = inst.store(3, rng)
    mapping = {**secrets.to_kv(), "code_name": inst.params.code_name, "prefix_code_name": "custom"}
    kv.dump(tmp_path / "secrets.txt", "secrets", mapping)
    loaded = ClientSecrets.load(tmp_path / "secrets.txt")
    assert loaded == secrets
    out = inst.retrieve(bundle, loaded, rng)
    assert (out.omega, out.message) == (1, 3)


def test_secrets_file_r_must_be_the_trap_weight():
    # r is the weight of t; files written before it stopped being stored carry it
    _, secrets = params_a().store(3, np.random.default_rng(7))
    mapping = secrets.to_kv()
    assert "r" not in mapping
    assert ClientSecrets.from_kv({**mapping, "r": 1276}) == secrets
    with pytest.raises(ValueError, match="r = 1277, but t holds 1276 traps"):
        ClientSecrets.from_kv({**mapping, "r": 1277})


def test_secrets_without_syndrome_rejected(tmp_path):
    _, secrets = params_a().store(3, np.random.default_rng(7))
    mapping = secrets.to_kv()
    del mapping["s"]
    with pytest.raises(KeyError):
        ClientSecrets.from_kv(mapping)
    kv.dump(tmp_path / "secrets.txt", "secrets", mapping)
    with pytest.raises(KeyError):
        ClientSecrets.load(tmp_path / "secrets.txt")


@pytest.mark.parametrize("mac_key", [Bits(5 | 2 << 3, 7), Bits(1, 1), Bits(0, 0)])
def test_secrets_with_malformed_mac_key_rejected(mac_key):
    _, secrets = params_a().store(3, np.random.default_rng(7))
    mapping = secrets.to_kv()
    assert ClientSecrets.from_kv(mapping) == secrets
    mapping["mac_key"] = mac_key
    with pytest.raises(ValueError):
        ClientSecrets.from_kv(mapping)


def test_bundle_modulus_is_not_read_from_the_file(tmp_path):
    # the stored seed field is GF(2^13) with the pinned 0x201b
    inst = params_a()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        bundle, secrets = inst.store(777, rng)
        mapping = bundle.to_kv()
        assert "w_modulus" not in mapping
        mapping["w_modulus"] = Bits(0x2027, 14)  # another irreducible of degree 13
        kv.dump(tmp_path / "bundle.txt", "bundle", mapping)
        loaded = ServerBundle.load(tmp_path / "bundle.txt")
        assert loaded.w == bundle.w
        out = inst.retrieve(loaded, secrets, rng)
        assert out.omega == 0 or out.message == 777
        assert (out.omega, out.message) == (1, 777)


@pytest.mark.parametrize("key", ["w", "u", "c", "theta", "register"])
def test_bundle_field_of_wrong_type_rejected(tmp_path, key):
    bundle, _ = params_a().store(3, np.random.default_rng(7))
    mapping = bundle.to_kv()
    mapping[key] = 5
    kv.dump(tmp_path / "bundle.txt", "bundle", mapping)
    with pytest.raises(ValueError):
        ServerBundle.load(tmp_path / "bundle.txt")


def _params_a_session(seed: int):
    inst = params_a()
    rng = np.random.default_rng(seed)
    bundle, secrets = inst.store(777, rng)
    return inst, bundle, secrets, rng


def _assert_format_abort(inst, bundle, secrets, rng):
    out = inst.retrieve(bundle, secrets, rng)
    assert (out.omega, out.message, out.abort_reason) == (0, None, "format")


def test_uc_boundary_shift_aborts_on_format():
    # moving the last bit of u to the front of c keeps w || u || c and its tag
    inst, bundle, secrets, rng = _params_a_session(0)
    u, c = bundle.u, bundle.c
    shifted = replace(
        bundle, u=u.first(u.length - 1), c=Bits(u[u.length - 1], 1).concat(c)
    )
    assert shifted.classical_bits() == bundle.classical_bits()
    _assert_format_abort(inst, shifted, secrets, rng)


@pytest.mark.parametrize("delta", [-1, 1])
def test_resized_register_aborts_on_format(delta):
    inst, bundle, secrets, rng = _params_a_session(1)
    basis, value = bundle.register._records()
    size = basis.size + delta
    resized = QubitRegister(np.resize(basis, size), np.resize(value, size))
    _assert_format_abort(inst, replace(bundle, register=resized), secrets, rng)


@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_length_w_aborts_on_format(delta):
    inst, bundle, secrets, rng = _params_a_session(2)
    degree = inst.params.ell0 + delta
    w = Bits(bundle.w.value & ((1 << degree) - 1), degree)
    _assert_format_abort(inst, replace(bundle, w=w), secrets, rng)


def test_zero_seed_aborts_on_format():
    # under the MAC key a = 0 every transcript's tag is b, so a bundle whose
    # seed w is zero passes the MAC; derandomize cannot invert w = 0
    inst, bundle, secrets, rng = _params_a_session(5)
    lam, b = inst.params.lam, 0x1234
    secrets = replace(secrets, mac_key=MacKey(0, b, lam))
    zero_w = replace(bundle, w=Bits.zeros(inst.params.ell0), theta=Bits(b, lam))
    assert verify(secrets.mac_key, zero_w.classical_bits(), zero_w.theta)
    _assert_format_abort(inst, zero_w, secrets, rng)


@pytest.mark.parametrize("length", [1536, 0])
def test_bundle_w_length_builds_no_field(length, tmp_path, monkeypatch):
    # loading must not search for a modulus of a degree the server picked
    # (minutes at a few thousand bits) nor write it into the client's cache
    monkeypatch.setenv("TAMPERSTORE_CACHE", str(tmp_path / "cache"))
    inst, bundle, secrets, rng = _params_a_session(4)
    mapping = bundle.to_kv()
    mapping["w"] = Bits.random(length, rng)
    kv.dump(tmp_path / "bundle.txt", "bundle", mapping)
    loaded = ServerBundle.load(tmp_path / "bundle.txt")
    assert loaded.w.length == length
    _assert_format_abort(inst, loaded, secrets, rng)
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_length_theta_aborts_on_format(delta):
    inst, bundle, secrets, rng = _params_a_session(3)
    theta = bundle.theta
    resized = theta.first(theta.length - 1) if delta < 0 else theta.concat(Bits(0, 1))
    _assert_format_abort(inst, replace(bundle, theta=resized), secrets, rng)


@pytest.mark.parametrize("n", [7, 2560])
def test_one_time_pad_is_the_first_ell_bits_of_the_product(n):
    field = GF2Field(n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        u, x = Bits.random(n, rng), Bits.random(n, rng)
        product = field.mul_int(u.value, x.value)
        for ell in (1, 3, 4):
            assert one_time_pad(u, x, ell, field) == Bits(product & ((1 << ell) - 1), ell)
    assert one_time_pad(Bits.zeros(n), x, 4, field) == Bits.zeros(4)


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("operand", ["seed", "payload"])
def test_one_time_pad_rejects_wrong_lengths(operand, delta):
    field = GF2Field(7)
    right, wrong = Bits(0b1011001, 7), Bits(1, 7 + delta)
    u, x = (wrong, right) if operand == "seed" else (right, wrong)
    with pytest.raises(ValueError):
        one_time_pad(u, x, 3, field)


def test_tiny_instance_ciphertext_near_uniform_exact():
    # exact enumeration over every (message, seed, pad seed, payload):
    # l0 = 4, n = 4, l = 1, identity code
    ell0, n, ell = 4, 4, 1
    seed_field = GF2Field(ell0)
    pad_field = GF2Field(n)
    prob_c1 = 0.0
    total_weight = 0.0
    for m0 in range(16):  # uniform messages, 4-bit codewords, no padding
        for w in range(1, 16):
            m = seed_field.mul_int(w, m0) & 1
            for u in range(16):
                for x in range(16):
                    z = pad_field.mul_int(u, x) & 1
                    weight = 1.0  # uniform over the whole tuple space
                    total_weight += weight
                    prob_c1 += weight * ((m ^ z) & 1)
    prob_c1 /= total_weight
    sd = abs(prob_c1 - 0.5)
    eps0, eps_qp = 2.0**-2.5, 2.0**-1.25
    assert ell <= math.floor(4 + 2 - math.log2(1 / eps0**2))  # budget admits l = 1
    assert sd <= 4 * eps0 + 2 * eps_qp
    assert sd <= 1 / 128  # the enumeration is in fact much tighter


# -- usefulness ---------------------------------------------------------------

def test_usefulness_accounting():
    inst = params_a()
    rng = np.random.default_rng(9)
    _, secrets = inst.store(0, rng)
    p = inst.params
    expected = (
        math.ceil(math.log2(math.comb(p.n + p.r, p.r)))
        + p.r
        + (p.n - p.kappa)
        + 2 * p.lam
        + (p.ell0 - p.ell)
    )
    assert secrets.storage_bits() == expected
    y = usefulness(secrets, message_bits=p.ell)
    assert y < 0  # params A keep far more bits than they delegate


@pytest.mark.parametrize(
    "epsilon, beta0, ell, bits",
    [(0.05, 0.0, 4, 7357), (0.05, 0.05, 4, 19004), (0.01, 0.05, 3, 27587)],
    ids=["A", "B", "C"],
)
def test_storage_bits_at_reference_params(epsilon, beta0, ell, bits):
    inst = ProtocolInstance.derive(epsilon, beta0, ell, example1_code(12))
    _, secrets = inst.store(5, np.random.default_rng(14))
    assert secrets.storage_bits() == bits


# -- sampling-bound property ----------------------------------------------------

def test_sampling_bad_event_bound_monte_carlo():
    from tamperstore.params import sampling_bad_event_bound

    n, r, beta, nu = 100, 50, 0.1, 0.1
    weight = math.ceil(n * (beta + nu)) + math.floor(r * beta)  # 25 marked cells
    trials = 20_000
    rng = np.random.default_rng(10)
    ranks = np.argsort(rng.random((trials, n + r)), axis=1)[:, :r]
    trap_hits = (ranks < weight).sum(axis=1)
    payload_hits = weight - trap_hits
    bad = (trap_hits <= r * beta) & (payload_hits >= n * (beta + nu))
    freq = bad.mean()
    bound = sampling_bad_event_bound(n, r, nu)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert freq <= bound + 3 * sigma
    assert freq > 0  # the event is reachable; the bound is not vacuous here


# -- recursion -------------------------------------------------------------------

def test_concrete_recursion_cannot_pay():
    # a second level would take the first level's syndrome s1 as its message
    # and extract l < kappa <= 128 bits of it, so it would keep s1 - l bits
    # plus its own syndrome s2 >= 1,456 locally: more than the s1 it stores
    specs = default_registry().specs()
    assert min(spec.n - spec.kappa for spec in specs) == 1456
    assert max(spec.kappa for spec in specs) == 128
    with pytest.raises(InfeasibleParamsError):
        derive_params(0.5, 0.0, 128)


def test_ideal_recursion_accounting_matches_series():
    report = ideal_recursion_accounting(0.05, 1e6, residual_threshold=1e3)
    assert report["residual_bits"] < 1e3
    assert report["total_qubits"] == pytest.approx(report["limit_qubits"], rel=0.05)
    levels = report["levels"]
    g = levels[1]["message_bits"] / levels[0]["message_bits"]
    assert g == pytest.approx(0.4013, abs=1e-3)


def test_ideal_recursion_needs_stopping_rule():
    with pytest.raises(ValueError):
        ideal_recursion_accounting(0.05, 1e6)
    with pytest.raises(ValueError):
        ideal_recursion_accounting(0.12, 1e6, depth=3)  # above threshold
