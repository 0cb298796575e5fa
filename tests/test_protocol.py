import math
from dataclasses import replace

import numpy as np
import pytest

from tamperstore import kv
from tamperstore.bits import Bits
from tamperstore.entropy import DiscreteDistribution, uniform
from tamperstore.gf2 import GF2Field
from tamperstore.linear_code import MatrixCode, default_registry, hamming_code
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
from tamperstore.randomizer import build_prefix_code, example1_code


def tiny_params(**overrides) -> ProtocolParams:
    """Hand-built valid params around hamming(7,4); noiseless channel."""
    base = dict(
        epsilon=0.45,
        eps0=0.45 / 16,
        eps_mac=0.45 / 8,
        eps_qp=2.0**-1.25,
        beta0=0.0,
        beta=0.2,
        nu=0.1,
        r=47,
        n=7,
        kappa=4,
        ell=1,
        ell0=2,
        d=7,
        lam=6,
        code_name="hamming(7,4)",
    )
    base.update(overrides)
    return ProtocolParams(**base)


def tiny_instance() -> ProtocolInstance:
    code = hamming_code(3)
    prefix = build_prefix_code(uniform(4))
    return ProtocolInstance(tiny_params(), code, prefix)


def test_params_hand_built_validate():
    tiny_params().validate()


def test_bundle_and_secret_shapes():
    inst = tiny_instance()
    rng = np.random.default_rng(0)
    bundle, secrets = inst.store(2, rng)
    p = inst.params
    assert bundle.c.length == p.ell
    assert secrets.s.length == p.n - p.kappa
    assert secrets.v.length == p.r
    assert secrets.m_nabla.length == p.ell0 - p.ell
    assert bundle.u.length == p.d
    assert bundle.theta.length == p.lam
    assert bundle.w.length == p.ell0
    assert bundle.register.size == p.n + p.r


def test_store_is_reproducible_bit_for_bit():
    inst = tiny_instance()
    b1, s1 = inst.store(3, np.random.default_rng(42))
    b2, s2 = inst.store(3, np.random.default_rng(42))
    assert b1.to_kv() == b2.to_kv()
    assert s1.to_kv() == s2.to_kv()


def test_noiseless_completeness_small():
    inst = tiny_instance()
    rng = np.random.default_rng(1)
    for message in range(4):
        for _ in range(25):
            bundle, secrets = inst.store(message, rng)
            out = inst.retrieve(bundle, secrets, rng)
            assert out.omega == 1 and out.message == message
            assert out.abort_reason == "none"


def test_noiseless_completeness_with_compression():
    # real prefix code with unequal codeword lengths (padding in play)
    dist = DiscreteDistribution(np.arange(4), np.array([0.7, 0.15, 0.1, 0.05]))
    prefix = build_prefix_code(dist)
    code = hamming_code(3)
    params = tiny_params(ell0=prefix.max_len, lam=6)
    inst = ProtocolInstance(params, code, prefix)
    rng = np.random.default_rng(2)
    for message in range(4):
        for _ in range(25):
            bundle, secrets = inst.store(message, rng)
            out = inst.retrieve(bundle, secrets, rng)
            assert (out.omega, out.message) == (1, message)


def test_noise_within_radius_still_completes():
    # error-free traps are not required: beta r > 0 tolerates a few flips
    inst = tiny_instance()
    rng = np.random.default_rng(3)
    ok = 0
    for _ in range(50):
        bundle, secrets = inst.store(1, rng)
        apply_storage_noise(bundle.register, 0.02, rng)
        out = inst.retrieve(bundle, secrets, rng)
        ok += out.omega
    assert ok >= 30  # decode failures happen (t_corr = 1), aborts dominate otherwise


def test_classical_tamper_hits_mac():
    inst = tiny_instance()
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
    inst = tiny_instance()
    rng = np.random.default_rng(5)
    bundle, secrets = inst.store(0, rng)
    out = inst.retrieve(replace(bundle, theta=bundle.theta.flip(2)), secrets, rng)
    assert (out.omega, out.abort_reason) == (0, "mac")


def test_trap_abort_on_heavy_disturbance():
    from tamperstore.qsim import EveView, InterceptResend

    inst = tiny_instance()
    rng = np.random.default_rng(6)
    aborts = 0
    for _ in range(60):
        bundle, secrets = inst.store(1, rng)
        InterceptResend(policy="all-standard").apply(EveView(bundle.register), {}, rng)
        out = inst.retrieve(bundle, secrets, rng)
        if out.omega == 0:
            aborts += 1
            assert out.abort_reason in ("trap", "decode")
    # traps flip at rate 1/2 under the wrong basis; beta r = 9.4 out of r = 47
    assert aborts == 60


def test_trap_abort_bundle_never_gathers_the_payload(monkeypatch):
    from tamperstore.qsim import TrapLayout

    inst = tiny_instance()
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
    inst = tiny_instance()
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
    inst = tiny_instance()
    rng = np.random.default_rng(7)
    bundle, secrets = inst.store(3, rng)
    mapping = {**secrets.to_kv(), "code_name": "hamming(7,4)", "prefix_code_name": "custom"}
    kv.dump(tmp_path / "secrets.txt", "secrets", mapping)
    loaded = ClientSecrets.load(tmp_path / "secrets.txt")
    assert loaded == secrets
    out = inst.retrieve(bundle, loaded, rng)
    assert (out.omega, out.message) == (1, 3)


def test_secrets_without_syndrome_rejected(tmp_path):
    _, secrets = tiny_instance().store(3, np.random.default_rng(7))
    mapping = secrets.to_kv()
    del mapping["s"]
    with pytest.raises(KeyError):
        ClientSecrets.from_kv(mapping)
    kv.dump(tmp_path / "secrets.txt", "secrets", mapping)
    with pytest.raises(KeyError):
        ClientSecrets.load(tmp_path / "secrets.txt")


@pytest.mark.parametrize("mac_key", [Bits(5 | 2 << 3, 7), Bits(1, 1), Bits(0, 0)])
def test_secrets_with_malformed_mac_key_rejected(mac_key):
    _, secrets = tiny_instance().store(3, np.random.default_rng(7))
    mapping = secrets.to_kv()
    assert ClientSecrets.from_kv(mapping) == secrets
    mapping["mac_key"] = mac_key
    with pytest.raises(ValueError):
        ClientSecrets.from_kv(mapping)


def test_bundle_modulus_is_not_read_from_the_file(tmp_path):
    # params A; the stored seed field is GF(2^13) with the pinned 0x201b
    inst = ProtocolInstance.derive(0.05, 0.0, 4, example1_code(12))
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
    bundle, _ = tiny_instance().store(3, np.random.default_rng(7))
    mapping = bundle.to_kv()
    mapping[key] = 5
    kv.dump(tmp_path / "bundle.txt", "bundle", mapping)
    with pytest.raises(ValueError):
        ServerBundle.load(tmp_path / "bundle.txt")


def _params_a_session(seed: int):
    inst = ProtocolInstance.derive(0.05, 0.0, 4, example1_code(12))
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


def test_identity_code_tiny_instance_runs(tmp_path):
    # n = kappa: empty syndrome, decoder is the zero map; the zero-length
    # syndrome survives a secrets file
    code = MatrixCode(np.zeros((0, 4), dtype=np.uint8), "identity(4)")
    prefix = build_prefix_code(uniform(16))
    params = tiny_params(
        n=4, kappa=4, d=4, ell0=4, eps_qp=2.0**-1.25, code_name="identity(4)", lam=6
    )
    inst = ProtocolInstance(params, code, prefix)
    rng = np.random.default_rng(8)
    bundle, secrets = inst.store(11, rng)
    assert secrets.s.length == 0
    secrets.dump(tmp_path / "secrets.txt")
    loaded = ClientSecrets.load(tmp_path / "secrets.txt")
    assert loaded == secrets
    out = inst.retrieve(bundle, loaded, rng)
    assert (out.omega, out.message) == (1, 11)


# -- usefulness ---------------------------------------------------------------

def test_usefulness_accounting():
    inst = tiny_instance()
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
    y = usefulness(secrets, message_bits=2.0)
    assert y < 0  # tiny instance stores far more than it delegates


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
