import math
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest

from tamperstore import gf2, kv
from tamperstore.bits import Bits
from tamperstore.gf2 import GF2Field
from tamperstore.linear_code import default_registry
from tamperstore.mac import MacKey, verify
from tamperstore.params import (
    InfeasibleParamsError,
    ProtocolParams,
    derive_params,
    ideal_recursion_accounting,
)
from tamperstore.protocol import (
    ClientSecrets,
    ProtocolInstance,
    RetrievalOutcome,
    ServerBundle,
    one_time_pad,
    usefulness,
)
from tamperstore.qsim import QubitRegister, TrapLayout, apply_storage_noise
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
    with pytest.raises(InfeasibleParamsError, match="code_name 'rs\\(20,7\\)") as info:
        replace(p, code_name="rs(20,7)*rm(1,7)")  # not on the menu
    assert info.value.constraint == "code-menu" and isinstance(info.value, ValueError)


def test_session_refuses_disagreeing_parts_when_made():
    # the code must be the one params name and the prefix code must pad to
    # ell0; a session that breaks either is refused before it can store
    inst = params_a()
    parts = {"params": inst.params, "code": inst.code, "prefix_code": inst.prefix_code}
    other_code = default_registry().by_name("rs(12,2)*rm(1,7)")
    short = example1_code(4)
    for part, message in (
        ({"code": other_code}, "code rs(12,2)*rm(1,7); params want rs(20,4)*rm(1,7)"),
        ({"prefix_code": short}, "prefix code pads to 5, params.ell0 = 13"),
    ):
        with pytest.raises(ValueError) as made:
            ProtocolInstance(**{**parts, **part})
        with pytest.raises(ValueError) as replaced:
            replace(inst, **part)
        assert str(made.value) == str(replaced.value) == message


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
    assert {inst.prefix_code.codeword(m).length for m in range(4)} == {13}  # no padding
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
    lengths = {m: inst.prefix_code.codeword(m).length for m in (0, 4095)}
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
    from tamperstore.experiments import InterceptResend
    from tamperstore.qsim import EveView

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

    def no_payload(layout):
        raise AssertionError("payload gathered on a trap abort")

    # a data descriptor, so it wins over the index array store cached
    monkeypatch.setattr(TrapLayout, "payload_indices", property(no_payload))
    assert inst.retrieve(bundle, secrets, rng) == RetrievalOutcome(0, None, "trap")


@pytest.mark.parametrize("epsilon, beta0, ell", [(0.05, 0.0, 4), (0.01, 0.05, 3)], ids=["A", "C"])
def test_session_never_unpacks_a_bits_word(monkeypatch, epsilon, beta0, ell):
    # the payload reaches the code as cells and the pattern comes back as
    # cells, so no step of store -> noise -> retrieve turns Bits into cells
    inst = ProtocolInstance.derive(epsilon, beta0, ell, example1_code(12))
    rng = np.random.default_rng(21)

    def no_unpack(bits):
        raise AssertionError("a session step unpacked a Bits word")

    monkeypatch.setattr(Bits, "to_array", no_unpack)
    bundle, secrets = inst.store(3, rng)
    inst.apply_noise(bundle, rng)
    assert inst.retrieve(bundle, secrets, rng) == RetrievalOutcome(1, 3, "none")


def test_outcome_invariant():
    with pytest.raises(ValueError):
        RetrievalOutcome(1, None, "none")
    with pytest.raises(ValueError):
        RetrievalOutcome(0, 3, "mac")


def test_variable_partition_audit():
    # the server holds w, u, c, theta and the qubits; the client the key
    # material; no variable is in both
    bundle_fields = {f.name for f in fields(ServerBundle)}
    secret_fields = {f.name for f in fields(ClientSecrets)}
    assert bundle_fields == {"w", "u", "c", "theta", "register"}
    assert secret_fields == {"mac_key", "layout", "v", "s", "m_nabla"}


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


# keys that no writer of the record writes: an unknown one, and the ones
# older files held (params' d, the bundle's w_modulus and register_note,
# the secrets' r and code names); None deletes the key instead
FOREIGN_OR_MISSING_KEYS = [
    ("params", "zz", 1),
    ("params", "d", 2560),
    ("params", "epsilon", None),
    ("bundle", "zz", 1),
    ("bundle", "w_modulus", Bits(0x2027, 14)),
    ("bundle", "register_note", "simulation checkpoint, not physically transferable"),
    ("bundle", "u", None),
    ("secrets", "zz", 1),
    ("secrets", "r", 1276),
    ("secrets", "code_name", "rs(20,4)*rm(1,7)"),
    ("secrets", "prefix_code_name", "custom"),
    ("secrets", "s", None),
]


@pytest.mark.parametrize(
    "kind,key,value",
    FOREIGN_OR_MISSING_KEYS,
    ids=[f"{kind}-{key}" for kind, key, _ in FOREIGN_OR_MISSING_KEYS],
)
def test_record_file_with_a_foreign_or_missing_key_is_refused(tmp_path, kind, key, value):
    inst = params_a()
    bundle, secrets = inst.store(777, np.random.default_rng(7))
    record = {"params": inst.params, "bundle": bundle, "secrets": secrets}[kind]
    mapping = record.to_kv()
    assert (key in mapping) == (value is None)
    if value is None:
        del mapping[key]
    else:
        mapping[key] = value
    with pytest.raises(ValueError, match=f"{kind} field '{key}'"):
        type(record).from_kv(mapping)
    path = tmp_path / f"{kind}.txt"
    kv.dump(path, kind, mapping)
    with pytest.raises(ValueError) as err:
        type(record).load(path)
    assert type(err.value) is ValueError
    assert str(err.value).startswith(f"{path}: ") and f"'{key}'" in str(err.value)


def test_secrets_without_syndrome_rejected(tmp_path):
    _, secrets = params_a().store(3, np.random.default_rng(7))
    mapping = secrets.to_kv()
    del mapping["s"]
    with pytest.raises(ValueError, match="secrets field 's' is missing"):
        ClientSecrets.from_kv(mapping)
    kv.dump(tmp_path / "secrets.txt", "secrets", mapping)
    with pytest.raises(ValueError, match="secrets field 's' is missing"):
        ClientSecrets.load(tmp_path / "secrets.txt")


@pytest.mark.parametrize("mac_key", [Bits(5 | 2 << 3, 7), Bits(1, 1), Bits(0, 0)])
def test_secrets_with_malformed_mac_key_rejected(mac_key):
    _, secrets = params_a().store(3, np.random.default_rng(7))
    mapping = secrets.to_kv()
    assert ClientSecrets.from_kv(mapping) == secrets
    mapping["mac_key"] = mac_key
    with pytest.raises(ValueError):
        ClientSecrets.from_kv(mapping)


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


@pytest.mark.parametrize(
    "name, broken",
    [
        ("t weight", lambda s: replace(s, layout=TrapLayout(s.layout.t.flip(
            int(s.layout.payload_indices[0]))))),  # one extra trap
        ("t length", lambda s: replace(s, layout=TrapLayout(s.layout.t.concat(Bits(0, 1))))),
        ("v length", lambda s: replace(s, v=s.v.concat(Bits(0, 1)))),
        ("s length", lambda s: replace(s, s=s.s.first(s.s.length - 1))),
        ("m_nabla length", lambda s: replace(s, m_nabla=s.m_nabla.first(s.m_nabla.length - 1))),
        ("mac_key lam", lambda s: replace(
            s, mac_key=MacKey(s.mac_key.a, s.mac_key.b, s.mac_key.lam + 1))),
    ],
    ids=["t-weight", "t-length", "v", "s", "m_nabla", "mac_key"],
)
def test_secrets_that_do_not_fit_params_raise(name, broken):
    # a mismatch is the client's own fault: it must not pass for a server abort
    inst, bundle, secrets, rng = _params_a_session(6)
    with pytest.raises(ValueError, match=f"secrets field {name} is"):
        inst.retrieve(bundle, broken(secrets), rng)
    assert inst.retrieve(bundle, secrets, rng).omega == 1


@pytest.mark.parametrize("length", [1537, 0])
def test_bundle_w_length_builds_no_field(length, tmp_path, monkeypatch):
    # loading must not search for a modulus of a degree the server picked
    # (1,537 has no pin, so building its field would cost a search)
    inst, bundle, secrets, rng = _params_a_session(4)
    mapping = bundle.to_kv()
    mapping["w"] = Bits.random(length, rng)
    kv.dump(tmp_path / "bundle.txt", "bundle", mapping)
    asked = []
    search = gf2.generate_modulus

    def recorder(degree):
        asked.append(degree)
        return search(degree)

    monkeypatch.setattr(gf2, "generate_modulus", recorder)
    loaded = ServerBundle.load(tmp_path / "bundle.txt")
    assert loaded.w.length == length
    _assert_format_abort(inst, loaded, secrets, rng)
    assert length not in asked


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
            assert one_time_pad(u, x, ell) == Bits(product & ((1 << ell) - 1), ell)
    assert one_time_pad(Bits.zeros(n), x, 4) == Bits.zeros(4)


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("operand", ["seed", "payload"])
def test_one_time_pad_rejects_wrong_lengths(operand, delta):
    right, wrong = Bits(0b1011001, 7), Bits(1, 7 + delta)
    u, x = (wrong, right) if operand == "seed" else (right, wrong)
    with pytest.raises(ValueError):
        one_time_pad(u, x, 3)


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
        ideal_recursion_accounting(0.05, 1e6, residual_threshold=0)
    with pytest.raises(ValueError):
        ideal_recursion_accounting(0.12, 1e6, residual_threshold=1e3)  # above threshold
