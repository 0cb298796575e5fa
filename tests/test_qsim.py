import numpy as np
import pytest

from tamperstore.bits import Bits
from tamperstore.experiments import InterceptResend, PassiveEve
from tamperstore.qsim import (
    EveView,
    QubitRegister,
    TrapLayout,
    apply_storage_noise,
    measure,
    measure_indices,
    prepare,
    replace_cells,
)
from reference import where_collapse


def prepare_bits(xi: Bits, t: Bits) -> QubitRegister:
    return prepare(xi.to_array(), t.to_array())


def measure_bits(reg: QubitRegister, bases: Bits, rng) -> Bits:
    return Bits.from_array(measure(reg, bases.to_array(), rng))


def random_setup(total, r, rng):
    xi = Bits.random(total, rng)
    layout = TrapLayout.random(total, r, rng)
    reg = prepare_bits(xi, layout.t)
    return xi, layout, reg


def test_same_basis_measurement_is_faithful():
    rng = np.random.default_rng(0)
    xi, layout, reg = random_setup(200, 50, rng)
    assert measure_bits(reg, layout.t, rng) == xi


def test_all_standard_degenerate_layout():
    rng = np.random.default_rng(1)
    xi = Bits.random(64, rng)
    reg = prepare_bits(xi, Bits.zeros(64))
    assert measure_bits(reg, Bits.zeros(64), rng) == xi


def test_prepare_refuses_xi_and_t_of_unequal_length():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="equal length"):
        prepare_bits(Bits.random(8, rng), Bits.from_01("1100000"))
    assert TrapLayout(Bits.from_01("110")).r == 2  # r is the weight of t, never stored apart


def test_checkpoint_round_trip_preserves_hidden_state():
    rng = np.random.default_rng(3)
    _, layout, reg = random_setup(77, 20, rng)
    blob = reg.to_bytes()
    clone = QubitRegister.from_bytes(blob)
    assert clone.to_bytes() == blob  # byte-compare oracle
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    assert measure_bits(reg, layout.t, rng_a) == measure_bits(clone, layout.t, rng_b)


def test_noise_identity_at_zero():
    rng = np.random.default_rng(4)
    xi, layout, reg = random_setup(500, 100, rng)
    before = reg.to_bytes()
    apply_storage_noise(reg, 0.0, rng)
    assert reg.to_bytes() == before


def test_noise_flip_rate_confidence_interval():
    rng = np.random.default_rng(5)
    n, beta0 = 100_000, 0.05
    xi = Bits.random(n, rng)
    reg = prepare_bits(xi, Bits.zeros(n))
    apply_storage_noise(reg, beta0, rng)
    out = measure_bits(reg, Bits.zeros(n), rng)
    rate = (out ^ xi).weight() / n
    sigma = (beta0 * (1 - beta0) / n) ** 0.5
    assert abs(rate - beta0) <= 3 * sigma


def test_noise_composition_convolution():
    rng = np.random.default_rng(6)
    n, b0, b1 = 100_000, 0.05, 0.1
    xi = Bits.random(n, rng)
    reg = prepare_bits(xi, Bits.zeros(n))
    apply_storage_noise(reg, b0, rng)
    apply_storage_noise(reg, b1, rng)
    out = measure_bits(reg, Bits.zeros(n), rng)
    expected = b0 * (1 - b1) + b1 * (1 - b0)
    rate = (out ^ xi).weight() / n
    sigma = (expected * (1 - expected) / n) ** 0.5
    assert abs(rate - expected) <= 3 * sigma


def test_cross_basis_outcomes_uniform():
    rng = np.random.default_rng(7)
    n = 100_000
    xi = Bits.random(n, rng)
    reg = prepare_bits(xi, Bits.zeros(n))  # all standard
    ones = Bits((1 << n) - 1, n)
    out = measure_bits(reg, ones, rng)  # all Hadamard
    freq = out.weight() / n
    assert abs(freq - 0.5) <= 0.005


def test_measurement_collapses():
    rng = np.random.default_rng(8)
    n = 1000
    xi = Bits.random(n, rng)
    reg = prepare_bits(xi, Bits.zeros(n))
    bases = Bits.random(n, rng)
    first = measure_bits(reg, bases, rng)
    again = measure_bits(reg, bases, rng)
    assert first == again


def test_intercept_resend_random_basis_error_rate():
    rng = np.random.default_rng(9)
    n = 100_000
    xi = Bits.random(n, rng)
    t = Bits.zeros(n)
    reg = prepare_bits(xi, t)
    InterceptResend(policy="random-basis").apply(EveView(reg), {}, rng)
    out = measure_bits(reg, t, rng)
    rate = (out ^ xi).weight() / n
    sigma = (0.25 * 0.75 / n) ** 0.5
    assert abs(rate - 0.25) <= 3 * sigma


def test_intercept_resend_all_standard_split_rates():
    rng = np.random.default_rng(10)
    n = 100_000
    xi = Bits.random(n, rng)
    layout = TrapLayout.random(n, n // 2, rng)
    reg = prepare_bits(xi, layout.t)
    InterceptResend(policy="all-standard").apply(EveView(reg), {}, rng)
    out = measure_bits(reg, layout.t, rng)
    errors = (out ^ xi).to_array()
    standard_rate = errors[layout.payload_indices].mean()
    trap_rate = errors[layout.trap_indices].mean()
    assert standard_rate == 0.0  # matching basis, no disturbance
    sigma = (0.25 / (n / 2)) ** 0.5
    assert abs(trap_rate - 0.5) <= 3 * sigma


def test_passive_strategy_is_identity():
    rng = np.random.default_rng(11)
    xi, layout, reg = random_setup(300, 60, rng)
    before = reg.to_bytes()
    PassiveEve().apply(EveView(reg), {}, rng)
    assert reg.to_bytes() == before


def test_eve_view_exposes_only_legal_surface():
    rng = np.random.default_rng(12)
    _, _, reg = random_setup(16, 4, rng)
    view = EveView(reg)
    public = {name for name in dir(view) if not name.startswith("_")}
    assert public == {"measure", "replace", "size"}
    for leaky in ("basis", "value", "reg", "register", "_basis", "_value"):
        with pytest.raises(AttributeError):
            getattr(view, leaky)


def test_eve_cannot_read_preparation_without_disturbance():
    # cross-basis measurement through the view returns fresh coin flips
    rng = np.random.default_rng(13)
    n = 40_000
    xi = Bits.zeros(n)  # deterministic preparation values
    reg = prepare_bits(xi, Bits.zeros(n))
    view = EveView(reg)
    out = view.measure(np.arange(n), np.ones(n, dtype=np.uint8), rng)
    assert abs(out.mean() - 0.5) <= 3 * (0.25 / n) ** 0.5


def split(layout: TrapLayout, word: np.ndarray) -> tuple[Bits, Bits]:
    """(trap part, payload part) of a 0/1 word: ``traps`` and the payload
    cells ``store`` gathers, packed here to compare with ``Bits``."""
    return layout.traps(word), Bits.from_array(word[layout.payload_indices])


def merge(layout: TrapLayout, traps: Bits, payload: Bits) -> Bits:
    """The word whose split is (traps, payload): the inverse of ``split``."""
    word = np.empty(layout.t.length, dtype=np.uint8)
    word[layout.trap_indices] = traps.to_array()
    word[layout.payload_indices] = payload.to_array()
    return Bits.from_array(word)


def test_trap_layout_split_merge_round_trip():
    rng = np.random.default_rng(14)
    word = Bits.random(50, rng)
    layout = TrapLayout.random(50, 13, rng)
    v, x = split(layout, word.to_array())
    assert v.length == 13 and x.length == 37
    assert merge(layout, v, x) == word


def layouts_both_ways(total, r, rng):
    """A layout from ``random`` and the same trap string built directly,
    as ``ClientSecrets.from_kv`` builds it."""
    drawn = TrapLayout.random(total, r, rng)
    return drawn, TrapLayout(Bits(drawn.t.value, total))


@pytest.mark.parametrize("total,r", [(1, 0), (1, 1), (50, 13), (64, 64), (777, 0), (14436, 4708)])
def test_trap_layout_indices_partition_positions(total, r):
    rng = np.random.default_rng(total + r)
    for layout in layouts_both_ways(total, r, rng):
        traps, payload = layout.trap_indices, layout.payload_indices
        assert traps.size == r and payload.size == total - r
        assert np.all(np.diff(traps) > 0) and np.all(np.diff(payload) > 0)
        assert sorted(traps.tolist() + payload.tolist()) == list(range(total))
        assert all(layout.t[i] == 1 for i in traps.tolist())


@pytest.mark.parametrize("total,r", [(50, 13), (333, 100), (14436, 4708)])
def test_trap_layout_split_matches_position_loop(total, r):
    rng = np.random.default_rng(total)
    for layout in layouts_both_ways(total, r, rng):
        for _ in range(3):
            word = Bits.random(total, rng)
            v, x = split(layout, word.to_array())
            trap_bits = [word[i] for i in range(total) if layout.t[i]]
            payload_bits = [word[i] for i in range(total) if not layout.t[i]]
            assert v == Bits.from_array(trap_bits) and x == Bits.from_array(payload_bits)
            assert merge(layout, v, x) == word
            assert split(layout, merge(layout, v, x).to_array()) == (v, x)


def test_trap_layout_cached_indices_are_read_only():
    layout = TrapLayout.random(40, 9, np.random.default_rng(16))
    split(layout, np.zeros(40, dtype=np.uint8))
    for indices in (layout.trap_indices, layout.payload_indices):
        with pytest.raises(ValueError):
            indices[0] = 1
    assert layout.trap_indices.size == 9 and layout.payload_indices.size == 31


def test_trap_layouts_stay_equal_and_hash_equal_with_filled_caches():
    drawn, built = layouts_both_ways(200, 60, np.random.default_rng(17))
    assert drawn == built and hash(drawn) == hash(built)
    split(drawn, np.zeros(200, dtype=np.uint8))
    merge(built, Bits.zeros(60), Bits.zeros(140))
    assert drawn == built and hash(drawn) == hash(built)
    assert len({drawn, built}) == 1
    moved = drawn.t.flip(int(drawn.trap_indices[0])).flip(int(drawn.payload_indices[0]))
    other = TrapLayout(moved)
    assert other != drawn


def test_trap_layout_uniformity_smoke():
    rng = np.random.default_rng(15)
    counts = np.zeros(6)
    for _ in range(6000):
        layout = TrapLayout.random(6, 2, rng)
        counts[layout.trap_indices] += 1
    expected = 6000 * 2 / 6
    assert np.all(np.abs(counts - expected) < 5 * expected**0.5)


def test_checkpoint_rejects_truncated_or_padded_bytes():
    rng = np.random.default_rng(5)
    _, _, reg = random_setup(77, 20, rng)
    blob = reg.to_bytes()
    for raw in (b"", blob[:1], blob[:5], blob[:-1], blob + b"\0"):
        with pytest.raises(ValueError):
            QubitRegister.from_bytes(raw)


@pytest.mark.parametrize("plane,offset", [("basis", 5), ("value", 6)])
def test_checkpoint_rejects_nonzero_padding_bits(plane, offset):
    # 3 qubits: basis 0b110, value 0b101, one byte each with 5 padding bits
    blob = QubitRegister(np.array([0, 1, 1]), np.array([1, 0, 1])).to_bytes()
    assert blob == bytes.fromhex("0103000000" "06" "05")
    raw = bytearray(blob)
    raw[offset] |= 0x80
    with pytest.raises(ValueError, match=plane):
        QubitRegister.from_bytes(bytes(raw))


def half_mismatched_register(n, seed):
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, 2, n, dtype=np.uint8)
    value = rng.integers(0, 2, n, dtype=np.uint8)
    requested = rng.integers(0, 2, n, dtype=np.uint8)  # about half disagree with basis
    return QubitRegister(basis, value), requested


@pytest.mark.parametrize("n", [1, 37, 14436])
def test_measure_equals_select_oracle(n):
    reg, requested = half_mismatched_register(n, n)
    basis, value = (a.copy() for a in reg._records())
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    outcome = measure(reg, requested, rng)
    expected = where_collapse(basis, value, requested, oracle_rng)
    assert outcome.dtype == np.uint8 and np.array_equal(outcome, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert all(np.array_equal(a, b) for a, b in zip(reg._records(), (requested, expected)))


@pytest.mark.parametrize("n", [2, 50, 14436])
def test_measure_indices_equals_select_oracle(n):
    reg, requested = half_mismatched_register(n, n + 1)
    basis, value = (a.copy() for a in reg._records())
    indices = np.random.default_rng(n).permutation(n)[: n // 2]
    rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
    outcome = measure_indices(reg, indices, requested[indices], rng)
    expected = where_collapse(basis[indices], value[indices], requested[indices], oracle_rng)
    assert np.array_equal(outcome, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    basis[indices], value[indices] = requested[indices], expected
    assert all(np.array_equal(a, b) for a, b in zip(reg._records(), (basis, value)))


def test_measure_all_agreeing_returns_values_and_draws_nothing():
    rng = np.random.default_rng(21)
    xi, layout, reg = random_setup(14436, 4708, rng)
    state = rng.bit_generator.state
    outcome = measure(reg, layout.mask, rng)
    assert outcome.dtype == np.uint8 and np.array_equal(outcome, xi.to_array())
    assert rng.bit_generator.state == state
    assert all(np.array_equal(a, b) for a, b in zip(reg._records(), (layout.mask, outcome)))
    outcome[0] ^= 1  # a copy, not a view of the records
    assert reg._records()[1][0] == xi[0]


@pytest.mark.parametrize("total,r", [(1, 0), (1, 1), (50, 13), (14436, 4708)])
def test_trap_layout_seeded_mask_equals_built_mask(total, r):
    drawn, built = layouts_both_ways(total, r, np.random.default_rng(total))
    assert "mask" in vars(drawn) and "mask" not in vars(built)
    assert drawn.mask.dtype == built.mask.dtype == np.uint8
    assert np.array_equal(drawn.mask, built.mask)
    assert np.array_equal(drawn.mask, drawn.t.to_array())
    for layout in (drawn, built):
        with pytest.raises(ValueError):
            layout.mask[0] = 1 - layout.mask[0]
    assert drawn == built and hash(drawn) == hash(built)


@pytest.mark.parametrize("basis,value", [([2], [0]), ([0], [2]), ([0, 1], [1, -1]),
                                         ([0.5], [0]), ([[0]], [[1]])])
def test_register_rejects_cells_outside_01(basis, value):
    with pytest.raises(ValueError):
        QubitRegister(np.array(basis), np.array(value))


BAD_CELLS = {
    "uint8-2": np.array([0, 2], np.uint8),
    "uint8-255": np.array([255, 1], np.uint8),
    "int8-minus-1": np.array([0, -1], np.int8),
    "int64-minus-1": np.array([-1, 1], np.int64),
    "float-01": np.array([0.0, 1.0]),
    "2-d": np.array([[0], [1]], np.uint8),
    "ragged": [[0, 1], [1]],
}


@pytest.mark.parametrize("bad", BAD_CELLS.values(), ids=BAD_CELLS)
def test_register_refuses_each_kind_of_bad_cell(bad):
    # unsigned and bool arrays skip the min() check; each kind still refuses
    good = np.array([0, 1], np.uint8)
    for basis, value in ((bad, good), (good, bad)):
        with pytest.raises(ValueError):
            QubitRegister(basis, value)


def test_register_accepts_bool_and_signed_01_cells():
    reg = QubitRegister(np.array([True, False, True]), np.array([0, 1, 1], np.int8))
    assert reg.to_bytes() == QubitRegister(np.array([1, 0, 1]), np.array([0, 1, 1])).to_bytes()


def test_register_owns_copies_of_its_cells():
    rng = np.random.default_rng(29)
    xi = Bits.random(64, rng).to_array()
    layout = TrapLayout.random(64, 20, rng)
    reg = prepare(xi, layout.mask)
    before = reg.to_bytes()
    xi ^= 1  # the caller's array is the caller's
    with pytest.raises(ValueError):
        layout.mask[:] = 0  # and the layout's mask stays read-only
    assert reg.to_bytes() == before
    basis, value = reg._records()
    assert not np.shares_memory(basis, layout.mask) and not np.shares_memory(value, xi)


def test_replace_and_measure_reject_bases_outside_01():
    reg, _ = half_mismatched_register(8, 19)
    before = reg.to_bytes()
    view = EveView(reg)
    for bad in ([2], [-1], [0.5]):
        with pytest.raises(ValueError):
            replace_cells(reg, [0], bad, [1])
        with pytest.raises(ValueError):
            replace_cells(reg, [0], [1], bad)
        with pytest.raises(ValueError):
            view.replace([0], bad, [0])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            measure_indices(reg, [0], bad, rng)
        with pytest.raises(ValueError):
            view.measure([0], bad, rng)
        with pytest.raises(ValueError):
            measure(reg, np.array(bad * 8), rng)
        assert rng.bit_generator.state == state  # nothing drawn
    assert reg.to_bytes() == before


@pytest.mark.parametrize(
    "size,indices",
    [(8, [0, 0]), (8, [5, 2, 5]), (1, [0, -1]), (8, [-1]), (8, [8])],
    ids=["repeat", "repeat-apart", "negative-alias", "negative", "past-end"],
)
def test_measure_indices_refuses_repeated_or_outside_cells(size, indices):
    # a repeat would measure one cell in Z and X from the same pre-call record
    reg, _ = half_mismatched_register(size, 23)
    before = reg.to_bytes()
    bases = np.arange(len(indices)) % 2
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        measure_indices(reg, indices, bases, rng)
    with pytest.raises(ValueError):
        EveView(reg).measure(indices, bases, rng)
    assert reg.to_bytes() == before
    assert rng.bit_generator.state == state  # nothing drawn


@pytest.mark.parametrize(
    "indices,bases,values",
    [
        (np.array([0.9, 2.7]), [0, 1], [1, 1]),
        ([0, 0], [0, 1], [1, 0]),
        ([5], [1], [1]),
        ([0, 1, 2], [1], [1]),
        ([0, 1, 2], [1, 1, 1], [1]),
        ([True, False, True], [1, 1, 1], [1, 1, 1]),
        ([[0], [1]], [1, 1], [1, 1]),
        ([], [], []),
    ],
    ids=["float", "repeat", "past-end", "broadcast-both", "broadcast-value",
         "bool", "2-d", "empty-float"],
)
def test_replace_and_measure_refuse_bad_cell_lists(indices, bases, values):
    # one shared check: integer dtype, in range, distinct, one entry per cell
    reg, _ = half_mismatched_register(3, 29)
    before = reg.to_bytes()
    view = EveView(reg)
    with pytest.raises(ValueError):
        replace_cells(reg, indices, bases, values)
    with pytest.raises(ValueError):
        view.replace(indices, bases, values)
    if np.shape(bases) == np.shape(values):  # a measurement lists no values
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            measure_indices(reg, indices, bases, rng)
        with pytest.raises(ValueError):
            view.measure(indices, bases, rng)
        assert rng.bit_generator.state == state  # nothing drawn
    assert reg.to_bytes() == before


def test_replace_accepts_distinct_integer_cells():
    reg, _ = half_mismatched_register(3, 31)
    for dtype in (np.int64, np.uint8, np.intp):
        replace_cells(reg, np.array([2, 0], dtype=dtype), [1, 0], [0, 1])
        basis, value = reg._records()
        assert basis.tolist()[::2] == [0, 1] and value.tolist()[::2] == [1, 0]
    replace_cells(reg, np.array([], dtype=np.int64), [], [])  # nothing listed
