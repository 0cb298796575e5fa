import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamperstore import gf2
from tamperstore.bits import Bits
from tamperstore.gf2 import (
    GF2Field,
    GFTable,
    NonInvertibleError,
    PINNED_MODULI,
    clmul,
    clsq,
    generate_modulus,
    gf_table,
    is_irreducible,
    phi,
    poly_divmod,
    poly_mod,
)
from tamperstore.linear_code import default_registry


def schoolbook_mul(a: int, b: int, modulus: int) -> int:
    """Independent oracle: convolve coefficient lists, then long-divide."""
    da, db = a.bit_length(), b.bit_length()
    coeffs = [0] * (da + db)
    for i in range(da):
        for j in range(db):
            coeffs[i + j] ^= ((a >> i) & 1) & ((b >> j) & 1)
    value = sum(c << k for k, c in enumerate(coeffs))
    deg = modulus.bit_length() - 1
    while value.bit_length() > deg:
        shift = value.bit_length() - modulus.bit_length()
        value ^= modulus << shift
    return value


def test_every_menu_length_is_pinned(monkeypatch):
    def refuse(f):
        raise AssertionError(f"searched degree {f.bit_length() - 1}")

    monkeypatch.setattr(gf2, "is_irreducible", refuse)
    lengths = sorted({spec.n for spec in default_registry().specs()})
    assert lengths and set(lengths) <= set(PINNED_MODULI)
    for n in lengths:
        assert generate_modulus.__wrapped__(n) == PINNED_MODULI[n]


@pytest.mark.parametrize("degree", [1536, 2560])
def test_screened_search_finds_the_pin(degree, monkeypatch):
    pinned = PINNED_MODULI[degree]
    monkeypatch.setattr(gf2, "PINNED_MODULI", {})
    assert generate_modulus.__wrapped__(degree) == pinned


def test_search_writes_nothing_to_home(tmp_path, monkeypatch):
    # 257 is unpinned, so building its field runs the search
    monkeypatch.setenv("HOME", str(tmp_path))
    generate_modulus.cache_clear()
    assert 257 not in PINNED_MODULI
    assert is_irreducible(GF2Field(257).modulus)
    assert list(tmp_path.iterdir()) == []


def test_pinned_moduli_are_irreducible_and_smallest():
    for degree, modulus in PINNED_MODULI.items():
        assert modulus.bit_length() - 1 == degree
        assert is_irreducible(modulus)
        if degree <= 16:  # exhaustively confirm minimality where cheap
            for tail in range(1, (modulus ^ (1 << degree)), 2):
                assert not is_irreducible((1 << degree) | tail)


def test_gf8_spec_example():
    f = GF2Field(3)
    assert f.modulus == 0b1011  # x^3 + x + 1
    assert f.mul_int(0b010, 0b011) == 0b110


def test_mul_identities():
    f = GF2Field(8)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = Bits.random(8, rng).value
        assert f.mul_int(1, a) == a
        assert f.mul_int(0, a) == 0


def test_mul_against_schoolbook_oracle():
    for degree in (3, 4, 8):
        f = GF2Field(degree)
        rng = np.random.default_rng(degree)
        for _ in range(200):
            a, b = Bits.random(degree, rng).value, Bits.random(degree, rng).value
            assert f.mul_int(a, b) == schoolbook_mul(a, b, f.modulus)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_distributes_over_xor(a, b, c):
    f = GF2Field(16)
    assert f.mul_int(a ^ b, c) == f.mul_int(a, c) ^ f.mul_int(b, c)


def test_mul_commutative_associative():
    f = GF2Field(16)
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b, c = (Bits.random(16, rng).value for _ in range(3))
        assert f.mul_int(a, b) == f.mul_int(b, a)
        assert f.mul_int(f.mul_int(a, b), c) == f.mul_int(a, f.mul_int(b, c))


def test_inverse_exhaustive_gf256():
    f = GF2Field(8)
    for v in range(1, 256):
        assert f.mul_int(v, f.inv_int(v)) == 1


@pytest.mark.parametrize("degree", [*range(1, 13), 13, 64, 2560])
def test_inverse_times_element_is_one(degree):
    # every nonzero a up to degree 12, random a above; the inverse is reduced
    f = GF2Field(degree)
    if degree <= 12:
        elements = range(1, 1 << degree)
    else:
        rng = np.random.default_rng(degree)
        elements = [Bits.random(degree, rng).value or 1 for _ in range(40 if degree < 2560 else 8)]
    for a in elements:
        inverse = f.inv_int(a)
        assert 0 < inverse < 1 << degree
        assert f.mul_int(a, inverse) == 1, (degree, a)
    with pytest.raises(NonInvertibleError):
        f.inv_int(0)
    with pytest.raises(NonInvertibleError):
        f.inv_int(f.modulus)  # zero once reduced


def test_inverse_of_one_and_zero():
    f = GF2Field(8)
    assert f.inv_int(1) == 1
    with pytest.raises(NonInvertibleError):
        f.inv_int(0)


def test_phi_identity_seed():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = Bits.random(8, rng)
        assert phi(Bits(1, 8), x, 5) == x.first(5)


def test_phi_length_checked():
    one = Bits(1, 4)
    with pytest.raises(ValueError):
        phi(one, one, 5)


@pytest.mark.parametrize("w_len, x_len", [(3, 4), (4, 3), (0, 4)])
def test_phi_rejects_unequal_lengths(w_len, x_len):
    with pytest.raises(ValueError, match="operands of"):
        phi(Bits.zeros(w_len), Bits.zeros(x_len), 1)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_phi_universal_exhaustive(degree):
    # collision fraction over ALL seeds (zero included) is exactly 2^-l
    size = 1 << degree
    for l in range(1, degree + 1):
        expected = size >> l
        for x, xp in itertools.combinations(range(size), 2):
            bx, bxp = Bits(x, degree), Bits(xp, degree)
            hits = sum(
                phi(Bits(w, degree), bx, l) == phi(Bits(w, degree), bxp, l)
                for w in range(size)
            )
            assert hits == expected


def test_generate_modulus_deterministic_and_verified():
    m1 = generate_modulus(13)
    assert is_irreducible(m1)
    assert m1 == generate_modulus(13)


def test_clsq_equals_clmul_square():
    rng = np.random.default_rng(41)
    operands = [0] + [1 << i for i in (0, 1, 7, 8, 15, 63, 64, 32639)]
    operands += [Bits.random(n, rng).value for n in (1, 8, 9, 100, 2560, 9728, 32640, 32640)]
    for a in operands:
        assert clsq(a) == clmul(a, a), a.bit_length()


def test_poly_mod_matches_divmod():
    rng = np.random.default_rng(5)
    m = generate_modulus(32)
    for _ in range(50):
        p = int(rng.integers(0, 2**63))
        q, r = poly_divmod(p, m)
        assert clmul(q, m) ^ r == p
        assert poly_mod(p, m) == r


def test_random_nonzero_never_zero():
    f = GF2Field(2)
    rng = np.random.default_rng(7)
    assert all(f.random_nonzero(rng).value != 0 for _ in range(200))


def test_random_nonzero_is_the_first_nonzero_bits_draw():
    # the seed w of every stored session comes from these draws
    f = GF2Field(2)
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(50):
        expected = Bits.random(2, theirs)
        while expected.value == 0:
            expected = Bits.random(2, theirs)
        assert f.random_nonzero(ours) == expected


def test_gftable_array_mul_matches_field_on_every_pair():
    table = gf_table(8)
    field = GF2Field(8)
    a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    products = table.mul(a, b)
    for x in range(256):
        for y in range(256):
            expected = field.mul_int(x, y)
            assert products[x, y] == expected
            assert table.mul(x, y) == expected


@pytest.mark.parametrize("m", [3, 4, 8])
def test_gftable_inverse_and_powers(m):
    table = GFTable(m)
    symbols = np.arange(1, 1 << m)
    assert np.all(table.mul(symbols, table.inv(symbols)) == 1)
    with pytest.raises(ZeroDivisionError):
        table.inv(0)
    powers = table.pow_alpha(np.arange(-table.order, 2 * table.order))
    assert sorted(set(powers.tolist())) == list(range(1, 1 << m))  # a generator
    assert table.pow_alpha(-1) == table.inv(table.generator)


# the pad lengths of params C and A (3, 4), then longer outputs up to 128
_MUL_LOW_ELLS = (1, 3, 4, 40, 128)


# the small pinned degrees, 1, 2 and 13, the pad fields of params A and C
# (2560, 9728) and the largest menu length; the other menu pins differ only
# in their tails, which test_modulus_tails_fold_once covers
@pytest.mark.parametrize(
    "degree", [1, 2, 3, 4, 8, 13, 16, 32, 64, 128, 256, 2560, 6656, 9728, 32640]
)
def test_mul_low_matches_full_product(degree):
    field = GF2Field(degree)
    rng = np.random.default_rng(degree)
    mask = (1 << degree) - 1
    ells = [0] + [l for l in _MUL_LOW_ELLS if l <= degree] + ([degree] if degree <= 256 else [])
    # mul_int is the reference: ~8 ms a product at degree 9728
    count = 4 if degree > 10000 else 40 if degree > 1000 else 200
    pairs = [(0, mask), (mask, 0), (mask, mask), (1, mask)]
    pairs += [(Bits.random(degree, rng).value, Bits.random(degree, rng).value) for _ in range(count)]
    for a, b in pairs:
        full = field.mul_int(a, b)
        for ell in ells:
            assert field.mul_low(a, b, ell) == full & ((1 << ell) - 1), (a, b, ell)
    for ell in (-1, degree + 1):
        with pytest.raises(ValueError):
            field.mul_low(1, 1, ell)


def test_modulus_tails_fold_once():
    # the spill of T * c_hi past x^n needs one fold when 2 deg(T) - 2 < n
    for degree in sorted(set(PINNED_MODULI) | set(range(1, 65))):
        tail = generate_modulus(degree) ^ (1 << degree)
        assert 2 * (tail.bit_length() - 1) - 2 < degree, degree


def test_mul_low_folds_long_tails():
    # no pinned modulus has a tail this long; the product mod a reducible
    # x^8 + x^7 + x^6 + x + 1 spills past x^8 several times
    field = GF2Field(8)
    field.modulus = (1 << 8) | 0b11000011
    field._tail = 0b11000011
    rng = np.random.default_rng(8)
    for a, b in rng.integers(0, 256, size=(300, 2)).tolist() + [[255, 255]]:
        full = poly_mod(clmul(a, b), field.modulus)
        for ell in (1, 4, 8):
            assert field.mul_low(a, b, ell) == full & ((1 << ell) - 1), (a, b, ell)
