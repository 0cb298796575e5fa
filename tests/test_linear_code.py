import numpy as np
import pytest

from tamperstore.bits import Bits
from tamperstore.linear_code import (
    _RMRS_MENU,
    CodeRegistry,
    CodeSpec,
    RmRsCode,
    default_registry,
)
from reference import coset_syn_dec, gf2_nullspace, parity_check_matrix, row_int, syndrome


def rank_via_ints(rows: list[int]) -> int:
    """GF(2) rank of rows held as ints."""
    pivots: dict[int, int] = {}
    count = 0
    for value in rows:
        while value:
            lead = value.bit_length()
            if lead in pivots:
                value ^= pivots[lead]
            else:
                pivots[lead] = value
                count += 1
                break
    return count


def random_error(n: int, weight: int, rng: np.random.Generator) -> Bits:
    positions = rng.choice(n, size=weight, replace=False)
    return Bits(int(sum(1 << int(p) for p in positions)), n)


def zeros(code) -> np.ndarray:
    """The zero received cells, against which ``syn_dec`` decodes s itself."""
    return np.zeros(code.n, dtype=np.uint8)


def as_bits(pattern: np.ndarray | None) -> Bits | None:
    """A decoded pattern of cells as ``Bits`` (None stays None)."""
    return None if pattern is None else Bits.from_array(pattern)


# -- GF(2) linear algebra -----------------------------------------------------

def test_nullspace_and_right_inverse():
    rng = np.random.default_rng(0)
    mat = (rng.random((4, 9)) < 0.5).astype(np.uint8)
    while rank_via_ints([row_int(row) for row in mat]) < 4:
        mat = (rng.random((4, 9)) < 0.5).astype(np.uint8)
    null = gf2_nullspace(mat)
    assert null.shape[0] == 9 - 4
    assert not np.any((mat @ null.T) % 2)


# -- concatenated RS * RM ----------------------------------------------------------

def test_inner_rm_codeword_table_is_generator_encoding():
    from tamperstore.linear_code import _inner_rm

    inner = _inner_rm()
    for symbol in range(256):
        msg = np.array([(symbol >> b) & 1 for b in range(inner.k)], dtype=np.int64)
        expected = (msg @ inner.gen.astype(np.int64)) % 2
        assert np.array_equal(inner.encode(np.array([symbol]))[0], expected)
        assert inner.symbols(inner.encode(np.array([symbol])))[0] == symbol


def test_inner_rm_syndrome_is_parity_check_product():
    from tamperstore.linear_code import _inner_rm

    inner = _inner_rm()
    h = gf2_nullspace(inner.gen).astype(np.int64)
    rng = np.random.default_rng(9)
    words = (rng.random((200, inner.n)) < 0.5).astype(np.uint8)
    checks = inner.syndrome(words, inner.symbols(words))
    assert np.array_equal(checks, (words.astype(np.int64) @ h.T) % 2)


def test_inner_rm_ml_decoding():
    from tamperstore.linear_code import _inner_rm

    inner = _inner_rm()
    rng = np.random.default_rng(10)
    symbols = rng.integers(0, 256, size=40)
    words = inner.encode(symbols)
    # correlation definition check on a few rows: m0 = bit 0, a = the rest
    T = np.array([[(-1) ** int(w[v]) for v in range(inner.n)] for w in words[:3]])
    for row, symbol in zip(T, symbols[:3].tolist()):
        a_lin = symbol >> 1
        corr = sum(
            row[v] * (-1) ** (int(bin(a_lin & v).count("1")) & 1) for v in range(inner.n)
        )
        assert corr == inner.n * (-1) ** (symbol & 1)
    # up to 31 flips per block are always corrected
    for trial in range(40):
        noisy = words.copy()
        for i in range(noisy.shape[0]):
            weight = int(rng.integers(0, inner.t_corr + 1))
            flips = rng.choice(inner.n, size=weight, replace=False)
            noisy[i, flips] ^= 1
        assert np.array_equal(syn_dec_ml(inner, noisy), symbols)


def syn_dec_ml(inner, words: np.ndarray) -> np.ndarray:
    """The ML symbols as ``syn_dec`` reads them: ``symbols_at`` the first
    largest |U|."""
    U = inner.transform(words)
    return inner.symbols_at(U, np.argmax(np.abs(U), axis=1))


def butterfly_transform(words: np.ndarray, m: int) -> np.ndarray:
    """The constant-geometry fast Hadamard transform of the signs."""
    T = 1 - 2 * words.astype(np.int32)
    for _ in range(m):
        a, b = T[:, 0::2], T[:, 1::2]
        T = np.concatenate((a + b, a - b), axis=1)
    return T


def butterfly_decode(words: np.ndarray, m: int) -> np.ndarray:
    """ML decoding by the butterfly transform, kept as the oracle."""
    T = butterfly_transform(words, m)
    best = np.argmax(np.abs(T), axis=1)
    return (T[np.arange(len(T)), best] < 0) | best << 1


@pytest.mark.parametrize("blocks", [12, 76])  # the rs(12,4) and rs(76,5) shapes
def test_inner_rm_decode_matches_butterfly(blocks):
    from tamperstore.linear_code import _inner_rm

    inner = _inner_rm()
    rng = np.random.default_rng(blocks)
    batches = [
        (rng.random((blocks, inner.n)) < density).astype(np.uint8)
        for density in np.linspace(0, 1, 17)
    ]
    # ties: halfway between two codewords, so two |T[a]| share the maximum
    first, second = rng.integers(0, 256, (2, blocks))
    second[first >> 1 == second >> 1] ^= 2  # distinct a: the codewords differ in n/2 places
    tied = inner.encode(first)
    for row, diff in enumerate(inner.encode(first) ^ inner.encode(second)):
        flips = rng.permutation(np.flatnonzero(diff))[: inner.n // 4]
        tied[row, flips] ^= 1
    batches.append(tied)
    batches.append(inner.encode(rng.integers(0, 256, blocks)))
    ties = 0
    for words in batches:
        assert np.array_equal(inner.transform(words), -butterfly_transform(words, inner.m) / 2)
        assert np.array_equal(syn_dec_ml(inner, words), butterfly_decode(words, inner.m))
        T = 1 - 2 * words.astype(np.int64) @ (1 - 2 * inner.codewords[0::2].astype(np.int64))
        ties += int(np.sum((np.abs(T) == np.abs(T).max(axis=1, keepdims=True)).sum(axis=1) > 1))
    assert ties >= blocks  # every row of the tied batch, at least


def make_rmrs():
    return RmRsCode(12, 4)  # n=1536, kappa=32, t_out=4, t_corr=159


def test_rmrs_parameters():
    code = make_rmrs()
    assert code.n == 1536 and code.kappa == 32
    assert code.t_corr == (4 + 1) * 32 - 1 == 159
    assert code.syndrome_len == 1536 - 32


def test_rmrs_parity_check_matches_structural_syndrome():
    code = make_rmrs()
    h = parity_check_matrix(code)
    assert rank_via_ints(h) == code.syndrome_len
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = Bits.random(code.n, rng)
        assert code.syn(x.to_array()) == syndrome(h, x)


def test_rmrs_syndrome_linearity():
    code = make_rmrs()
    rng = np.random.default_rng(12)
    for _ in range(10):
        x, y = Bits.random(code.n, rng), Bits.random(code.n, rng)
        assert code.syn((x ^ y).to_array()) == code.syn(x.to_array()) ^ code.syn(y.to_array())


def test_rmrs_vandermonde_inverse_for_every_redundancy():
    # _v_inv . V = I over GF(2^8), V[j-1, i] = alpha^(j i) on the first r positions
    built = {}
    for n, k in _RMRS_MENU:
        built.setdefault(n - k, (n, k))
    for r, (n, k) in sorted(built.items()):
        code = RmRsCode(n, k)
        t = code.table
        v = t.pow_alpha(np.outer(np.arange(1, r + 1), np.arange(r)))
        product = np.zeros((r, r), dtype=np.int64)
        for j in range(r):
            product ^= t.mul(code._v_inv[:, j, None], v[j])
        assert np.array_equal(product, np.eye(r, dtype=np.int64)), (n, k)


@pytest.mark.parametrize("n,k", [(12, 4), (76, 5)])
def test_rmrs_syndromes_match_scalar_loop(n, k):
    # s_j = sum_i y_i (alpha^i)^j, with the big-int field ops as reference
    code = RmRsCode(n, k)
    field = code.table.field
    locators = [field.pow_int(code.table.generator, i) for i in range(n)]
    rng = np.random.default_rng(n)
    for _ in range(3):
        symbols = rng.integers(0, 256, size=n)
        symbols[rng.random(n) < 0.3] = 0
        expected = [0] * code.redundancy
        for y, x in zip(symbols.tolist(), locators):
            term = y
            for j in range(code.redundancy):
                term = field.mul_int(term, x)
                expected[j] ^= term
        assert code._rs_syndromes(symbols).tolist() == expected


@pytest.mark.parametrize("n,k", [(12, 4), (20, 4), (76, 5), (255, 2)])
def test_rmrs_preimage_hits_its_syndromes(n, k):
    code = RmRsCode(n, k)
    rng = np.random.default_rng(n)
    for _ in range(20):
        s = rng.integers(0, 256, size=code.redundancy)
        pre = code._rs_preimage(s)
        assert not pre[code.redundancy :].any()
        assert np.array_equal(code._rs_syndromes(pre), s)


@pytest.mark.parametrize("n,k", [(12, 2), (20, 4), (76, 5), (255, 16)])
def test_rmrs_log_products_equal_table_mul(n, k):
    # the kept log matrices give what table.mul of the symbol matrices gives
    code = RmRsCode(n, k)
    t, r = code.table, code.redundancy
    powers = t.pow_alpha(np.outer(np.arange(1, r + 1), np.arange(n)))
    rng = np.random.default_rng(n + k)
    for density in (0.0, 0.3, 1.0):
        symbols = rng.integers(0, 256, size=n) * (rng.random(n) < density)
        synd = np.bitwise_xor.reduce(t.mul(powers, symbols), axis=1)
        assert np.array_equal(code._rs_syndromes(symbols), synd)
        pre = np.zeros(n, dtype=np.int64)
        pre[:r] = np.bitwise_xor.reduce(t.mul(code._v_inv, synd), axis=1)
        assert np.array_equal(code._rs_preimage(synd), pre)
    assert not code._rs_preimage(np.zeros(r, dtype=np.int64)).any()


def radius_codes():
    return [make_rmrs(), RmRsCode(76, 5)]  # the small test code and the params-C code


def test_rmrs_decodes_random_patterns_within_radius():
    rng = np.random.default_rng(13)
    for code in radius_codes():
        for _ in range(300):
            weight = int(rng.integers(0, code.t_corr + 1))
            e = random_error(code.n, weight, rng)
            assert as_bits(code.syn_dec(code.syn(e.to_array()), zeros(code))) == e


def test_rmrs_decodes_adversarial_pattern_at_radius():
    # worst case: t_out blocks saturated past the inner radius, plus one
    # block carrying exactly the inner radius
    rng = np.random.default_rng(14)
    for code in radius_codes():
        inner_n = code.inner.n
        for _ in range(20):
            blocks = rng.choice(code.outer_n, size=code.t_out + 1, replace=False)
            pattern = np.zeros(code.n, dtype=np.uint8)
            for b in blocks[: code.t_out]:
                flips = rng.choice(inner_n, size=code.inner.t_corr + 1, replace=False)
                pattern[b * inner_n + flips] = 1
            flips = rng.choice(inner_n, size=code.inner.t_corr, replace=False)
            pattern[blocks[-1] * inner_n + flips] = 1
            e = Bits.from_array(pattern)
            assert e.weight() == code.t_corr
            assert as_bits(code.syn_dec(code.syn(e.to_array()), zeros(code))) == e


def test_rmrs_beyond_radius_fails_or_stays_sound():
    # flip whole blocks to other inner codewords: the symbol errors are then
    # certain, and t_out + 1 of them exceed what the outer code can absorb
    rng = np.random.default_rng(15)
    for code in radius_codes():
        inner = code.inner
        failures = 0
        for _ in range(20):
            blocks = rng.choice(code.outer_n, size=code.t_out + 1, replace=False)
            pattern = np.zeros(code.n, dtype=np.uint8)
            for b in blocks:
                symbols = rng.integers(0, 256, size=2)
                while symbols[0] == symbols[1]:
                    symbols = rng.integers(0, 256, size=2)
                diff = inner.encode(symbols)
                pattern[b * inner.n : (b + 1) * inner.n] = diff[0] ^ diff[1]
            e = Bits.from_array(pattern)
            assert e.weight() > code.t_corr
            out = code.syn_dec(code.syn(e.to_array()), zeros(code))
            if out is None:
                failures += 1
            else:
                assert code.syn(out) == code.syn(e.to_array())
        assert failures > 0, code.name


def test_rmrs_step8_identity():
    code = make_rmrs()
    rng = np.random.default_rng(16)
    for _ in range(50):
        x = Bits.random(code.n, rng)
        e = random_error(code.n, int(rng.integers(0, code.t_corr + 1)), rng)
        xp = x ^ e
        s = code.syn(x.to_array())
        pattern = as_bits(code.syn_dec(s ^ code.syn(xp.to_array()), zeros(code)))
        assert pattern is not None and xp ^ pattern == x


@pytest.mark.parametrize("n,k", [(20, 4), (76, 5), (12, 2), (255, 16)])  # A, C, menu ends
def test_syn_dec_toward_received_equals_decoding_the_difference(n, k):
    code = RmRsCode(n, k)
    inner = code.inner
    rng = np.random.default_rng(n * 256 + k)
    failures = 0
    for case in range(18):
        x = Bits.random(code.n, rng)
        if case % 3 == 0:  # within the radius
            e = random_error(code.n, int(rng.integers(0, code.t_corr + 1)), rng)
        elif case % 3 == 1:  # beyond it: every bit flipped with probability up to 1/2
            e = Bits.from_array((rng.random(code.n) < rng.uniform(0, 0.5)).astype(np.uint8))
        else:  # bursts: whole blocks replaced by random bits
            burst = np.zeros((code.outer_n, inner.n), dtype=np.uint8)
            size = int(rng.integers(1, code.outer_n + 1))
            blocks = rng.choice(code.outer_n, size=size, replace=False)
            burst[blocks] = rng.integers(0, 2, (size, inner.n))
            e = Bits.from_array(burst.reshape(-1))
        s, received = code.syn(x.to_array()), x ^ e
        pattern = as_bits(code.syn_dec(s, received.to_array()))
        assert pattern == as_bits(code.syn_dec(s ^ code.syn(received.to_array()), zeros(code)))
        if pattern is None:
            failures += 1
        else:
            assert code.syn((received ^ pattern).to_array()) == s
        if case % 3 == 0:
            assert received ^ pattern == x
    assert failures > 0
    x = Bits.random(code.n, rng)
    assert as_bits(code.syn_dec(code.syn(x.to_array()), x.to_array())) == Bits.zeros(code.n)


def tied_blocks(code: RmRsCode, s: Bits, received: Bits) -> int:
    """Blocks of the word decoded with two or more nearest inner codewords."""
    inner_words, _ = code._unpack_syndrome(s)
    z = received.to_array().reshape(code.outer_n, -1) ^ inner_words
    T = np.abs(butterfly_transform(z, code.inner.m))
    return int(np.sum((T == T.max(axis=1, keepdims=True)).sum(axis=1) > 1))


@pytest.mark.parametrize("n,k", [(12, 4), (20, 4), (76, 5)])
def test_received_frame_decode_matches_coset_word_decode(n, k):
    code = RmRsCode(n, k)
    inner = code.inner
    rng = np.random.default_rng(n * 256 + k + 1)
    ties = 0
    kinds = ("within", "beyond", "burst", "ties")
    for case in range(4 * 60):
        kind = kinds[case % 4]
        x = Bits.random(code.n, rng)
        if kind == "within":
            e = random_error(code.n, int(rng.integers(0, code.t_corr + 1)), rng)
        elif kind == "beyond":
            e = Bits.from_array((rng.random(code.n) < rng.uniform(0, 0.5)).astype(np.uint8))
        else:
            blocks = np.zeros((code.outer_n, inner.n), dtype=np.uint8)
            size = int(rng.integers(1, code.outer_n + 1))
            hit = rng.choice(code.outer_n, size=size, replace=False)
            if kind == "burst":  # whole blocks replaced by random bits
                blocks[hit] = rng.integers(0, 2, (size, inner.n))
            else:  # blocks halfway between two inner codewords
                first, second = rng.integers(0, 256, (2, size))
                second[first >> 1 == second >> 1] ^= 2  # distinct a: n/2 apart
                blocks[hit] = inner.encode(first)
                for row, diff in zip(hit, inner.encode(first) ^ inner.encode(second)):
                    flips = rng.permutation(np.flatnonzero(diff))[: inner.n // 4]
                    blocks[row, flips] ^= 1
            e = Bits.from_array(blocks.reshape(-1))
        s, received = code.syn(x.to_array()), x ^ e
        ties += tied_blocks(code, s, received)
        pattern = as_bits(code.syn_dec(s, received.to_array()))
        assert pattern == coset_syn_dec(code, s, received), (kind, case)
        assert pattern == as_bits(code.syn_dec(s ^ code.syn(received.to_array()), zeros(code)))
        assert as_bits(code.syn_dec(s, zeros(code))) == coset_syn_dec(code, s)
    assert ties > 0


def random_codeword(code: RmRsCode, rng: np.random.Generator) -> np.ndarray:
    """Free symbols past the redundancy, the preimage of their RS syndromes
    on the first positions, each symbol inner-encoded."""
    symbols = rng.integers(0, 256, size=code.outer_n)
    symbols[: code.redundancy] = 0
    symbols ^= code._rs_preimage(code._rs_syndromes(symbols))
    return code.inner.encode(symbols).reshape(-1)


def test_codewords_have_zero_syndrome():
    rng = np.random.default_rng(17)
    for code in radius_codes():
        for _ in range(3):
            assert code.syn(random_codeword(code, rng)).value == 0
    code = make_rmrs()  # and against the reference H
    h = parity_check_matrix(code)
    assert syndrome(h, Bits.from_array(random_codeword(code, rng))).value == 0


@pytest.fixture(scope="module", params=[(20, 4), (52, 4), (76, 5)], ids=lambda nk: "rs(%d,%d)" % nk)
def reference_h(request):
    """The code of params A, B or C and its H from the generator, built once."""
    code = RmRsCode(*request.param)
    return code, parity_check_matrix(code)


def test_syn_matches_reference_h_at_reference_codes(reference_h):
    code, h = reference_h
    rng = np.random.default_rng(19)
    words = [Bits.zeros(code.n), Bits((1 << code.n) - 1, code.n)]
    words.append(Bits.from_array(random_codeword(code, rng)))
    words += [Bits.random(code.n, rng) for _ in range(3)]
    for i, x in enumerate(words):
        assert code.syn(x.to_array()) == syndrome(h, x), i
    assert code.syn(words[2].to_array()).value == 0


def test_syndrome_linearity():
    code = RmRsCode(76, 5)  # the params-C code; make_rmrs has its own test
    rng = np.random.default_rng(2)
    for _ in range(5):
        x, y = Bits.random(code.n, rng), Bits.random(code.n, rng)
        assert code.syn((x ^ y).to_array()) == code.syn(x.to_array()) ^ code.syn(y.to_array())


def test_zero_syndrome_decodes_to_zero():
    for code in radius_codes():
        assert as_bits(code.syn_dec(Bits.zeros(code.syndrome_len), zeros(code))) == Bits.zeros(code.n)


# -- registry -------------------------------------------------------------------

@pytest.mark.parametrize("n,k", [(12, 2), (76, 5), (255, 16)])
def test_spec_of_matches_built_code(n, k):
    spec, code = RmRsCode.spec_of(n, k), RmRsCode(n, k)
    built = (code.name, code.n, code.kappa, code.t_corr)
    assert (spec.name, spec.n, spec.kappa, spec.t_corr) == built


def test_registry_build_by_name():
    reg = default_registry()
    code = reg.by_name("rs(12,4)*rm(1,7)")
    assert isinstance(code, RmRsCode)
    assert reg.by_name("rs(12,4)*rm(1,7)") is code
    assert reg.build(reg.spec("rs(12,4)*rm(1,7)")) is code


def test_registry_holds_only_the_menu():
    reg = CodeRegistry()
    names = [spec.name for spec in reg.specs()]
    assert len(names) == len(set(names)) == len(_RMRS_MENU)
    assert reg.specs() == [RmRsCode.spec_of(n, k) for n, k in _RMRS_MENU]
    with pytest.raises(KeyError):
        reg.by_name("hamming(7,4)")
    with pytest.raises(KeyError):
        reg.build(CodeSpec("hamming(7,4)", 7, 4, 1))
    with pytest.raises(KeyError):
        reg.build(RmRsCode.spec_of(13, 4))  # a valid code, but not on the menu


# -- certified hard decisions ---------------------------------------------------

def boundary_received(code: RmRsCode, x: Bits, distance: int, rng) -> np.ndarray:
    """x plus errors that put t_out blocks of the decoding frame at exactly
    ``distance`` from the codeword of a wrong hard decision.

    Received as x, each block of the frame is the codeword c of x's own
    symbol.  For a block, a symbol h with another a is drawn, and the
    errors flip every information position where c and encode(h) differ,
    so the block reads h there, plus more of their 64 differing positions
    up to 64 - distance flips: the block is then ``distance`` from
    encode(h) and 64 - distance from c."""
    inner = code.inner
    frame = inner.encode(inner.symbols(x.to_array().reshape(code.outer_n, inner.n)))
    errors = np.zeros((code.outer_n, inner.n), dtype=np.uint8)
    info = np.zeros(inner.n, dtype=bool)
    info[inner.info] = True
    for block in rng.choice(code.outer_n, size=code.t_out, replace=False):
        own = int(inner.symbols(frame[block : block + 1])[0])
        h = int(rng.integers(0, 256))
        while h >> 1 == own >> 1:
            h = int(rng.integers(0, 256))
        differ = frame[block] ^ inner.encode(np.array([h]))[0]
        on_info = np.flatnonzero(differ.astype(bool) & info)
        rest = rng.permutation(np.flatnonzero(differ.astype(bool) & ~info))
        flips = np.concatenate((on_info, rest[: inner.n // 2 - distance - on_info.size]))
        errors[block, flips] = 1
        assert inner.symbols(frame[block : block + 1] ^ errors[block : block + 1])[0] == h
    return x.to_array() ^ errors.reshape(-1)


@pytest.mark.parametrize("n,k", [(12, 4), (20, 4), (76, 5)])
def test_certification_boundary_matches_coset_word_decode(n, k):
    # at distance 31 the wrong hard decision is certified and is the ML
    # symbol; at 32 it ties with the sent codeword and goes to the transform
    code = RmRsCode(n, k)
    inner = code.inner
    rng = np.random.default_rng(n * 256 + k + 2)
    for distance in (inner.t_corr, inner.t_corr + 1):
        ties = 0
        for _ in range(6):
            x = Bits.random(code.n, rng)
            cells = boundary_received(code, x, distance, rng)
            received, s = Bits.from_array(cells), code.syn(x.to_array())
            ties += tied_blocks(code, s, received)
            pattern = as_bits(code.syn_dec(s, cells))
            assert pattern == coset_syn_dec(code, s, received), distance
            assert pattern == as_bits(code.syn_dec(s ^ code.syn(received.to_array()), zeros(code)))
            assert pattern is not None and received ^ pattern == x  # t_out symbol errors
        assert (ties > 0) == (distance > inner.t_corr)


@pytest.mark.parametrize("n,k", [(20, 4), (76, 5)])
def test_transform_sees_only_uncertified_blocks(n, k, monkeypatch):
    code = RmRsCode(n, k)
    inner = code.inner
    seen = []
    transform = inner.transform

    def counting(words):
        seen.append(words.copy())
        return transform(words)

    monkeypatch.setattr(inner, "transform", counting)
    rng = np.random.default_rng(n + 3)
    x = Bits.random(code.n, rng)
    s = code.syn(x.to_array())
    # noise-free, and every block within the radius off the information positions
    assert as_bits(code.syn_dec(s, x.to_array())) == Bits.zeros(code.n)
    assert as_bits(code.syn_dec(Bits.zeros(code.syndrome_len), zeros(code))) == Bits.zeros(code.n)
    errors = np.zeros((code.outer_n, inner.n), dtype=np.uint8)
    for row in errors:
        row[rng.choice(inner.check, size=int(rng.integers(0, inner.t_corr + 1)), replace=False)] = 1
    e = Bits.from_array(errors.reshape(-1))
    assert as_bits(code.syn_dec(s, (x ^ e).to_array())) == e
    assert seen == []
    # otherwise exactly the blocks more than the radius from their hard decision
    inner_words, _ = code._unpack_syndrome(s)
    for rate in (0.05, 0.15, 0.3):
        cells = (x ^ Bits.from_array((rng.random(code.n) < rate).astype(np.uint8))).to_array()
        z = cells.reshape(code.outer_n, inner.n) ^ inner_words
        far = (z ^ inner.encode(inner.symbols(z))).sum(axis=1) > inner.t_corr
        seen.clear()
        code.syn_dec(s, cells)
        if far.any():
            assert len(seen) == 1 and np.array_equal(seen[0], z[far]), rate
        else:
            assert seen == []
    assert far.any()


def test_syn_dec_refuses_cells_of_the_wrong_shape_or_dtype():
    code = make_rmrs()
    s = Bits.zeros(code.syndrome_len)
    cells = np.zeros(code.n, dtype=np.uint8)
    assert as_bits(code.syn_dec(s, cells)) == Bits.zeros(code.n)
    assert code.syn(cells) == s
    for bad in (
        Bits.zeros(code.n),
        cells[:-1],
        np.zeros(code.n + 1, dtype=np.uint8),
        cells.reshape(code.outer_n, -1),
        cells.astype(np.int64),
        cells.astype(bool),
        cells.astype(np.float32),
        list(cells),
    ):
        with pytest.raises(ValueError, match="uint8 array of shape"):
            code.syn_dec(s, bad)
        with pytest.raises(ValueError, match="uint8 array of shape"):  # syn takes the same cells
            code.syn(bad)
