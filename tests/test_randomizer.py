import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamperstore.bits import Bits
from tamperstore.entropy import DiscreteDistribution, example1, load_distribution, shannon_entropy
from tamperstore.gf2 import GF2Field, NonInvertibleError
from tamperstore.randomizer import (
    ParseError,
    PrefixCode,
    UnknownMessageError,
    build_prefix_code,
    compress,
    decompress,
    derandomize,
    example1_code,
    padded_law,
    randomize,
)
from reference import example1_table


def dist(*probs):
    return DiscreteDistribution(np.arange(len(probs)), np.array(probs))


def optimal_average_length(probs: list[float], max_len: int = 8) -> float:
    """Exhaustive optimal prefix code: search all Kraft-feasible length vectors."""
    probs = sorted(probs, reverse=True)
    best = math.inf
    for lengths in itertools.product(range(1, max_len + 1), repeat=len(probs)):
        if list(lengths) != sorted(lengths):
            continue  # longest codewords to the rarest messages
        if sum(2.0**-l for l in lengths) <= 1 + 1e-12:
            best = min(best, sum(p * l for p, l in zip(probs, lengths)))
    return best


# -- code construction --------------------------------------------------------

def test_two_equiprobable_messages():
    code = build_prefix_code(dist(0.5, 0.5))
    assert sorted(cw.to_01() for cw in code.codewords.values()) == ["0", "1"]
    assert code.max_len == 1


def test_huffman_on_example1_shape():
    L = 6
    code = build_prefix_code(example1(L))
    mu0 = (1 << L) - 1
    assert code.codewords[mu0].length == 1
    assert code.max_len == L + 1


def test_huffman_average_length_bounds():
    rng = np.random.default_rng(0)
    for _ in range(10):
        raw = rng.random(8) + 0.05
        d = dist(*(raw / raw.sum()))
        code = build_prefix_code(d)
        assert code.average_length() <= shannon_entropy(d) + 1 + 1e-9


def test_huffman_matches_exhaustive_optimum():
    rng = np.random.default_rng(1)
    for size in (2, 3, 4, 5):
        for _ in range(4):
            raw = rng.random(size) + 0.05
            p = raw / raw.sum()
            code = build_prefix_code(dist(*p))
            ours = code.average_length()
            assert ours == pytest.approx(optimal_average_length(list(p)), abs=1e-9)


def test_prefix_free_enforced():
    with pytest.raises(ValueError):
        PrefixCode({0: Bits.from_01("1"), 1: Bits.from_01("10")})


def test_overfull_table_is_refused_as_not_prefix_free():
    # Kraft sum 5/4: the prefix check is what refuses it
    with pytest.raises(ValueError, match="codeword 1 is a prefix of 11"):
        PrefixCode({0: Bits.from_01("0"), 1: Bits.from_01("1"), 2: Bits.from_01("11")})


# complete codes (Kraft sum 1) from random binary trees
_COMPLETE = st.recursive(
    st.just([""]),
    lambda sub: st.tuples(sub, sub).map(lambda kids: ["0" + w for w in kids[0]] + ["1" + w for w in kids[1]]),
    max_leaves=16,
)
_TABLES = st.one_of(
    st.lists(st.text("01", max_size=6), min_size=1, max_size=12),
    # a complete code less one word, plus up to two arbitrary words
    st.tuples(_COMPLETE, st.integers(0, 16), st.lists(st.text("01", max_size=6), max_size=2)).map(
        lambda t: [w for i, w in enumerate(t[0]) if i != t[1]] + t[2]
    ),
)


@settings(max_examples=200, deadline=None)
@given(_TABLES)
def test_every_accepted_table_has_kraft_sum_at_most_one(words):
    try:
        code = PrefixCode({i: Bits.from_01(word) for i, word in enumerate(words)})
    except ValueError:
        return
    assert sum(Fraction(1, 2**cw.length) for cw in code.codewords.values()) <= 1


def test_empty_support_rejected():
    with pytest.raises(ValueError):
        build_prefix_code(dist())
    with pytest.raises(ValueError):
        PrefixCode({})


# -- compress / decompress ----------------------------------------------------

def test_full_length_codeword_gets_no_padding():
    code = build_prefix_code(dist(0.5, 0.5))
    assert compress(code.codeword(0), code.max_len, (1 << 64) - 1) == code.codewords[0]


def test_compress_example1_heavy_message():
    L = 8
    code = example1_code(L)
    mu0 = (1 << L) - 1
    rng = np.random.default_rng(3)
    for _ in range(100):
        out = compress(code.codeword(mu0), code.max_len, Bits.random(L, rng).value)
        assert out.length == L + 1
        assert out[0] == 1
        assert decompress(out, code) == mu0


def test_padding_frequency_uniform():
    L = 8
    code = example1_code(L)
    mu0 = (1 << L) - 1
    rng = np.random.default_rng(4)
    counts = np.zeros(1 << L, dtype=int)
    draws = 64 * (1 << L)
    for _ in range(draws):
        padded = compress(code.codeword(mu0), code.max_len, Bits.random(L, rng).value)
        counts[padded.value >> 1] += 1
    assert counts.min() > 0
    expected = draws / (1 << L)
    assert abs(counts.max() - expected) < 0.6 * expected
    assert abs(counts.min() - expected) < 0.6 * expected


def test_decompress_round_trip_any_padding():
    d = dist(0.4, 0.3, 0.2, 0.1)
    code = build_prefix_code(d)
    for message in range(4):
        for padding in range(1 << code.max_len):
            padded = compress(code.codeword(message), code.max_len, padding)
            assert decompress(padded, code) == message


def test_decompress_example1_plain_branch():
    L = 4
    code = example1_code(L)
    for x in range(1 << L):
        if x == (1 << L) - 1:
            continue
        word = Bits.from_01("0").concat(Bits(x, L))
        assert decompress(word, code) == x
    assert decompress(Bits.zeros(L + 1), code) == 0


def test_decompress_parse_error():
    L = 4
    code = example1_code(L)
    mu0_encoding = Bits.from_01("0").concat(Bits((1 << L) - 1, L))
    with pytest.raises(ParseError):  # '0' || mu0 is never produced by compress
        decompress(mu0_encoding, code)


def test_unknown_message_rejected():
    code = build_prefix_code(dist(0.5, 0.5))
    with pytest.raises(UnknownMessageError):
        code.codeword(7)


# -- randomize / derandomize ----------------------------------------------------

def test_identity_seed_splits_in_place():
    rng = np.random.default_rng(6)
    padded = Bits.random(8, rng)
    out = randomize(padded, Bits(1, 8), 5)
    assert out.m == padded.first(5)
    assert out.m_nabla == padded[5:]


def test_round_trip_random_instances():
    field = GF2Field(16)
    rng = np.random.default_rng(7)
    for _ in range(50):
        padded = Bits.random(16, rng)
        w = field.random_nonzero(rng)
        out = randomize(padded, w, 9)
        assert derandomize(out.m, out.m_nabla, w) == padded
        assert out.m_nabla.length == 16 - 9  # local storage accounting


def test_exhaustive_bijection_gf16():
    for w in range(1, 16):
        seed = Bits(w, 4)
        images = set()
        for value in range(16):
            padded = Bits(value, 4)
            out = randomize(padded, seed, 2)
            assert derandomize(out.m, out.m_nabla, seed) == padded
            images.add(out.m.concat(out.m_nabla).value)
        assert len(images) == 16  # bijection for every fixed seed


def test_single_bit_corruption_changes_message():
    field = GF2Field(8)
    rng = np.random.default_rng(8)
    padded = Bits.random(8, rng)
    w = field.random_nonzero(rng)
    out = randomize(padded, w, 4)
    for i in range(4):
        assert derandomize(out.m.flip(i), out.m_nabla, w) != padded


def test_zero_seed_rejected():
    with pytest.raises(NonInvertibleError):
        randomize(Bits.zeros(8), Bits.zeros(8), 4)
    with pytest.raises(NonInvertibleError):
        derandomize(Bits.zeros(4), Bits.zeros(4), Bits.zeros(8))


@pytest.mark.parametrize("seed_len", [7, 9])
def test_seed_of_another_length_rejected(seed_len):
    # the seed's length names its field: it must be the padded length
    seed = Bits(1, seed_len)
    with pytest.raises(ValueError, match="seed length"):
        randomize(Bits.zeros(8), seed, 4)
    with pytest.raises(ValueError, match="seed length"):
        derandomize(Bits.zeros(4), Bits.zeros(4), seed)


def law_of_compress(source: DiscreteDistribution, code: PrefixCode) -> dict[int, float]:
    """{padded value: probability} by running compress over every padding:
    the codeword of m followed by each tail, high padding bits dropped."""
    law = {}
    for m, p in zip(source.outcomes.tolist(), source.probs.tolist()):
        codeword = code.codeword(m)
        pad = code.max_len - codeword.length
        for tail in range(1 << pad):
            padded = compress(codeword, code.max_len, tail | (tail + 1) << pad)  # high bits dropped
            assert padded == codeword.concat(Bits(tail, pad))
            law[padded.value] = law.get(padded.value, 0.0) + p / (1 << pad)
    return law


@pytest.mark.parametrize("L", range(1, 7))
def test_example1_padded_is_the_law_of_compress(L):
    # the randomiser is certified on the padded law of example1(L); it must
    # be exactly what compress emits for m drawn from example1(L), the law
    # example1_code(L) carries, and a uniform padding word
    code, source = example1_code(L), example1(L)
    law = padded_law(code)
    assert dict(zip(law.outcomes.tolist(), law.probs.tolist())) == law_of_compress(source, code)


def test_padded_law_of_a_file_table_is_the_law_of_compress(tmp_path):
    # a Huffman code of unequal lengths, read from a "file:" table
    path = tmp_path / "dist.txt"
    path.write_text("3 0.4\n0 0.25\n7 0.15\n1 0.1\n2 0.06\n5 0.04\n")
    source = load_distribution(path)
    code = build_prefix_code(source)
    assert len({code.codeword(m).length for m in (3, 0, 7, 1, 2, 5)}) > 2
    law = padded_law(code)
    assert dict(zip(law.outcomes.tolist(), law.probs.tolist())) == law_of_compress(source, code)


@pytest.mark.parametrize("L", range(1, 13))
def test_example1_code_is_its_table(L):
    # the closed form against a table built from the rule as strings: every
    # codeword, every message off the code, and parse of every (L+1)-bit word
    code, table = example1_code(L), PrefixCode(example1_table(L))
    assert code.max_len == table.max_len == L + 1
    for m in range(1 << L):
        assert code.codeword(m) == table.codeword(m)
    for m in (-1, 1 << L, 1.5, "0"):
        with pytest.raises(UnknownMessageError):
            code.codeword(m)
    for value in range(1 << (L + 1)):
        word = Bits(value, L + 1)
        try:
            expected = table.parse(word)
        except ParseError:
            with pytest.raises(ParseError):
                code.parse(word)
        else:
            assert code.parse(word) == expected
    for length in range(L + 1):  # only '1' fits in a word shorter than L + 1
        for value in range(1 << length):
            word = Bits(value, length)
            if value & 1:
                assert code.parse(word) == table.parse(word) == ((1 << L) - 1, 1)
            else:
                with pytest.raises(ParseError):
                    code.parse(word)


def test_statistical_distance_exact_convolution():
    # m computed over every (w != 0, padded message) pair, exactly
    L, eps0, ell = 10, 1 / 16, 4
    l0 = L + 1
    field = GF2Field(l0)
    size = 1 << l0
    group = size - 1

    gen = None
    for cand in range(2, size):
        if all(
            field.pow_int(cand, group // p) != 1
            for p in (23, 89)  # prime factors of 2^11 - 1
        ):
            gen = cand
            break
    exp = np.empty(group, dtype=np.int64)
    acc = 1
    for i in range(group):
        exp[i] = acc
        acc = field.mul_int(acc, gen)
    log = np.empty(size, dtype=np.int64)
    log[exp] = np.arange(group)

    padded_dist = padded_law(example1_code(L))
    ids = padded_dist.outcomes
    probs = padded_dist.probs
    bins = np.zeros(1 << ell)
    nonzero = ids != 0
    bins[0] += probs[~nonzero].sum()  # w * 0 = 0 for every seed
    log_ids = log[ids[nonzero]]
    probs_nz = probs[nonzero]
    for w in range(1, size):
        products = exp[(log[w] + log_ids) % group]
        np.add.at(bins, products & ((1 << ell) - 1), probs_nz / group)
    sd = 0.5 * float(np.abs(bins - 2.0**-ell).sum())
    assert sd <= eps0


# -- serialization ---------------------------------------------------------------

def test_code_text_round_trip(tmp_path):
    code = build_prefix_code(dist(0.5, 0.3, 0.2))
    path = tmp_path / "code.txt"
    code.dump(path)
    loaded = PrefixCode.load(path)
    assert loaded.codewords == code.codewords
    assert loaded == code and loaded.law is None  # the law is not written


def test_a_code_without_a_law_has_no_padded_law_or_average_length(tmp_path):
    path = tmp_path / "code.txt"
    build_prefix_code(dist(0.5, 0.3, 0.2)).dump(path)
    loaded = PrefixCode.load(path)
    for call in (lambda: padded_law(loaded), loaded.average_length):
        with pytest.raises(ValueError, match="has no law"):
            call()


def test_example1_code_builds_its_law_when_first_read():
    code = example1_code(4)
    assert "law" not in vars(code)  # a session's set-up builds the code, not the law
    assert code.law is code.law and np.array_equal(code.law.probs, example1(4).probs)
    assert code == example1_code(4)  # the law is not compared


def test_a_law_with_a_message_off_the_table_is_refused():
    table = build_prefix_code(dist(0.5, 0.5)).codewords
    assert PrefixCode(table, dist(0.5, 0.5)).law is not None
    with pytest.raises(ValueError, match="message with no codeword"):
        PrefixCode(table, dist(0.5, 0.25, 0.25))


@pytest.mark.parametrize(
    "text,refusal",
    [
        ("# no codewords\n", "empty codeword table"),
        ("0 10\n1 10\n", "duplicate codewords"),
        ("0 1\n1 10\n", "codeword 1 is a prefix of 10"),
        ("0 0\n1 1\n2 11\n", "codeword 1 is a prefix of 11"),  # Kraft sum 5/4
    ],
    ids=["empty", "duplicate", "prefix", "kraft"],
)
def test_code_file_refusals_name_the_file(tmp_path, text, refusal):
    path = tmp_path / "code.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        PrefixCode.load(path)
    assert str(info.value) == f"{path}: {refusal}"


@pytest.mark.parametrize(
    "above", ["0 1\n", "\n", "# a comment\n"], ids=["table-line", "blank", "comment"]
)
def test_a_record_whose_header_is_not_line_1_is_refused_as_such(tmp_path, above):
    path = tmp_path / "code.txt"
    path.write_text(above + "# tamperstore prefix_code v1\nsource = str:example1:4\n")
    with pytest.raises(ValueError) as info:
        PrefixCode.load(path)
    assert str(info.value) == f"{path}, line 2: a record's header must be on line 1"


def test_example1_code_dump_is_pinned(tmp_path):
    """example1:12 writes a one-line record; its codewords, built as ints,
    are the table that '0' + the 12 bits of mu gave, pinned by the SHA-256
    of that table's text."""
    code = example1_code(12)
    path = tmp_path / "example1.txt"
    code.dump(path)
    assert path.read_text() == "# tamperstore prefix_code v1\nsource = str:example1:12\n"
    assert PrefixCode.load(path) == code
    text = "".join(f"{m} {code.codeword(m).to_01()}\n" for m in range(4096))
    assert text.splitlines()[:2] == ["0 0000000000000", "1 0100000000000"]
    assert text.splitlines()[-1] == "4095 1"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4d7a2fc39c8256f0b00479559be46f9df2e1f96c4ba84a66432a23f8abb3f37a"
    )
