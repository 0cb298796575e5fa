import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from tamperstore.attack_lab import (
    SchemeError,
    ToyScheme,
    bb84_toy,
    best_permutation,
    classical_otp_toy,
    permutation_average_win_given_not_star,
    advantage_floor,
    run_support,
    fixed_advantage_witness,
)
from tamperstore import attack_lab

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)


# -- scheme validation ---------------------------------------------------------

def test_dimension_cap():
    with pytest.raises(SchemeError, match="cap"):
        ToyScheme("big", (0,), np.array([1.0]), (0,), np.ones((1, 1, 128)))


@pytest.mark.parametrize(
    "probs,states,why",
    [
        ([1.5, -0.5], np.array([[KET0], [KET1]]), "nonnegative"),
        ([0.5, 0.4], np.array([[KET0], [KET1]]), "sum to 1"),
        ([0.5, 0.5], np.array([[KET0], [0 * KET1]]), "nonzero"),
        ([0.5, 0.5], np.array([[KET0], [np.nan * KET1]]), "finite"),
        ([0.5, 0.5], np.array([KET0, KET1]), "one state vector per"),
    ],
    ids=["negative-prior", "prior-sum", "zero-vector", "nan-vector", "no-key-axis"],
)
def test_scheme_refuses_bad_priors_and_states(probs, states, why):
    with pytest.raises(SchemeError, match=why):
        ToyScheme("bad", (0, 1), np.array(probs), (0,), states)


def test_states_are_normalised():
    states = np.array([[3 * KET0], [2j * KET1]])
    scheme = ToyScheme("scaled", (0, 1), np.array([0.5, 0.5]), (0,), states)
    assert np.allclose(np.linalg.norm(scheme.states, axis=-1), 1.0, atol=1e-15)
    assert scheme.states[1, 0, 1] == pytest.approx(1j)


# -- the toy scheme of record ------------------------------------------------------

def toy():
    return bb84_toy(2, 1)  # |M| = 4, |K| = 2


def test_scheme_orthogonality_holds():
    toy().check_orthogonality()


def test_non_orthogonal_scheme_rejected():
    states = np.array([[KET0], [PLUS]])  # |+> overlaps with |0>
    scheme = ToyScheme("broken", (0, 1), np.array([0.5, 0.5]), (0,), states)
    with pytest.raises(SchemeError) as err:
        scheme.check_orthogonality()
    assert "overlap" in str(err.value)


def _density_reference(scheme, m_star):
    """(p1, p0, acc1, acc0) per (m, k) from density matrices and projectors."""

    def support(vectors):
        eigvals, eigvecs = np.linalg.eigh(sum(np.outer(v, v.conj()) for v in vectors))
        keep = eigvecs[:, eigvals > 1e-9 * eigvals.max()]
        return keep @ keep.conj().T

    pi = support(scheme.states[scheme.messages.index(m_star)])
    comp = support(scheme.states.reshape(-1, scheme.dim)) - pi
    out = np.empty(scheme.states.shape[:2] + (4,))
    for i, j in np.ndindex(scheme.states.shape[:2]):
        psi = scheme.states[i, j]
        rho = np.outer(psi, psi.conj())
        branches = (pi @ rho @ pi, comp @ rho @ comp)
        out[i, j] = [np.trace(b).real for b in branches] + [
            np.trace(rho @ b).real for b in branches
        ]
    return out


def _random_scheme(rng, messages=3, keys=2, dim=5):
    """Complex states; each key's encryptions are orthonormal columns."""
    states = np.empty((messages, keys, dim), dtype=complex)
    for k in range(keys):
        raw = rng.normal(size=(dim, messages)) + 1j * rng.normal(size=(dim, messages))
        states[:, k] = np.linalg.qr(raw)[0].T
    probs = rng.dirichlet(np.ones(messages))
    return ToyScheme("random", tuple(range(messages)), probs, tuple(range(keys)), states)


@pytest.mark.parametrize(
    "build",
    [lambda: bb84_toy(3, 1), lambda: bb84_toy(3, 2), lambda: classical_otp_toy(2),
     lambda: _random_scheme(np.random.default_rng(3))],
    ids=["bb84-3-1", "bb84-3-2", "otp-2", "random-complex"],
)
def test_branch_tensors_match_density_matrix_reference(build):
    scheme = build()
    for m_star in scheme.messages:
        got = attack_lab._branch_tensors(scheme, m_star)
        assert np.allclose(got, _density_reference(scheme, m_star), rtol=0, atol=1e-12)


def test_run_support_exact_values_uniform_prior():
    report = run_support(toy())
    # exact rational values for two qubits and one shared basis bit
    assert report.win_and_acc_given_star == pytest.approx(1.0, abs=1e-10)
    assert report.pr_acc == pytest.approx(2 / 3, abs=1e-10)
    assert report.pr_win_and_acc == pytest.approx(7 / 12, abs=1e-10)
    assert report.pr_win_given_acc == pytest.approx(7 / 8, abs=1e-10)
    assert report.advantage == pytest.approx(5 / 8, abs=1e-10)
    assert report.povm_defect <= 1e-10
    assert report.pr_acc >= report.p_star - 1e-10  # overall acceptance floor


def test_outcome_probabilities_sum_to_one():
    report = run_support(toy())
    assert report.povm_defect <= 1e-10


def test_win_and_acc_on_star_message_every_key():
    scheme = toy()
    for m_star in scheme.messages:
        report = run_support(scheme, m_star=m_star)
        assert report.win_and_acc_given_star == pytest.approx(1.0, abs=1e-10)


def test_acceptance_floor_nonuniform_priors():
    rng = np.random.default_rng(0)
    for _ in range(5):
        raw = rng.random(4) + 0.05
        probs = raw / raw.sum()
        scheme = bb84_toy(2, 1, probs=probs)
        report = run_support(scheme)
        assert report.pr_acc >= report.p_star - 1e-10


def test_advantage_floor_met_on_registered_schemes():
    for scheme, probs in [
        (bb84_toy(2, 1), np.array([0.5, 0.25, 0.125, 0.125])),
        (bb84_toy(2, 1), np.full(4, 0.25)),
        (bb84_toy(3, 2), np.array([0.5] + [0.5 / 7] * 7)),
    ]:
        _, advantage, info = best_permutation(scheme, probs)
        p_star = float(np.max(probs))
        floor = advantage_floor(p_star, len(scheme.keys), len(scheme.messages))
        assert advantage >= floor - 1e-9
        assert info["coverage"] == 1.0


def test_uniform_prior_is_permutation_invariant():
    scheme = toy()
    probs = np.full(4, 0.25)
    values = set()
    for perm in itertools.permutations(range(4)):
        prior = probs[list(perm)]
        star = int(np.argmax(prior))
        _, acc, win_acc = attack_lab._branch_sums(scheme, prior[None, :], np.array([star]))[0]
        values.add(round(win_acc / acc - prior[star], 12))
    assert len(values) == 1


def test_permutation_average_floor():
    scheme = toy()
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    avg = permutation_average_win_given_not_star(scheme, probs)
    assert avg >= 1 - len(scheme.keys) / len(scheme.messages) - 1e-9


def test_otp_scheme_has_no_advantage():
    scheme = classical_otp_toy(2)
    assert advantage_floor(0.25, 4, 4) == 0.0
    _, advantage, _ = best_permutation(scheme, np.full(4, 0.25))
    assert advantage == pytest.approx(0.0, abs=1e-9)


def test_fixed_advantage_witness_values():
    report = fixed_advantage_witness(0.5, qubit_sizes=(2, 3, 4))
    assert report["floor"] == pytest.approx(1 / 8)
    for row in report["rows"]:
        assert row["keys"] == row["messages"] // 2
        assert row["measured_advantage"] >= row["floor"] - 1e-9


def test_witness_floor_scales_with_usefulness():
    small = fixed_advantage_witness(0.5, qubit_sizes=(3,))
    big = fixed_advantage_witness(0.75, qubit_sizes=(3,))  # key fraction 1/4
    assert small["floor"] < big["floor"]
    for row in big["rows"]:
        assert row["measured_advantage"] >= row["floor"] - 1e-9
    assert advantage_floor(0.5, 4, 4) == 0.0  # Y -> 0: no contradiction


def test_scheme_file_round_trip(tmp_path):
    scheme = toy()
    path = tmp_path / "scheme.txt"
    scheme.dump(path)
    loaded = ToyScheme.load(path)
    assert loaded.messages == scheme.messages
    assert loaded.keys == scheme.keys
    assert np.array_equal(loaded.probs, scheme.probs)
    assert np.array_equal(loaded.states, scheme.states)
    report_a, report_b = run_support(scheme), run_support(loaded)
    assert report_a.pr_win_given_acc == pytest.approx(
        report_b.pr_win_given_acc, abs=1e-12
    )


def test_report_csv(tmp_path):
    report = run_support(toy())
    path = tmp_path / "report.csv"
    report.to_csv(path)
    body = path.read_text().splitlines()
    assert body[0].startswith("message,key,prior")
    assert len(body) == 1 + 4 * 2


# -- pinned exact values ---------------------------------------------------------

SKEW = np.array([0.5, 0.25, 0.125, 0.125])
EIGHTH_HEAVY = np.array([0.5] + [0.5 / 7] * 7)
# (pr_project, pr_acc, pr_win_and_acc), the same for every key of a message
HIT, MISS, MIXED = ("1", "1", "1"), ("1", "1", "0"), ("1/3", "5/9", "4/9")
REPORT_FIELDS = (
    "p_star", "pr_win", "pr_acc", "pr_win_and_acc", "pr_win_given_acc", "advantage",
    "win_and_acc_given_star", "povm_defect",
)


def _exact(text: str) -> float:
    return float(Fraction(text))


@pytest.mark.parametrize(
    "build,fields,per_message",
    [
        (lambda: bb84_toy(2, 1), "1/4 3/4 2/3 7/12 7/8 5/8", [HIT] + [MIXED] * 3),
        (lambda: bb84_toy(2, 1, probs=SKEW), "1/2 5/6 7/9 13/18 13/14 3/7", [HIT] + [MIXED] * 3),
        (lambda: bb84_toy(3, 2), "1/8 5/8 2/3 11/24 11/16 9/16",
         [HIT, MIXED, MISS] + [MIXED] * 5),
        (lambda: classical_otp_toy(2), "1/4 1/4 1 1/4 1/4 0", [HIT] + [MISS] * 3),
    ],
    ids=["bb84-2-1", "bb84-2-1-skewed", "bb84-3-2", "otp-2"],
)
def test_attack_report_pinned_values(build, fields, per_message):
    scheme = build()
    report = run_support(scheme)
    assert report.m_star == 0
    for name, value in zip(REPORT_FIELDS, fields.split() + ["1", "0"], strict=True):
        assert getattr(report, name) == pytest.approx(_exact(value), abs=1e-12), name
    pairs = list(itertools.product(scheme.messages, scheme.keys))
    assert len(report.rows) == len(pairs)
    for row, (m, k) in zip(report.rows, pairs):
        assert (row["message"], row["key"], row["prior"]) == (m, k, scheme.probs[m])
        got = (row["pr_project"], row["pr_acc"], row["pr_win_and_acc"])
        assert got == pytest.approx([_exact(v) for v in per_message[m]], abs=1e-12)


@pytest.mark.parametrize(
    "build,probs,advantage",
    [
        (lambda: bb84_toy(2, 1), SKEW, "3/7"),
        (lambda: bb84_toy(2, 1), np.full(4, 0.25), "5/8"),
        (lambda: bb84_toy(3, 2), EIGHTH_HEAVY, "6/17"),
        (lambda: classical_otp_toy(2), np.full(4, 0.25), "0"),
    ],
    ids=["bb84-2-1-skewed", "bb84-2-1-uniform", "bb84-3-2", "otp-2"],
)
def test_best_permutation_pinned_advantage(build, probs, advantage):
    scheme = build()
    perm, best, _ = best_permutation(scheme, probs)
    assert best == pytest.approx(_exact(advantage), abs=1e-12)
    # the returned placement attains the advantage it reports
    placed = replace(scheme, probs=probs[list(perm)])
    assert run_support(placed).advantage == pytest.approx(best, abs=1e-12)


def test_best_permutation_sampled_search():
    # |M| = 16 > 8: a random search over 2,000 of the 16! placements
    scheme, probs = bb84_toy(4, 2), np.array([0.5] + [0.5 / 15] * 15)
    perm, best, info = best_permutation(scheme, probs)
    assert 0 < info["coverage"] < 1
    assert best == pytest.approx(54 / 115, abs=1e-12)
    floor = advantage_floor(0.5, len(scheme.keys), len(scheme.messages))
    assert floor == 0.1875 and best >= floor
    placed = replace(scheme, probs=probs[list(perm)])
    assert run_support(placed).advantage == pytest.approx(best, abs=1e-12)


def test_permutation_average_pinned():
    for probs in (np.array([0.4, 0.3, 0.2, 0.1]), SKEW):
        avg = permutation_average_win_given_not_star(toy(), probs)
        assert avg == pytest.approx(2 / 3, abs=1e-12)


def test_fixed_advantage_witness_pinned():
    for y, sizes, expected in [(0.5, (2, 3, 4), ["3/7", "6/17", "12/37"]), (0.75, (3,), ["21/43"])]:
        rows = fixed_advantage_witness(y, qubit_sizes=sizes)["rows"]
        measured = [row["measured_advantage"] for row in rows]
        assert measured == pytest.approx([_exact(v) for v in expected], abs=1e-12)


def test_supports_and_branches_built_once(monkeypatch):
    checks, builds = [], []
    check = ToyScheme.check_orthogonality
    build = attack_lab._branch_tensors
    monkeypatch.setattr(ToyScheme, "check_orthogonality", lambda s: checks.append(1) or check(s))
    monkeypatch.setattr(
        attack_lab, "_branch_tensors", lambda s, m: builds.append(m) or build(s, m)
    )
    scheme = toy()
    run_support(scheme)
    best_permutation(scheme, SKEW)
    permutation_average_win_given_not_star(scheme, SKEW)
    run_support(scheme, m_star=2)
    assert len(checks) == 1
    assert sorted(builds) == list(scheme.messages)  # once per m*
