import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from tamperstore.attack_lab import (
    DensityOperator,
    Projector,
    SchemeError,
    ToyScheme,
    bb84_toy,
    best_permutation,
    classical_otp_toy,
    dump_scheme,
    load_scheme,
    permutation_average_win_given_not_star,
    advantage_floor,
    run_support,
    support_projector,
    fixed_advantage_witness,
)
from tamperstore import attack_lab

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)


# -- operator types -------------------------------------------------------------

def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1.0, 0.0], [0.0, 1.0]]))  # trace 2
    DensityOperator(np.array([[0.5, 0.0], [0.0, 0.25]]))  # subnormalised is fine


def test_dimension_cap():
    with pytest.raises(ValueError):
        DensityOperator(np.eye(128) / 128)


def test_projector_validation():
    Projector(np.outer(PLUS, PLUS))
    with pytest.raises(ValueError):
        Projector(np.array([[0.5, 0.0], [0.0, 0.5]]))


def test_support_projector_single_pure():
    rho = DensityOperator.pure(KET0)
    pi = support_projector([rho])
    assert float(np.real(np.trace(pi.matrix))) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pi.matrix, np.outer(KET0, KET0), atol=1e-12)


def test_support_projector_orthogonal_pair():
    pi = support_projector([DensityOperator.pure(KET0), DensityOperator.pure(KET1)])
    assert float(np.real(np.trace(pi.matrix))) == pytest.approx(2.0, abs=1e-12)


def test_support_projector_bb84_pair_spans_qubit():
    pi = support_projector([DensityOperator.pure(KET0), DensityOperator.pure(PLUS)])
    assert np.allclose(pi.matrix, np.eye(2), atol=1e-9)


def test_support_projector_dimension_mismatch():
    with pytest.raises(ValueError):
        support_projector([DensityOperator.pure(KET0), DensityOperator.pure(np.ones(4))])


# -- the toy scheme of record ------------------------------------------------------

def toy():
    return bb84_toy(2, 1)  # |M| = 4, |K| = 2


def test_scheme_orthogonality_holds():
    toy().check_orthogonality()


def test_non_orthogonal_scheme_rejected():
    states = {
        (0, 0): DensityOperator.pure(KET0),
        (1, 0): DensityOperator.pure(PLUS),  # overlaps with |0>
    }
    verification = {key: rho.matrix for key, rho in states.items()}
    scheme = ToyScheme(
        "broken", (0, 1), np.array([0.5, 0.5]), (0,), states, verification
    )
    with pytest.raises(SchemeError) as err:
        scheme.check_orthogonality()
    assert "overlap" in str(err.value)


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
    dump_scheme(scheme, path)
    loaded = load_scheme(path)
    assert loaded.messages == scheme.messages
    assert loaded.keys == scheme.keys
    for key in scheme.states:
        assert np.allclose(
            loaded.states[key].matrix, scheme.states[key].matrix, atol=1e-12
        )
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
    placed = ToyScheme(
        scheme.name, scheme.messages, probs[list(perm)], scheme.keys, scheme.states,
        scheme.verification,
    )
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
