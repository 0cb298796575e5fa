import math

import pytest

from tamperstore.entropy import binary_entropy
from tamperstore.params import (
    InfeasibleParamsError,
    ProtocolParams,
    asymptotic_rates,
    correctness_bound,
    derive_params,
    ideal_code_scaling,
    qkd_threshold,
    sampling_bad_event_bound,
    security_bound,
)


def test_r_floor_example():
    # eps = 0.01, beta0 = 0.05: the floor evaluates to ceil(132.1) = 133
    floor = (0.45) ** -2 * 4 * math.log(8 / 0.01)
    assert math.ceil(floor) == 133
    params = derive_params(0.01, 0.05, 3, ell0=13)
    assert params.r >= 133


@pytest.mark.parametrize(
    "epsilon,beta0,ell,code_name,n,r,kappa,lam",
    [
        (0.05, 0.0, 4, "rs(20,4)*rm(1,7)", 2560, 1276, 32, 15),  # A
        (0.05, 0.05, 4, "rs(52,4)*rm(1,7)", 6656, 3269, 32, 17),  # B
        (0.01, 0.05, 3, "rs(76,5)*rm(1,7)", 9728, 4708, 40, 19),  # C
    ],
    ids=["A", "B", "C"],
)
def test_recipe_pinned_at_reference_sets(epsilon, beta0, ell, code_name, n, r, kappa, lam):
    # a registry edit that moves the recipe's choice at A, B or C fails here
    p = derive_params(epsilon, beta0, ell, ell0=13)
    assert (p.code_name, p.n, p.r, p.kappa, p.lam) == (code_name, n, r, kappa, lam)


def test_budget_split():
    p = derive_params(0.05, 0.05, 4, ell0=13)
    assert p.eps0 == 0.05 / 16
    assert p.eps_mac == 0.05 / 8
    assert p.eps_qp <= 0.05 / 8  # tightened to make the kappa identity exact


def test_constructed_constraints_hold():
    for eps, beta0, ell in [(0.05, 0.05, 4), (0.01, 0.05, 3), (0.05, 0.0, 4), (0.2, 0.08, 2)]:
        p = derive_params(eps, beta0, ell)
        assert p.beta0 < p.beta
        assert p.beta + p.nu < 0.5
        assert p.n > 2 * p.r
        p.validate()


def test_delta_plug_back_is_eighth_of_epsilon():
    for eps, beta0 in [(0.05, 0.05), (0.01, 0.05), (0.1, 0.0)]:
        p = derive_params(eps, beta0, 4)
        assert abs(p.delta - eps / 8) <= 1e-9


def test_correctness_bound_leq_epsilon_by_plugback():
    for eps, beta0 in [(0.05, 0.05), (0.01, 0.05), (0.2, 0.08)]:
        p = derive_params(eps, beta0, 2)
        assert correctness_bound(p) <= eps


def test_registry_noise_ceiling_reported():
    # around beta0 ~ 0.1 the registered radius fraction leaves no margin
    with pytest.raises(InfeasibleParamsError) as err:
        derive_params(0.2, 0.1, 2)
    assert err.value.constraint == "no-code"
    assert "best ratio" in str(err.value)


def test_security_bound_exact_on_aligned_budget():
    # eps = 2^-7 makes 4 log2(8/eps) an integer, and ell = 2 byte-aligns kappa,
    # so no tightening happens anywhere and the four terms sum to eps exactly
    eps = 2.0**-7
    p = derive_params(eps, 0.05, 2)
    assert p.eps_qp == eps / 8
    assert security_bound(p) == pytest.approx(eps, abs=1e-12)


def test_security_bound_never_exceeds_epsilon():
    for eps, beta0, ell in [(0.05, 0.05, 4), (0.01, 0.05, 3), (0.1, 0.02, 5)]:
        p = derive_params(eps, beta0, ell)
        assert security_bound(p) <= eps + 1e-9


def test_code_radius_covers_accepted_rate():
    from tamperstore.linear_code import default_registry

    for eps, beta0 in [(0.05, 0.05), (0.01, 0.05)]:
        p = derive_params(eps, beta0, 4)
        code = default_registry().by_name(p.code_name)
        assert code.t_corr >= math.ceil(p.n * (p.beta + p.nu))


def test_vacuous_bound_at_beta_equal_beta0():
    p = derive_params(0.05, 0.05, 4)
    vacuous = ProtocolParams(
        **{**p.__dict__, "beta": p.beta0 + 1e-15}
    )
    assert correctness_bound(vacuous) >= 1.0


def test_bounds_monotone():
    p = derive_params(0.05, 0.05, 4)
    bigger_r = ProtocolParams(**{**p.__dict__, "r": p.r * 2})
    assert correctness_bound(bigger_r) < correctness_bound(p)
    double_nu = ProtocolParams(**{**p.__dict__, "nu": 2 * p.nu})
    # doubling nu quadruples the sampling exponent
    assert math.log(double_nu.delta) == pytest.approx(4 * math.log(p.delta), rel=1e-9)


def test_infeasible_reports_constraint():
    with pytest.raises(InfeasibleParamsError) as err:
        derive_params(0.6, 0.05, 4)
    assert err.value.constraint == "epsilon-range"
    with pytest.raises(InfeasibleParamsError) as err:
        derive_params(0.01, 0.4, 4)  # no code can reach beta0 = 0.4
    assert err.value.constraint == "no-code"
    with pytest.raises(InfeasibleParamsError):
        derive_params(0.05, 0.05, 0)


def test_kappa_identity_enforced_by_validate():
    p = derive_params(0.05, 0.05, 4)
    broken = ProtocolParams(**{**p.__dict__, "kappa": p.kappa + 1})
    with pytest.raises(InfeasibleParamsError) as err:
        broken.validate()
    assert err.value.constraint == "kappa-identity"


def test_pad_seed_length_is_n():
    # the pad multiplies u by x in GF(2^n), so d is n and is not stored
    p = derive_params(0.05, 0.05, 4)
    assert p.d == p.n
    mapping = p.to_kv()
    assert "d" not in mapping
    assert ProtocolParams.from_kv({**mapping, "d": p.n}) == p  # older files carry d


def test_params_file_round_trip(tmp_path):
    from tamperstore import kv

    p = derive_params(0.01, 0.05, 3, ell0=13)
    p.dump(tmp_path / "params.txt")
    assert ProtocolParams.load(tmp_path / "params.txt") == p
    # a file of another kind fails on its header, naming the kind expected
    kv.dump(tmp_path / "secrets.txt", "secrets", p.to_kv())
    with pytest.raises(ValueError, match="expected a params file, got 'secrets'"):
        ProtocolParams.load(tmp_path / "secrets.txt")


# -- bound calculators ---------------------------------------------------------

def test_sampling_bound_value():
    # n=100, r=50, nu=0.1: exponent 2*0.01*50*(5000/(150*51))
    expected = math.exp(-2 * 0.01 * 50 * (100 * 50) / (150 * 51))
    assert sampling_bad_event_bound(100, 50, 0.1) == pytest.approx(expected)


# -- asymptotics ------------------------------------------------------------------

def test_asymptotic_rates_at_zero_noise():
    rates = asymptotic_rates(0.0)
    assert rates.n_per_ell == 1.0
    assert rates.syndrome_per_ell == 0.0
    assert rates.recursive_per_ell == 1.0


def test_asymptotic_rates_reference_point():
    rates = asymptotic_rates(0.05)
    assert rates.n_per_ell == pytest.approx(1.4014, abs=1e-3)
    assert rates.syndrome_per_ell == pytest.approx(0.4014, abs=1e-3)
    assert rates.recursive_per_ell == pytest.approx(2.3412, abs=1e-3)


def test_threshold_root():
    root = qkd_threshold()
    assert root == pytest.approx(0.110028, abs=1e-6)
    assert 1 - 2 * binary_entropy(root) == pytest.approx(0.0, abs=1e-9)


def test_recursive_rate_infinite_above_threshold():
    assert math.isinf(asymptotic_rates(0.12).recursive_per_ell)


def test_ideal_code_scaling_converges():
    target = 1 / (1 - binary_entropy(0.05))
    for alpha in (0.5, 1.0):
        rows = ideal_code_scaling(0.05, 0.05, alpha, [10**3, 10**4, 10**5, 10**6])
        ratios = [row["n_per_ell"] for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))  # monotone
        assert ratios[-1] <= 1.1 * target  # within 10% at 10^6
        assert ratios[-1] >= target  # never below the capacity limit


def test_threshold_matches_brentq_oracle():
    from scipy.optimize import brentq

    oracle = brentq(lambda b: 1 - 2 * binary_entropy(b), 1e-12, 0.5 - 1e-12)
    assert abs(qkd_threshold() - oracle) <= 1e-12
