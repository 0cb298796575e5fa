import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from tamperstore import kv
from tamperstore.entropy import binary_entropy
from tamperstore.linear_code import default_registry
from tamperstore.params import (
    InfeasibleParamsError,
    ProtocolParams,
    _kappa,
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
    for eps, beta0 in [(0.05, 0.05), (0.01, 0.05)]:
        p = derive_params(eps, beta0, 4)
        code = default_registry().by_name(p.code_name)
        assert code.t_corr >= math.ceil(p.n * (p.beta + p.nu))


def test_vacuous_bound_at_beta_equal_beta0():
    # params always have beta > beta0, so the bound gets the values directly:
    # at beta = beta0 its first term exp(-2 (beta - beta0)^2 r) is 1
    p = derive_params(0.05, 0.05, 4)
    at_beta0 = SimpleNamespace(beta=p.beta0 + 1e-15, beta0=p.beta0, nu=p.nu, r=p.r, n=p.n)
    assert correctness_bound(at_beta0) >= 1.0


def test_bounds_monotone():
    p = derive_params(0.05, 0.05, 4)
    bigger_r = replace(p, r=p.r + 29)  # re-derives beta and nu; n > 2r still holds
    assert (bigger_r.beta, bigger_r.nu) < (p.beta, p.nu)
    assert correctness_bound(bigger_r) < correctness_bound(p)
    # doubling nu quadruples the sampling exponent
    double_nu = sampling_bad_event_bound(p.n, p.r, 2 * p.nu)
    assert math.log(double_nu) == pytest.approx(4 * math.log(p.delta), rel=1e-9)


def test_infeasible_reports_constraint():
    with pytest.raises(InfeasibleParamsError) as err:
        derive_params(0.6, 0.05, 4)
    assert err.value.constraint == "epsilon-range"
    with pytest.raises(InfeasibleParamsError) as err:
        derive_params(0.01, 0.4, 4)  # no code can reach beta0 = 0.4
    assert err.value.constraint == "no-code"
    with pytest.raises(InfeasibleParamsError):
        derive_params(0.05, 0.05, 0)


def test_kappa_identity_holds_on_the_whole_menu():
    # eps_qp = 2^-((kappa - l + 2)/4) satisfies kappa = l + 4 log(1/eps_qp) - 2
    # in floating point for every menu code and every l that kappa >= kappa_min
    # admits (kappa - l >= 15 for any eps < 1/2), so validate's kappa-identity
    # check holds for every params the menu can give
    for spec in default_registry().specs():
        for ell in range(1, spec.kappa - 14):
            eps_qp = 2.0 ** (-(spec.kappa - ell + 2) / 4)
            assert _kappa(ell, eps_qp) == spec.kappa, (spec.name, ell)
    p = derive_params(0.05, 0.05, 4)
    assert p.kappa == _kappa(p.ell, p.eps_qp)


@pytest.mark.parametrize(
    "choice,constraint",
    [
        ({"epsilon": 0.5}, "epsilon-range"),
        ({"beta0": 0.5}, "beta0-range"),
        ({"ell0": 3}, "ell-range"),
        ({"r": 81}, "r-floor"),
        ({"r": 1280}, "n-over-2r"),
        ({"ell": 5}, "kappa-min"),
        ({"r": 600}, "code-radius"),
    ],
)
def test_validate_refuses_each_broken_choice(choice, constraint):
    # params A with one choice changed; the params are refused when made
    p = derive_params(0.05, 0.0, 4, ell0=13)
    assert replace(p, r=p.r + 3).r == 1279  # n = 2560 > 2r holds up to r = 1279
    with pytest.raises(InfeasibleParamsError) as err:
        replace(p, **choice)
    assert err.value.constraint == constraint


def test_pad_seed_length_is_n():
    # the pad multiplies u by x in GF(2^n), so d is n and is not stored
    p = derive_params(0.05, 0.05, 4)
    assert p.d == p.n
    mapping = p.to_kv()
    assert "d" not in mapping
    with pytest.raises(ValueError, match="unknown params field 'd'"):
        ProtocolParams.from_kv({**mapping, "d": p.n})  # older files carried it


def test_params_file_of_the_six_choices_loads(tmp_path):
    p = derive_params(0.01, 0.05, 3, ell0=13)
    choices = {name: p.to_kv()[name] for name in ("epsilon", "beta0", "ell", "ell0", "r", "code_name")}
    kv.dump(tmp_path / "params.txt", "params", choices)
    assert ProtocolParams.load(tmp_path / "params.txt") == p


@pytest.mark.parametrize(
    "name,value",
    [("beta", 0.3), ("nu", 0.001), ("eps_qp", 0.00625), ("lam", 16), ("n", 2561),
     ("kappa", 33), ("delta", 0.0), ("security_bound", 0.05), ("eps0", "0.003125")],
)
def test_params_file_with_an_edited_derived_value_is_refused(name, value):
    mapping = derive_params(0.05, 0.0, 4, ell0=13).to_kv()
    mapping[name] = value
    with pytest.raises(ValueError, match=f"params field {name} = "):
        ProtocolParams.from_kv(mapping)


def test_params_file_written_before_the_six_choices_loads():
    # the file `tamperstore params` wrote at A when every value was a field
    golden = Path(__file__).parent / "data" / "params_A.txt"
    assert ProtocolParams.load(golden) == derive_params(0.05, 0.0, 4, ell0=13)


def test_params_file_round_trip(tmp_path):
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


@pytest.mark.parametrize("beta0", [0.5, 0.7, 0.95, 1.0, -0.01, math.nan])
def test_asymptotic_rates_refuses_beta0_outside_half_interval(beta0):
    # h(0.95) = h(0.05): without the check the rates of 0.05 come back
    with pytest.raises(ValueError, match=r"outside \[0, 1/2\)"):
        asymptotic_rates(beta0)


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
