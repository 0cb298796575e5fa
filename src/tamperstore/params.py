"""Finite-size parameter recipe, bound calculators, and asymptotics.

``derive_params`` splits the total security budget epsilon into the four
sub-budgets (uniformity eps0 = eps/16, authentication eps_mac = eps/8,
sampling delta = eps/8, extractor eps_qp = eps/8, so each of the four
terms of the security bound equals eps/4), then searches the code
registry for a (code, trap count) pair that satisfies every constraint:

* r exceeds the floor (1/2 - beta0)^-2 * 4 ln(8/eps), which keeps the
  accepted error rate beta + nu below 1/2;
* the code corrects the n-independent target rate
  beta0 + sqrt(ln(1/(eps - 2 eps^2)) / 2r) + sqrt(3 ln(8/eps) / 2r),
  which upper-bounds beta + nu whenever n > 2r;
* n > 2r.

Among feasible pairs the cheapest total qubit count n + r wins.  The
accepted trap rate beta and slack nu are then fixed by

    (beta - beta0)^2 = ln(1/(eps - 2 eps^(n/r))) / (2r)
    nu^2 = ln(8/eps)/(2r) * (1 + 1/r) * (1 + r/n)

which make the sampling bound delta equal eps/8 exactly and keep the
correctness failure bound below eps.  The extractor budget is then
tightened to eps_qp = 2^-((kappa - l + 2)/4) so that the ECC message
length identity kappa = l + 4 log(1/eps_qp) - 2 holds exactly for the
chosen code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kv
from .entropy import binary_entropy
from .linear_code import CodeRegistry, CodeSpec, default_registry
from .mac import tag_length


class InfeasibleParamsError(ValueError):
    """The recipe has no solution; carries the violated constraint."""

    def __init__(self, message: str, constraint: str):
        super().__init__(message)
        self.constraint = constraint


def _r_floor(epsilon: float, beta0: float) -> float:
    """The trap count r must exceed: (1/2 - beta0)^-2 * 4 ln(8/eps)."""
    return (0.5 - beta0) ** -2 * 4 * math.log(8 / epsilon)


def _kappa(ell: int, eps_qp: float) -> int:
    """The ECC message length identity kappa = l + 4 log(1/eps_qp) - 2."""
    return ell + math.ceil(4 * math.log2(1 / eps_qp)) - 2


def _beta(epsilon: float, beta0: float, r: int, ratio: float) -> float:
    """Accepted trap rate: (beta - beta0)^2 = ln(1/(eps - 2 eps^ratio)) / (2r), ratio = n/r."""
    return beta0 + math.sqrt(math.log(1 / (epsilon - 2 * epsilon**ratio)) / (2 * r))


def _nu(epsilon: float, n: float, r: int) -> float:
    """Sampling slack: nu^2 = ln(8/eps)/(2r) * (1 + 1/r) * (1 + r/n)."""
    return math.sqrt(math.log(8 / epsilon) / (2 * r) * (1 + 1 / r) * (1 + r / n))


@dataclass(frozen=True)
class ProtocolParams:
    epsilon: float
    eps0: float
    eps_mac: float
    eps_qp: float
    beta0: float
    beta: float
    nu: float
    r: int
    n: int
    kappa: int
    ell: int
    ell0: int
    lam: int
    code_name: str

    # stored field -> accepted value types (an integer is a valid real)
    _KV_FIELDS = {
        **dict.fromkeys("epsilon eps0 eps_mac eps_qp beta0 beta nu".split(), (int, float)),
        **dict.fromkeys("r n kappa ell ell0 lam".split(), int),
        "code_name": str,
    }

    @property
    def delta(self) -> float:
        """Sampling-deviation bound, see :func:`sampling_bad_event_bound`."""
        return sampling_bad_event_bound(self.n, self.r, self.nu)

    @property
    def d(self) -> int:
        """Length of the pad seed u: the pad multiplies u by x in GF(2^n)."""
        return self.n

    def r_floor(self) -> float:
        return _r_floor(self.epsilon, self.beta0)

    def to_kv(self) -> dict:
        """The stored fields plus the derived bounds, for reading by people."""
        mapping = {name: getattr(self, name) for name in self._KV_FIELDS}
        mapping["delta"] = self.delta
        mapping["correctness_bound"] = correctness_bound(self)
        mapping["security_bound"] = security_bound(self)
        return mapping

    @classmethod
    def from_kv(cls, mapping: dict) -> "ProtocolParams":
        """Inverse of :meth:`to_kv`; the derived bounds are recomputed, not read.

        A "d" key left by older files is ignored: it always equalled n.
        """
        kv.check_types("params", mapping, cls._KV_FIELDS)
        return cls(**{name: mapping[name] for name in cls._KV_FIELDS})

    def dump(self, path) -> None:
        kv.dump(path, "params", self.to_kv())

    @classmethod
    def load(cls, path) -> "ProtocolParams":
        return cls.from_kv(kv.load(path, "params"))

    def validate(self) -> None:
        if not 0 < self.epsilon < 0.5:
            raise InfeasibleParamsError("epsilon outside (0, 1/2)", "epsilon-range")
        if not self.beta0 < self.beta:
            raise InfeasibleParamsError("beta must exceed beta0", "beta-order")
        if not self.beta + self.nu < 0.5:
            raise InfeasibleParamsError("beta + nu reaches 1/2", "beta-plus-nu")
        if self.r <= self.r_floor():
            raise InfeasibleParamsError(
                f"r = {self.r} does not exceed the floor {self.r_floor():.1f}", "r-floor"
            )
        expected_kappa = _kappa(self.ell, self.eps_qp)
        if self.kappa != expected_kappa:
            raise InfeasibleParamsError(
                f"kappa = {self.kappa}, but l + 4 log(1/eps_qp) - 2 = {expected_kappa}",
                "kappa-identity",
            )
        if not 1 <= self.ell <= self.ell0:
            raise InfeasibleParamsError("need 1 <= l <= l0", "ell-range")
        if self.n < self.kappa or self.lam < 1:
            raise InfeasibleParamsError("degenerate lengths", "lengths")


def derive_params(
    epsilon: float,
    beta0: float,
    ell: int,
    ell0: int | None = None,
    registry: CodeRegistry | None = None,
) -> ProtocolParams:
    """Run the finite-size recipe; see the module docstring."""
    if not 0 < epsilon < 0.5:
        raise InfeasibleParamsError(
            f"epsilon = {epsilon} outside (0, 1/2)", "epsilon-range"
        )
    if not 0 <= beta0 < 0.5:
        raise InfeasibleParamsError(f"beta0 = {beta0} outside [0, 1/2)", "beta0-range")
    if ell < 1:
        raise InfeasibleParamsError("extracted length must be positive", "ell-range")
    ell0 = ell if ell0 is None else ell0
    if ell0 < ell:
        raise InfeasibleParamsError("l0 must be at least l", "ell-range")
    registry = registry or default_registry()

    eps0 = epsilon / 16
    eps_mac = epsilon / 8
    kappa_min = _kappa(ell, epsilon / 8)
    r_min = math.floor(_r_floor(epsilon, beta0)) + 1
    c_code = math.sqrt(math.log(1 / (epsilon - 2 * epsilon**2))) + math.sqrt(
        3 * math.log(8 / epsilon)
    )

    best: tuple[int, CodeSpec, int] | None = None
    tight_ratio = None
    for spec in registry.specs():
        if spec.kappa < kappa_min:
            continue
        margin = spec.ratio - beta0
        if tight_ratio is None or spec.ratio > tight_ratio:
            tight_ratio = spec.ratio
        if margin <= 0:
            continue
        r_need = math.ceil((c_code / margin) ** 2 / 2)
        r = max(r_min, r_need)
        if spec.n <= 2 * r:
            continue
        cost = spec.n + r
        if best is None or (cost, spec.n) < (best[0], best[1].n):
            best = (cost, spec, r)
    if best is None:
        raise InfeasibleParamsError(
            f"no registered code with kappa >= {kappa_min} supports the correction "
            f"target {beta0:.3f} + {c_code:.3f}/sqrt(2r) under n > 2r"
            + (f" (best ratio available: {tight_ratio:.4f})" if tight_ratio else ""),
            "no-code",
        )
    _, spec, r = best
    n = spec.n
    beta = _beta(epsilon, beta0, r, n / r)
    nu = _nu(epsilon, n, r)
    if beta + nu >= 0.5:
        raise InfeasibleParamsError(
            f"beta + nu = {beta + nu:.3f} reaches 1/2", "beta-plus-nu"
        )
    if spec.t_corr < math.ceil(n * (beta + nu)):
        raise InfeasibleParamsError(
            f"{spec.name} corrects {spec.t_corr} < n(beta+nu) = {n * (beta + nu):.1f}",
            "code-radius",
        )
    eps_qp = 2.0 ** (-(spec.kappa - ell + 2) / 4)
    lam = tag_length(eps_mac, ell0 + n + ell)  # the MAC covers w || u || c
    params = ProtocolParams(
        epsilon=epsilon,
        eps0=eps0,
        eps_mac=eps_mac,
        eps_qp=eps_qp,
        beta0=beta0,
        beta=beta,
        nu=nu,
        r=r,
        n=n,
        kappa=spec.kappa,
        ell=ell,
        ell0=ell0,
        lam=lam,
        code_name=spec.name,
    )
    params.validate()
    return params


# ---------------------------------------------------------------------------
# bound calculators
# ---------------------------------------------------------------------------

def correctness_bound(params: ProtocolParams) -> float:
    """Failure-probability bound for the honest (passive) channel."""
    first = math.exp(-2 * (params.beta - params.beta0) ** 2 * params.r)
    second = 2 * math.exp(-2 * (params.beta + params.nu - params.beta0) ** 2 * params.n)
    return first + second


def security_bound(params: ProtocolParams) -> float:
    """Distance-from-decoupled bound: 2 eps_mac + 2 delta + 4 eps0 + 2 eps_qp."""
    return 2 * params.eps_mac + 2 * params.delta + 4 * params.eps0 + 2 * params.eps_qp


def sampling_bad_event_bound(n: int, r: int, nu: float) -> float:
    """Bound on Pr[trap errors <= r beta and payload errors >= n (beta + nu)]
    over a uniform choice of r trap positions out of n + r."""
    return math.exp(-2 * nu**2 * r * (n * r) / ((n + r) * (r + 1)))


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticRates:
    n_per_ell: float
    syndrome_per_ell: float
    recursive_per_ell: float
    qkd_threshold: float


def qkd_threshold() -> float:
    """Root of 1 - 2 h(beta): the largest error rate with positive usefulness.

    Bisection on (0, 1/2), where 1 - 2 h is strictly decreasing, until the
    bracket cannot shrink in floating point.
    """
    lo, hi = 1e-12, 0.5 - 1e-12
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        if 1 - 2 * binary_entropy(mid) > 0:
            lo = mid
        else:
            hi = mid


def asymptotic_rates(beta0: float) -> AsymptoticRates:
    """Asymptotic qubit and syndrome ratios, plus the recursive total."""
    h = binary_entropy(beta0)
    if h >= 1:
        raise ValueError("beta0 has full entropy, nothing is extractable")
    recursive = math.inf if 1 - 2 * h <= 0 else 1 / (1 - 2 * h)
    return AsymptoticRates(
        n_per_ell=1 / (1 - h),
        syndrome_per_ell=h / (1 - h),
        recursive_per_ell=recursive,
        qkd_threshold=qkd_threshold(),
    )


def ideal_code_scaling(
    beta0: float,
    epsilon: float,
    alpha: float,
    lengths: list[int],
    trap_coeff: float | None = None,
) -> list[dict]:
    """n/l under ideal capacity-rate codes with trap scaling r ~ n^alpha.

    For each message length the fixpoint n = kappa / (1 - h(beta + nu)) is
    solved with r = max(r_floor, trap_coeff * n^alpha); beta and nu follow
    the finite-size recipe.  Demonstrates the approach of n/l to
    1/(1 - h(beta0)) as the length grows.
    """
    if trap_coeff is None:
        trap_coeff = 0.05 if alpha >= 1 else 60.0
    r_min = math.floor(_r_floor(epsilon, beta0)) + 1
    rows = []
    for ell in lengths:
        kappa = _kappa(ell, epsilon / 8)
        n = kappa / (1 - binary_entropy(beta0))
        r = r_min
        for _ in range(500):
            r = max(r_min, int(round(trap_coeff * n**alpha)))
            beta = _beta(epsilon, beta0, r, max(n / r, 2.01))
            nu = _nu(epsilon, n, r)
            rate_arg = beta + nu
            if rate_arg >= 0.5:
                n = math.inf
                break
            new_n = kappa / (1 - binary_entropy(rate_arg))
            if abs(new_n - n) < 0.5:
                n = new_n
                break
            n = new_n
        rows.append(
            {
                "ell": ell,
                "n": n,
                "r": r,
                "n_per_ell": n / ell,
                "beta_plus_nu": beta + nu if math.isfinite(n) else math.nan,
            }
        )
    return rows
