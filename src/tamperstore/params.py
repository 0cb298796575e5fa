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

``ProtocolParams`` holds only the recipe's six choices (epsilon, beta0, l,
l0, r and the code's name).  n and kappa are the menu code's, and eps0,
eps_mac, eps_qp, beta, nu and lam follow from the choices by the
expressions above, so no derived value can be set on its own.  Every
constraint of the recipe is checked in ``ProtocolParams.validate``, once,
when the params are made.  A params file lists the choices, the derived
values and the bounds; reading it recomputes the derived values and bounds
and refuses a file whose written ones differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


def _check_inputs(epsilon: float, beta0: float, ell: int, ell0: int) -> None:
    """The ranges every formula of the recipe needs."""
    if not 0 < epsilon < 0.5:
        raise InfeasibleParamsError(
            f"epsilon = {epsilon} outside (0, 1/2)", "epsilon-range"
        )
    if not 0 <= beta0 < 0.5:
        raise InfeasibleParamsError(f"beta0 = {beta0} outside [0, 1/2)", "beta0-range")
    if ell < 1:
        raise InfeasibleParamsError("extracted length must be positive", "ell-range")
    if ell0 < ell:
        raise InfeasibleParamsError("l0 must be at least l", "ell-range")


@dataclass(frozen=True)
class ProtocolParams:
    """The recipe's six choices; every other number is worked out from them.

    The choices are the security budget epsilon, the storage noise beta0,
    the extracted length l, the padded message length l0, the trap count r
    and the menu code.  n and kappa are the code's; eps0, eps_mac, eps_qp,
    beta, nu and lam follow from the recipe (module docstring), each
    computed once, on first read.  ``validate`` runs when the params are
    made, so every instance satisfies the recipe's constraints.
    """

    epsilon: float
    beta0: float
    ell: int
    ell0: int
    r: int
    code_name: str

    # the choices a params file holds -> accepted value types (an integer
    # is a valid real); every other value it holds is recomputed
    _KV_CHOICES = {
        **dict.fromkeys(("epsilon", "beta0"), (int, float)),
        **dict.fromkeys(("ell", "ell0", "r"), int),
        "code_name": str,
    }
    _KV_DERIVED = ("n", "kappa", "eps0", "eps_mac", "eps_qp", "beta", "nu", "lam")

    def __post_init__(self):
        self.validate()

    # worked out from the choices, each once, on first read (validate reads
    # beta and nu only after the checks that keep their formulas defined)
    _spec = cached_property(lambda self: default_registry().spec(self.code_name))
    n = cached_property(lambda self: self._spec.n)
    kappa = cached_property(lambda self: self._spec.kappa)
    eps0 = cached_property(lambda self: self.epsilon / 16)
    eps_mac = cached_property(lambda self: self.epsilon / 8)
    eps_qp = cached_property(lambda self: 2.0 ** (-(self.kappa - self.ell + 2) / 4))
    beta = cached_property(lambda self: _beta(self.epsilon, self.beta0, self.r, self.n / self.r))
    nu = cached_property(lambda self: _nu(self.epsilon, self.n, self.r))
    # the MAC covers w || u || c
    lam = cached_property(lambda self: tag_length(self.eps_mac, self.ell0 + self.n + self.ell))

    @property
    def delta(self) -> float:
        """Sampling-deviation bound, see :func:`sampling_bad_event_bound`."""
        return sampling_bad_event_bound(self.n, self.r, self.nu)

    @property
    def d(self) -> int:
        """Length of the pad seed u: the pad multiplies u by x in GF(2^n)."""
        return self.n

    def to_kv(self) -> dict:
        """The choices, the derived values and the bounds, for reading by people."""
        mapping = {name: getattr(self, name) for name in (*self._KV_CHOICES, *self._KV_DERIVED)}
        mapping["delta"] = self.delta
        mapping["correctness_bound"] = correctness_bound(self)
        mapping["security_bound"] = security_bound(self)
        return mapping

    @classmethod
    def from_kv(cls, mapping: dict) -> "ProtocolParams":
        """Inverse of :meth:`to_kv`: reads the six choices and recomputes the rest.

        A derived value or bound the file holds must equal the recomputed
        one, so an edited beta, nu or bound is refused rather than trusted.
        A "d" key left by older files is ignored: it always equalled n.
        """
        kv.check_types("params", mapping, cls._KV_CHOICES)
        params = cls(**{name: mapping[name] for name in cls._KV_CHOICES})
        for name, value in params.to_kv().items():
            if name in mapping and mapping[name] != value:
                raise ValueError(
                    f"params field {name} = {mapping[name]!r}, but the recipe gives {value!r}"
                )
        return params

    def dump(self, path) -> None:
        kv.dump(path, "params", self.to_kv())

    @classmethod
    def load(cls, path) -> "ProtocolParams":
        return cls.from_kv(kv.load(path, "params"))

    def validate(self) -> None:
        """Raise InfeasibleParamsError unless every constraint of the recipe holds.

        The order keeps each formula defined: the ranges, the trap floor
        (so r > 0), n > 2r and kappa >= kappa_min come before beta, nu and
        eps_qp are first read.
        """
        _check_inputs(self.epsilon, self.beta0, self.ell, self.ell0)
        floor = _r_floor(self.epsilon, self.beta0)
        if self.r <= floor:
            raise InfeasibleParamsError(
                f"r = {self.r} does not exceed the floor {floor:.1f}", "r-floor"
            )
        if self.n <= 2 * self.r:
            raise InfeasibleParamsError(
                f"n = {self.n} does not exceed 2r = {2 * self.r}", "n-over-2r"
            )
        kappa_min = _kappa(self.ell, self.epsilon / 8)
        if self.kappa < kappa_min:
            raise InfeasibleParamsError(
                f"kappa = {self.kappa} is below l + 4 log(8/eps) - 2 = {kappa_min}", "kappa-min"
            )
        if self.kappa != _kappa(self.ell, self.eps_qp):
            raise InfeasibleParamsError(
                f"kappa = {self.kappa}, but l + 4 log(1/eps_qp) - 2 = "
                f"{_kappa(self.ell, self.eps_qp)}",
                "kappa-identity",
            )
        rate = self.beta + self.nu
        if rate >= 0.5:
            raise InfeasibleParamsError(f"beta + nu = {rate:.3f} reaches 1/2", "beta-plus-nu")
        if self._spec.t_corr < math.ceil(self.n * rate):
            raise InfeasibleParamsError(
                f"{self.code_name} corrects {self._spec.t_corr} < n(beta+nu) = {self.n * rate:.1f}",
                "code-radius",
            )


def derive_params(
    epsilon: float,
    beta0: float,
    ell: int,
    ell0: int | None = None,
    registry: CodeRegistry | None = None,
) -> ProtocolParams:
    """Run the finite-size recipe; see the module docstring."""
    ell0 = ell if ell0 is None else ell0
    _check_inputs(epsilon, beta0, ell, ell0)
    registry = registry or default_registry()

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
    return ProtocolParams(epsilon, beta0, ell, ell0, r, spec.name)


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
