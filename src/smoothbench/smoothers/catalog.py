"""Method registry: identifiers, parameter schemas, bounds and defaults.

Every smoother is addressed by a :class:`MethodId`; its tunable parameters
are described by :class:`ParamSpec` entries (bounds, grid and default) that
double as the search bounds used by the genetic calibration.  This module
holds every parameter rule: the per-gene grid, the one cross-parameter rule
(:func:`constrain`) and the one length rule (:func:`required_length`).
``K_PARAMS`` is the nominal parameter count that enters the information
criterion (0 for the parameter-less methods up to 4 for the additive model).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..errors import InvalidParams


class MethodId(str, Enum):
    """The thirteen catalogued smoothing methods (lowercase CLI codes)."""

    TUK = "tuk"  # Tukey 3R running medians
    KAL = "kal"  # local-level Kalman filter + RTS smoother
    FFT = "fft"  # Fourier low-pass
    SPL = "spl"  # cubic smoothing spline
    KER = "ker"  # Gaussian kernel regression
    SMA = "sma"  # centered simple moving average
    RRM = "rrm"  # repeated running median
    SUP = "sup"  # variable-span super smoother
    POL = "pol"  # locally weighted quadratic regression
    SGF = "sgf"  # Savitzky-Golay filter
    ARI = "ari"  # autoregressive in-sample smoother
    ADP = "adp"  # adaptive-degree polynomial filter
    GAM = "gam"  # penalized regression spline (additive model)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ParamSpec:
    """One tunable parameter: closed bounds, default and integrality/parity flags."""

    name: str
    lo: float
    hi: float
    default: float
    integer: bool = False
    odd: bool = False  # odd implies integer

    def repair(self, x: float) -> float:
        """Clamp into bounds and snap to the integrality/parity grid."""
        v = min(max(float(x), self.lo), self.hi)
        if self.odd:
            k = int(round((v - 1.0) / 2.0))  # nearest odd integer
            v = 2 * k + 1
            if v < self.lo:
                v += 2
            if v > self.hi:
                v -= 2
            return float(v)
        if self.integer:
            v = round(v)
            v = min(max(v, self.lo), self.hi)
            return float(int(v))
        return v

    def grid(self) -> "tuple[float, ...] | None":
        """Every value ``repair`` can return, in order; None for a continuous gene."""
        if not (self.integer or self.odd):
            return None
        span = range(math.ceil(self.lo), math.floor(self.hi) + 1)
        return tuple(float(x) for x in span if self.is_valid(x))

    def is_valid(self, x: float) -> bool:
        if not self.lo <= x <= self.hi:
            return False
        if (self.integer or self.odd) and x != int(x):
            return False
        if self.odd and int(x) % 2 == 0:
            return False
        return True


PARAM_SPECS: dict[MethodId, tuple[ParamSpec, ...]] = {
    MethodId.TUK: (),
    MethodId.KAL: (),
    MethodId.FFT: (),
    MethodId.SPL: (ParamSpec("log10_penalty", -4.0, 4.0, 0.0),),
    MethodId.KER: (ParamSpec("bandwidth", 0.5, 10.0, 2.0),),
    MethodId.SMA: (ParamSpec("window", 3, 21, 5.0, integer=True, odd=True),),
    MethodId.RRM: (ParamSpec("window", 3, 21, 5.0, integer=True, odd=True),),
    MethodId.SUP: (ParamSpec("bass", 0.0, 10.0, 0.0),),
    MethodId.POL: (ParamSpec("span", 0.1, 1.0, 0.3),),
    MethodId.SGF: (
        ParamSpec("window", 5, 21, 7.0, integer=True, odd=True),
        ParamSpec("degree", 1, 6, 2.0, integer=True),
    ),
    MethodId.ARI: (
        ParamSpec("order", 1, 5, 2.0, integer=True),
        ParamSpec("differences", 0, 1, 0.0, integer=True),
    ),
    MethodId.ADP: (
        ParamSpec("window", 5, 21, 7.0, integer=True, odd=True),
        ParamSpec("min_degree", 0, 2, 0.0, integer=True),
        ParamSpec("max_degree", 0, 6, 4.0, integer=True),
    ),
    MethodId.GAM: (
        ParamSpec("basis_dim", 4, 40, 10.0, integer=True),
        ParamSpec("log10_penalty", -4.0, 4.0, 0.0),
        ParamSpec("family", 0, 0, 0.0, integer=True),  # identity/Gaussian only
        ParamSpec("auto_penalty", 0, 1, 0.0, integer=True),
    ),
}

# Nominal parameter count entering the information criterion.
K_PARAMS: dict[MethodId, int] = {m: len(PARAM_SPECS[m]) for m in MethodId}

PARAMETRIC_METHODS: tuple[MethodId, ...] = tuple(m for m in MethodId if PARAM_SPECS[m])
PARAMETER_FREE_METHODS: tuple[MethodId, ...] = tuple(m for m in MethodId if not PARAM_SPECS[m])


@dataclass(frozen=True)
class SmootherSpec:
    """A method plus a concrete parameter vector (validated on construction)."""

    method: MethodId
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "method", MethodId(self.method))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        validate_spec(self)

    @property
    def bounds(self) -> tuple[ParamSpec, ...]:
        return PARAM_SPECS[self.method]

    def named_params(self) -> dict[str, float]:
        return {b.name: p for b, p in zip(self.bounds, self.params)}

    @property
    def k(self) -> int:
        return K_PARAMS[self.method]


def default_spec(method: MethodId) -> SmootherSpec:
    method = MethodId(method)
    return SmootherSpec(method, tuple(b.default for b in PARAM_SPECS[method]))


# The cross-parameter rule of each method that has one, as :func:`constrain` enforces it.
_CROSS_RULES = {
    MethodId.SGF: "degree < window",
    MethodId.ADP: "min_degree <= max_degree < window",
}


def constrain(method: MethodId, genes: list[float]) -> tuple[float, ...]:
    """Move genes that are valid one by one onto the method's cross-parameter rule.

    This is the only implementation of those rules: a spec is valid exactly
    when its parameters are valid one by one and ``constrain`` leaves them
    as they are.  It edits ``genes`` in place, so callers pass a list of
    their own.
    """
    if method is MethodId.SGF:
        genes[1] = min(genes[1], genes[0] - 1)
    elif method is MethodId.ADP:
        genes[2] = min(max(genes[2], genes[1]), genes[0] - 1)
    return tuple(genes)


def validate_spec(spec: SmootherSpec) -> None:
    """Reject out-of-bounds, wrong-parity and cross-parameter violations."""
    specs = spec.bounds
    if len(spec.params) != len(specs):
        raise InvalidParams(
            f"{spec.method.value} takes {len(specs)} parameter(s) "
            f"({', '.join(b.name for b in specs) or 'none'}), got {len(spec.params)}"
        )
    for b, p in zip(specs, spec.params):
        if not b.is_valid(p):
            kind = "odd integer" if b.odd else ("integer" if b.integer else "value")
            raise InvalidParams(
                f"{spec.method.value}: {b.name}={p:g} is not a valid {kind} "
                f"in [{b.lo:g}, {b.hi:g}]"
            )
    if constrain(spec.method, list(spec.params)) != spec.params:
        got = ", ".join(f"{b.name}={p:g}" for b, p in zip(specs, spec.params))
        raise InvalidParams(f"{spec.method.value}: needs {_CROSS_RULES[spec.method]}, got {got}")


def effective_params(spec: SmootherSpec) -> tuple[float, ...]:
    """The parameters the smoother reads: specs equal here smooth identically.

    GAM with ``auto_penalty`` set picks its penalty by GCV and ignores
    ``log10_penalty``, which comes back as its default; every other spec
    comes back unchanged.
    """
    if spec.method is MethodId.GAM and spec.named_params()["auto_penalty"]:
        basis_dim, _, family, auto = spec.params
        return (basis_dim, PARAM_SPECS[MethodId.GAM][1].default, family, auto)
    return spec.params


def required_length(spec: SmootherSpec) -> int:
    """Minimum series length the spec can be applied to (the only length rule)."""
    named = spec.named_params()
    if spec.method in (MethodId.SMA, MethodId.RRM, MethodId.SGF, MethodId.ADP):
        return max(5, int(named["window"]))
    if spec.method is MethodId.ARI:
        return max(5, 2 * int(named["order"] + named["differences"]) + 1)
    if spec.method is MethodId.GAM:
        return max(5, int(named["basis_dim"]))
    return 5


def make_spec(method: MethodId, named: dict[str, float]) -> SmootherSpec:
    """Build a spec from name->value pairs (CLI entry point)."""
    method = MethodId(method)
    specs = PARAM_SPECS[method]
    expected = [b.name for b in specs]
    unknown = sorted(set(named) - set(expected))
    if unknown:
        raise InvalidParams(
            f"{method.value}: unknown parameter(s) {', '.join(unknown)}; "
            f"expected {', '.join(expected) or 'none'}"
        )
    missing = [n for n in expected if n not in named]
    if missing:
        raise InvalidParams(
            f"{method.value}: missing parameter(s) {', '.join(missing)}"
        )
    return SmootherSpec(method, tuple(named[n] for n in expected))
