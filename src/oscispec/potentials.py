"""Two-scale functions: slow compactly supported envelopes times fast periodic modes.

A two-scale function is a finite Fourier sum in the fast variable,

    u(x, xi) = sum_n c_n(x) * exp(2j*pi*n*xi),

where each envelope c_n is a closed-form profile vanishing outside a bounded
interval.  Everything downstream (fast antiderivatives, the corrector, the
emergence constant) is an exact mode-by-mode operation in this representation,
which is what makes independent numerical verification meaningful: no hidden
discretization enters before the quadrature and ODE stages.

The fast period is fixed to 1; rescale the fast variable before building a
function if the physical period differs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

TWO_PI = 2.0 * math.pi

POLY = "poly"
SMOOTH = "smooth"
ZERO = "zero"

# exp(1 - 1/s) underflows to zero below this s; evaluating the rational
# prefactors there would produce inf*0, so the cutoff is applied to value and
# derivatives alike.
_SMOOTH_CUT = 1.35e-3


@dataclass(frozen=True)
class SlowProfile:
    """Closed-form slow envelope with exact first and second derivatives.

    Three kinds are supported:

    * ``poly``: amplitude * (x-a)^p * (b-x)^p on [a, b], p a positive integer.
      The envelope is (p-1) times continuously differentiable across the
      endpoints.
    * ``smooth``: amplitude * exp(1 - 1/(1-t^2)) with t the affine map of
      [a, b] onto [-1, 1].  All derivatives vanish at the endpoints.
    * ``zero``: identically zero.

    Value and both derivatives evaluate to exactly 0.0 outside [a, b].
    """

    kind: str
    amplitude: complex = 0j
    support: tuple[float, float] = (0.0, 0.0)
    power: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (POLY, SMOOTH, ZERO):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == ZERO:
            return
        a, b = self.support
        if not (a < b):
            raise ValueError("profile support must be a nonempty interval [a, b] with a < b")
        if self.kind == POLY:
            if self.power is None or int(self.power) != self.power or self.power < 1:
                raise ValueError("poly profile needs a positive integer power")

    def evaluate(self, x, order: int = 0):
        """Evaluate the profile or one of its first two x-derivatives.

        Accepts scalars or arrays; returns a complex scalar or array of the
        same shape.  ``order`` must be 0, 1 or 2 (higher derivatives of the
        bump envelopes are not closed-form tracked here).
        """
        if order not in (0, 1, 2):
            raise ValueError("profile derivatives are tracked up to order 2 only")
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.zeros(arr.shape, dtype=complex)
        if self.kind == ZERO:
            return complex(out[0]) if scalar else out.reshape(np.shape(x))
        a, b = self.support
        if self.kind == POLY:
            p = int(self.power)
            inside = (arr >= a) & (arr <= b)
            u = arr[inside] - a
            w = b - arr[inside]
            if order == 0:
                vals = u**p * w**p
            elif order == 1:
                vals = p * (u ** (p - 1) * w**p - u**p * w ** (p - 1))
            else:
                if p == 1:
                    vals = -2.0 * np.ones_like(u)
                else:
                    vals = p * (
                        (p - 1) * (u ** (p - 2) * w**p + u**p * w ** (p - 2))
                        - 2.0 * p * u ** (p - 1) * w ** (p - 1)
                    )
            out[inside] = self.amplitude * vals
        else:
            half = 0.5 * (b - a)
            t = (arr - 0.5 * (a + b)) / half
            s = 1.0 - t * t
            inside = s > _SMOOTH_CUT
            ti = t[inside]
            si = s[inside]
            g = np.exp(1.0 - 1.0 / si)
            if order == 0:
                vals = g
            elif order == 1:
                vals = g * (-2.0 * ti / si**2) / half
            else:
                phi1 = -2.0 * ti / si**2
                phi2 = -2.0 * (1.0 + 3.0 * ti * ti) / si**3
                vals = g * (phi1 * phi1 + phi2) / half**2
            out[inside] = self.amplitude * vals
        if scalar:
            return complex(out[0])
        return out.reshape(np.broadcast(np.asarray(x)).shape)

    def scaled(self, factor: complex) -> "SlowProfile":
        if self.kind == ZERO:
            return self
        return dataclasses.replace(self, amplitude=self.amplitude * factor)

    def conjugated(self) -> "SlowProfile":
        if self.kind == ZERO:
            return self
        return dataclasses.replace(self, amplitude=complex(self.amplitude).conjugate())

    def sup_abs(self) -> float:
        """Exact supremum of |c(x)| over the line."""
        if self.kind == ZERO:
            return 0.0
        a, b = self.support
        if self.kind == POLY:
            p = int(self.power)
            return abs(self.amplitude) * ((b - a) ** 2 / 4.0) ** p
        return abs(self.amplitude)


def poly_bump(amplitude: complex, power: int, support: tuple[float, float] = (0.0, 1.0)) -> SlowProfile:
    return SlowProfile(kind=POLY, amplitude=complex(amplitude), support=(float(support[0]), float(support[1])), power=int(power))


def smooth_bump(amplitude: complex, support: tuple[float, float] = (0.0, 1.0)) -> SlowProfile:
    return SlowProfile(kind=SMOOTH, amplitude=complex(amplitude), support=(float(support[0]), float(support[1])))


def zero_profile() -> SlowProfile:
    return SlowProfile(kind=ZERO)


@dataclass(frozen=True)
class TwoScaleFunction:
    """Finite Fourier sum over the fast period with compactly supported envelopes.

    ``modes`` maps the integer fast frequency n to its envelope profile c_n.
    Zero envelopes are dropped at construction, so ``0 in modes`` is an exact
    test for a mean component and the support hull is the tight cover of the
    remaining envelopes.
    """

    modes: Mapping[int, SlowProfile]
    support_hull: tuple[float, float] = field(init=False)

    def __post_init__(self) -> None:
        cleaned: dict[int, SlowProfile] = {}
        for n, prof in self.modes.items():
            if prof.kind == ZERO or prof.amplitude == 0:
                continue
            cleaned[int(n)] = prof
        object.__setattr__(self, "modes", cleaned)
        if cleaned:
            hull = (
                min(p.support[0] for p in cleaned.values()),
                max(p.support[1] for p in cleaned.values()),
            )
        else:
            hull = (0.0, 0.0)
        object.__setattr__(self, "support_hull", hull)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def single_mode(cls, n: int, profile: SlowProfile) -> "TwoScaleFunction":
        return cls(modes={int(n): profile})

    @classmethod
    def from_cosine(cls, n: int, profile: SlowProfile) -> "TwoScaleFunction":
        """a(x) * cos(2 pi n xi) entered as the conjugate pair +-n."""
        if n < 1:
            raise ValueError("cosine shorthand needs n >= 1")
        half = profile.scaled(0.5)
        return cls(modes={n: half, -n: half})

    @classmethod
    def from_sine(cls, n: int, profile: SlowProfile) -> "TwoScaleFunction":
        """a(x) * sin(2 pi n xi) entered as the conjugate pair +-n."""
        if n < 1:
            raise ValueError("sine shorthand needs n >= 1")
        return cls(modes={n: profile.scaled(-0.5j), -n: profile.scaled(0.5j)})

    # -- basic queries --------------------------------------------------------

    @property
    def has_zero_mean(self) -> bool:
        return 0 not in self.modes

    @property
    def is_real(self) -> bool:
        """Structural check that c_{-n} is the complex conjugate envelope of c_n."""
        for n, prof in self.modes.items():
            partner = self.modes.get(-n)
            if partner is None or partner != prof.conjugated():
                return False
        return True

    def mean_profile(self) -> SlowProfile:
        return self.modes.get(0, zero_profile())

    def sup_abs(self) -> float:
        """Upper bound for sup |u| along any slice (sum of per-mode suprema)."""
        return sum(p.sup_abs() for p in self.modes.values())

    def scaled(self, factor: complex) -> "TwoScaleFunction":
        return TwoScaleFunction(modes={n: p.scaled(factor) for n, p in self.modes.items()})

    # -- evaluation -----------------------------------------------------------

    def eval(self, x, xi, dx: int = 0, dxi: int = 0):
        """Evaluate d^dx/dx^dx d^dxi/dxi^dxi u at (x, xi).

        x and xi broadcast against each other; outside the support hull the
        result is exactly zero because every envelope is.
        """
        xarr = np.asarray(x, dtype=float)
        xiarr = np.asarray(xi, dtype=float)
        scalar = xarr.ndim == 0 and xiarr.ndim == 0
        xb, xib = np.broadcast_arrays(np.atleast_1d(xarr), np.atleast_1d(xiarr))
        out = np.zeros(xb.shape, dtype=complex)
        for n in sorted(self.modes):
            prof = self.modes[n]
            envelope = prof.evaluate(xb, order=dx)
            factor = (TWO_PI * 1j * n) ** dxi if dxi else 1.0
            out = out + envelope * factor * np.exp(TWO_PI * 1j * n * xib)
        if scalar:
            return complex(out.reshape(-1)[0])
        return out.reshape(np.broadcast(xarr, xiarr).shape)

    def eval_fast(self, x, eps: float):
        """Trace along the fast diagonal: u(x, x/eps)."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        x = np.asarray(x, dtype=float)
        return self.eval(x, x / eps)


def combine(u: TwoScaleFunction, w: TwoScaleFunction, alpha: complex = 1.0, beta: complex = 1.0) -> TwoScaleFunction:
    """alpha*u + beta*w, merging mode maps.

    Envelopes sharing a frequency must have identical shape (kind, support,
    power) so the sum stays inside the representation; otherwise this raises.
    """
    merged: dict[int, SlowProfile] = {n: p.scaled(alpha) for n, p in u.modes.items()}
    for n, prof in w.modes.items():
        scaled = prof.scaled(beta)
        if n not in merged:
            merged[n] = scaled
            continue
        base = merged[n]
        if (base.kind, base.support, base.power) != (scaled.kind, scaled.support, scaled.power):
            raise ValueError(f"mode {n}: incompatible envelope shapes cannot be merged")
        merged[n] = dataclasses.replace(base, amplitude=base.amplitude + scaled.amplitude)
    return TwoScaleFunction(modes=merged)


def p_transform(u: TwoScaleFunction) -> TwoScaleFunction:
    """Zero-mean antiderivative in the fast variable.

    For zero-mean u this is the unique fast antiderivative that itself has
    zero mean over the period; in mode space it divides envelope n by
    2j*pi*n.  A mean component has no periodic antiderivative, so such input
    is rejected.
    """
    if not u.has_zero_mean:
        raise ValueError("P requires zero-mean input")
    return TwoScaleFunction(
        modes={n: prof.scaled(1.0 / (TWO_PI * 1j * n)) for n, prof in u.modes.items()}
    )


@dataclass(frozen=True)
class CorrectorBundle:
    """Corrector v with d^2 v / dxi^2 = V, zero fast mean, and its derivatives.

    All evaluators are exact mode-space expressions; no finite differencing.
    The mixed and second slow derivatives require the envelope second
    derivatives, which every profile kind provides in closed form.
    """

    potential: TwoScaleFunction
    v: TwoScaleFunction

    def value(self, x, xi):
        return self.v.eval(x, xi)

    def d_xi(self, x, xi):
        return self.v.eval(x, xi, dxi=1)

    def d_x(self, x, xi):
        return self.v.eval(x, xi, dx=1)

    def d_xx(self, x, xi):
        return self.v.eval(x, xi, dx=2)

    def d_x_xi(self, x, xi):
        return self.v.eval(x, xi, dx=1, dxi=1)

    def sup_abs(self) -> float:
        """Upper bound for sup |v| (sum of per-mode suprema)."""
        return self.v.sup_abs()


def build_corrector(V: TwoScaleFunction) -> CorrectorBundle:
    """Solve d^2 v / dxi^2 = V with periodicity and zero fast mean.

    Mode space: envelope n of v is -c_n / (4 pi^2 n^2).  The fast derivative
    of v is exactly the zero-mean antiderivative of V.
    """
    if not V.has_zero_mean:
        raise ValueError("corrector requires a zero-mean potential")
    v = TwoScaleFunction(
        modes={n: prof.scaled(-1.0 / (TWO_PI**2 * n * n)) for n, prof in V.modes.items()}
    )
    return CorrectorBundle(potential=V, v=v)


def canonical_potential(
    amplitude: float = 100.0,
    power: int = 2,
    support: tuple[float, float] = (0.0, 1.0),
    n: int = 1,
) -> TwoScaleFunction:
    """The reference potential amplitude * (x-a)^p (b-x)^p * cos(2 pi n xi)."""
    return TwoScaleFunction.from_cosine(n, poly_bump(amplitude, power, support))
