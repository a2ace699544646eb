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
from functools import cached_property
from typing import Mapping

import numpy as np

TWO_PI = 2.0 * math.pi

POLY = "poly"
SMOOTH = "smooth"

# Points per pass of the mode walk: a block's temporaries stay in cache, which
# made the walk about twice as fast as whole-array passes at 80k points.
_BLOCK = 4096

# exp(1 - 1/s) underflows to zero below this s; evaluating the rational
# prefactors there would produce inf*0, so the cutoff is applied to value and
# derivatives alike, and the bump is evaluated inside it only.
_SMOOTH_CUT = 1.35e-3


def _ipow(u: np.ndarray, p: int) -> np.ndarray:
    """u**p for an integer p >= 0 by repeated products; numpy's power calls libm pow beyond squares."""
    out = np.ones_like(u) if p == 0 else u
    for _ in range(p - 1):
        out = out * u
    return out


@dataclass(frozen=True)
class SlowProfile:
    """Closed-form slow envelope with exact first and second derivatives.

    Two kinds are supported:

    * ``poly``: amplitude * (x-a)^p * (b-x)^p on [a, b], p a positive integer.
      The envelope is (p-1) times continuously differentiable across the
      endpoints.
    * ``smooth``: amplitude * exp(1 - 1/(1-t^2)) with t the affine map of
      [a, b] onto [-1, 1].  All derivatives vanish at the endpoints.

    Value and both derivatives evaluate to exactly 0.0 outside [a, b].
    """

    kind: str
    amplitude: complex
    support: tuple[float, float]
    power: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (POLY, SMOOTH):
            raise ValueError(f"unknown profile kind {self.kind!r}")
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
        out = self.amplitude * self._shape(x, order)
        return complex(out) if out.ndim == 0 else out

    def _shape(self, x, order: int) -> np.ndarray:
        """The profile over its amplitude, or one of its x-derivatives, as a real array shaped like x."""
        if order not in (0, 1, 2):
            raise ValueError("profile derivatives are tracked up to order 2 only")
        arr = np.asarray(x, dtype=float)
        a, b = self.support
        if self.kind == POLY:
            p = int(self.power)
            u = arr - a
            w = b - arr
            if order == 0:
                vals = _ipow(u, p) * _ipow(w, p)
            elif order == 1:
                vals = p * _ipow(u * w, p - 1) * (w - u)
            elif p == 1:
                vals = np.full(arr.shape, -2.0)
            else:
                vals = p * _ipow(u * w, p - 2) * ((p - 1) * (u * u + w * w) - 2.0 * p * u * w)
            return np.where((arr >= a) & (arr <= b), vals, 0.0)
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
        out = np.zeros(arr.shape)
        out[inside] = vals
        return out

    def scaled(self, factor: complex) -> "SlowProfile":
        return dataclasses.replace(self, amplitude=self.amplitude * factor)

    def conjugated(self) -> "SlowProfile":
        return dataclasses.replace(self, amplitude=complex(self.amplitude).conjugate())

    def sup_abs(self) -> float:
        """Exact supremum of |c(x)| over the line."""
        a, b = self.support
        if self.kind == POLY:
            p = int(self.power)
            return abs(self.amplitude) * ((b - a) ** 2 / 4.0) ** p
        return abs(self.amplitude)


def poly_bump(amplitude: complex, power: int, support: tuple[float, float] = (0.0, 1.0)) -> SlowProfile:
    return SlowProfile(kind=POLY, amplitude=complex(amplitude), support=(float(support[0]), float(support[1])), power=int(power))


def smooth_bump(amplitude: complex, support: tuple[float, float] = (0.0, 1.0)) -> SlowProfile:
    return SlowProfile(kind=SMOOTH, amplitude=complex(amplitude), support=(float(support[0]), float(support[1])))


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
            if prof.amplitude == 0:
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

    @cached_property
    def is_real(self) -> bool:
        """Structural check that c_{-n} is the complex conjugate envelope of c_n."""
        for n, prof in self.modes.items():
            partner = self.modes.get(-n)
            if partner is None or partner != prof.conjugated():
                return False
        return True

    def sup_abs(self) -> float:
        """Upper bound for sup |u| along any slice (sum of per-mode suprema)."""
        return sum(p.sup_abs() for p in self.modes.values())

    def scaled(self, factor: complex) -> "TwoScaleFunction":
        return TwoScaleFunction(modes={n: p.scaled(factor) for n, p in self.modes.items()})

    # -- evaluation -----------------------------------------------------------

    def _mode_sums(self, x, xi, terms) -> list[np.ndarray]:
        """sum_n (2 pi i n)^dxi * c_n^(dx)(x) * exp(2 pi i n xi) for every (dx, dxi) in terms.

        One walk over the modes per block of _BLOCK points, so that every
        temporary stays in cache; within a block each phase and each envelope
        shape and order are evaluated once.  For a real function the pair
        (n, -n) folds into k Re(w c_n^(dx) e^{i theta}) with k = 2, valid
        because every weight w(n) = (2 pi i n)^dxi satisfies
        w(-n) = conj(w(n)); the mean mode has no partner and k = 1.  The sums
        of a real function are float arrays built with cos and sin.  x and xi
        broadcast against each other.
        """
        x, xi = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))
        shape, x, xi = x.shape, x.ravel(), xi.ravel()
        real = self.is_real
        sums = [np.zeros(x.size, dtype=float if real else complex) for _ in terms]
        modes = [(n, prof) for n, prof in sorted(self.modes.items()) if n >= 0 or not real]
        orders = sorted({dx for dx, _ in terms})
        for lo in range(0, x.size, _BLOCK):
            xb, xib = x[lo : lo + _BLOCK], xi[lo : lo + _BLOCK]
            accs = [acc[lo : lo + _BLOCK] for acc in sums]
            shapes: dict = {}  # envelope samples by shape and order: the modes of a pair share them
            phases: dict = {}  # exp(i theta) by mode: -n takes the conjugate of n's
            for n, prof in modes:
                theta = TWO_PI * n * xib
                cos = sin = None
                for order in orders:
                    key = (prof.kind, prof.support, prof.power, order)
                    if key not in shapes:
                        shapes[key] = prof._shape(xb, order)
                    env = shapes[key]
                    for acc, (dx, dxi) in zip(accs, terms):
                        if dx != order:
                            continue
                        s = (TWO_PI * 1j * n) ** dxi * prof.amplitude if dxi else prof.amplitude
                        if not real:
                            if n not in phases:
                                phases[n] = np.conj(phases[-n]) if -n in phases else np.exp(1j * theta)
                            acc += (s * env) * phases[n]
                        else:  # k Re(s e^{i theta}) = k s.re cos(theta) - k s.im sin(theta)
                            k = 2.0 if n else 1.0
                            if s.real:
                                cos = np.cos(theta) if cos is None else cos
                                acc += (k * s.real * env) * cos
                            if s.imag:
                                sin = np.sin(theta) if sin is None else sin
                                acc -= (k * s.imag * env) * sin
        return [acc.reshape(shape) for acc in sums]

    def eval(self, x, xi, dx: int = 0, dxi: int = 0):
        """Evaluate d^dx/dx^dx d^dxi/dxi^dxi u at (x, xi).

        x and xi broadcast against each other; outside the support hull the
        result is exactly zero because every envelope is.  Real functions
        give float samples, others complex; scalar input gives a scalar.
        """
        return self._mode_sums(x, xi, ((dx, dxi),))[0][()]

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


def build_corrector(V: TwoScaleFunction) -> TwoScaleFunction:
    """The corrector v: d^2 v / dxi^2 = V with periodicity and zero fast mean.

    Mode space: envelope n of v is -c_n / (4 pi^2 n^2).  The fast derivative
    of v is exactly the zero-mean antiderivative of V, and every partial of v
    is an exact mode-space expression, ``v.eval(x, xi, dx, dxi)``: the
    envelopes carry closed-form derivatives up to order 2.
    """
    if not V.has_zero_mean:
        raise ValueError("corrector requires a zero-mean potential")
    return TwoScaleFunction(modes={n: prof.scaled(-1.0 / (TWO_PI**2 * n * n)) for n, prof in V.modes.items()})


def canonical_potential(
    amplitude: float = 100.0,
    power: int = 2,
    support: tuple[float, float] = (0.0, 1.0),
    n: int = 1,
) -> TwoScaleFunction:
    """The reference potential amplitude * (x-a)^p (b-x)^p * cos(2 pi n xi)."""
    return TwoScaleFunction.from_cosine(n, poly_bump(amplitude, power, support))
