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

import cmath
import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

TWO_PI = 2.0 * math.pi

# Fewest samples per fast period: the resolution floor of every grid and step.
MIN_POINTS_PER_PERIOD = 20
# Most steps, panels or points of one eps-scaled grid: a tiny eps fails before anything is allocated.
MAX_GRID_SIZE = 1_000_000


def check_grid_size(n: int, unit: str, eps: float, support: tuple[float, float]) -> None:
    """Reject an eps-scaled grid of n steps, panels or points above MAX_GRID_SIZE."""
    if n > MAX_GRID_SIZE:
        where = f"eps={eps:g} on [{support[0]:g}, {support[1]:g}]"
        raise ValueError(f"resolution budget exceeded: {n} {unit} needed for {where} but max_{unit}={MAX_GRID_SIZE}")


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
        if not (math.isfinite(a) and math.isfinite(b) and cmath.isfinite(self.amplitude)):
            raise ValueError("profile support endpoints and amplitude must be finite")
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
        out = self.amplitude * self._shapes(x, (order,))[order]
        return complex(out) if out.ndim == 0 else out

    def _shapes(self, x, orders) -> dict[int, np.ndarray]:
        """The profile over its amplitude and its x-derivatives of the given orders, as real arrays shaped like x.

        The orders share one mask, and a smooth bump's one exp.
        """
        if not set(orders) <= {0, 1, 2}:
            raise ValueError("profile derivatives are tracked up to order 2 only")
        arr = np.asarray(x, dtype=float)
        a, b = self.support
        out = {}
        if self.kind == POLY:
            p = int(self.power)
            u, w = arr - a, b - arr
            inside = (arr >= a) & (arr <= b)
            for order in orders:
                if order == 0:
                    vals = _ipow(u, p) * _ipow(w, p)
                elif order == 1:
                    vals = p * _ipow(u * w, p - 1) * (w - u)
                elif p == 1:
                    vals = np.full(arr.shape, -2.0)
                else:
                    vals = p * _ipow(u * w, p - 2) * ((p - 1) * (u * u + w * w) - 2.0 * p * u * w)
                out[order] = np.where(inside, vals, 0.0)
            return out
        half = 0.5 * (b - a)
        t = (arr - 0.5 * (a + b)) / half
        s = 1.0 - t * t
        inside = s > _SMOOTH_CUT
        ti, si = t[inside], s[inside]
        g = np.exp(1.0 - 1.0 / si)
        phi1 = -2.0 * ti / si**2 if any(orders) else None  # d/dt of log g
        for order in orders:
            if order == 0:
                vals = g
            elif order == 1:
                vals = g * phi1 / half
            else:
                phi2 = -2.0 * (1.0 + 3.0 * ti * ti) / si**3
                vals = g * (phi1 * phi1 + phi2) / half**2
            out[order] = np.zeros(arr.shape)
            out[order][inside] = vals
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
        cleaned = {int(n): prof for n, prof in self.modes.items() if prof.amplitude != 0}
        object.__setattr__(self, "modes", cleaned)
        breaks = self.breakpoints
        object.__setattr__(self, "support_hull", (min(breaks), max(breaks)) if breaks else (0.0, 0.0))

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
    def breakpoints(self) -> list[float]:
        """Every envelope's support endpoints, where the slow dependence may kink."""
        return [x for p in self.modes.values() for x in p.support]

    @cached_property
    def is_real(self) -> bool:
        """Structural check that c_{-n} is the complex conjugate envelope of c_n."""
        return all(self.modes.get(-n) == prof.conjugated() for n, prof in self.modes.items())

    def sup_abs(self) -> float:
        """Upper bound for sup |u| along any slice (sum of per-mode suprema)."""
        return sum(p.sup_abs() for p in self.modes.values())

    def scaled(self, factor: complex) -> "TwoScaleFunction":
        return TwoScaleFunction(modes={n: p.scaled(factor) for n, p in self.modes.items()})

    # -- evaluation -----------------------------------------------------------

    def _mode_sums(self, x, xi, terms) -> list[np.ndarray]:
        """sum_n (2 pi i n)^dxi * c_n^(dx)(x) * exp(2 pi i n xi) for every (dx, dxi) in terms.

        x and xi broadcast against each other; ``_walk`` takes each block's
        waves at its own xi.
        """
        x, xi = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))
        shape, x, xi = x.shape, x.ravel(), xi.ravel()
        sums = [np.empty(x.size, dtype=float if self.is_real else complex) for _ in terms]
        self._walk(x, terms, lambda m, wave, lo, hi: wave(TWO_PI * m * xi[lo:hi]), sums)
        return [acc.reshape(shape) for acc in sums]

    def _walk(self, x, terms, waves_at, sums) -> list[np.ndarray]:
        """``_mode_sums`` over a flat x into sums, one array of x's size per term (float for a real function,
        else complex), each block zeroed before it is summed; cos or sin of 2 pi m xi over x[lo:hi] is
        waves_at(m, wave, lo, hi).

        With theta = 2 pi |n| xi, s e^{i theta} + s' e^{-i theta} =
        (s + s') cos(theta) + i (s - s') sin(theta) for any s and s', so the
        weights are first summed into one cos and one sin factor per term,
        keyed by |n| and envelope shape (the mean mode has no sin factor).
        The walk then only samples, a block of _BLOCK points at a time to
        keep temporaries in cache: each shape once for all orders, cos and
        sin once per |n|.  A real function has c_{-n} = conj(c_n) and
        w(-n) = conj(w(n)), so its factors are exactly real and its sums are
        float arrays.
        """
        entries: dict = {}  # (|n|, envelope shape) -> (profile, [cos factor, sin factor] per term)
        for n, prof in sorted(self.modes.items(), key=lambda item: abs(item[0])):
            key = (abs(n), (prof.kind, prof.support, prof.power))
            _, factors = entries.setdefault(key, (prof, [[0j, 0j] for _ in terms]))
            for pair, (_, dxi) in zip(factors, terms):
                s = (TWO_PI * 1j * n) ** dxi * prof.amplitude if dxi else prof.amplitude
                pair[0] += s
                pair[1] += 1j * ((n > 0) - (n < 0)) * s  # exp(2 pi i n xi) = cos(theta) + i sign(n) sin(theta)
        if self.is_real:
            entries = {key: (prof, [[f.real for f in pair] for pair in factors]) for key, (prof, factors) in entries.items()}
        orders = sorted({dx for dx, _ in terms})
        for lo in range(0, x.size, _BLOCK):
            hi = min(lo + _BLOCK, x.size)
            xb = x[lo:hi]
            accs = [acc[lo:hi] for acc in sums]
            for acc in accs:
                acc.fill(0.0)
            envs: dict = {}  # every order of an envelope shape: the modes of a pair share them
            waves: dict = {}  # cos and sin of theta by |n|
            for (m, env_key), (prof, factors) in entries.items():
                if env_key not in envs:
                    envs[env_key] = prof._shapes(xb, orders)
                for acc, (dx, _), pair in zip(accs, terms, factors):
                    for f, wave in zip(pair, (np.cos, np.sin)):
                        if f:
                            if (m, wave) not in waves:
                                waves[m, wave] = waves_at(m, wave, lo, hi)
                            acc += (f * envs[env_key][dx]) * waves[m, wave]
        return sums

    def eval(self, x, xi, dx: int = 0, dxi: int = 0):
        """Evaluate d^dx/dx^dx d^dxi/dxi^dxi u at (x, xi).

        x and xi broadcast against each other; outside the support hull the
        result is exactly zero because every envelope is.  Real functions
        give float samples, others complex; scalar input gives a scalar.
        """
        return self._mode_sums(x, xi, ((dx, dxi),))[0][()]

    def eval_fast(self, x, eps: float):
        """Trace along the fast diagonal: u(x, x/eps)."""
        if not 0 < eps < math.inf:
            raise ValueError("eps must be positive")
        x = np.asarray(x, dtype=float)
        return self.eval(x, x / eps)

    def eval_fast_lattice(self, x, eps: float, h: float, size: int, out: np.ndarray) -> np.ndarray:
        """``eval_fast`` at a flat x whose first ``size`` points lie on the half-step lattice,
        x[k] = x[0] + h k / 2, written into out (x's size; float for a real function, else complex).

        When h = eps / P for an integer P, the fast variable at half step k
        is fmod(x[0], eps) / eps + k / 2P modulo 1, so the lattice points'
        waves are one contiguous slice, from k mod 2P on, of one table of 2P
        values per |n|, repeated to cover a block: rounded near 1, not near
        x / eps, which keeps them on the lattice to about 1e-16 of a period.
        The points after ``size``, and all points when h is no such step, are
        ``eval_fast``'s bit for bit.
        """
        steps = round(eps / h)
        if steps < 1 or eps / steps != h:
            out[...] = self.eval_fast(x, eps)
            return out
        period = 2 * steps  # half steps per fast period
        xi = math.fmod(x[0], eps) / eps + np.arange(period) / period
        repeats = min(_BLOCK, size) // period + 2
        tables: dict = {}

        def waves_at(m, wave, lo, hi):
            if (m, wave) not in tables:
                tables[m, wave] = np.tile(wave(TWO_PI * m * xi), repeats)
            mid = max(lo, min(hi, size))
            on = tables[m, wave][lo % period : lo % period + mid - lo]
            return on if mid == hi else np.concatenate((on, wave(TWO_PI * m * (x[mid:hi] / eps))))

        return self._walk(x, ((0, 0),), waves_at, [out])[0]


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
