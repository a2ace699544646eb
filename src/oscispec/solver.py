"""Direct bound-state solver: transfer matrix across the support, analytic tails.

A bound state at lambda = -kappa^2 (Re kappa > 0) decays like exp(+-kappa x)
outside the support hull [x0, x1], where the potential vanishes identically.
Starting from the exact left tail data (u, u')(x0) = (1, kappa), a fixed-step
classical RK4 integration of u'' = (V(x, x/eps) - lambda) u carries the
solution to x1; the scalar mismatch

    F(kappa) = u'(x1) + kappa * u(x1)

vanishes exactly on eigenvalues.  Because the tails are handled in closed
form there is no domain-truncation error: the only discretization is the
fixed step h <= eps / points_per_fast_period, kept commensurate with the
fast period so oscillatory truncation errors cancel over whole periods.

Layout.  One stage grid (``_StageGrid``) fixes the steps across the hull --
full steps of length h, then one partial step when the hull length is not a
multiple of h -- and holds the coefficients of y' = [[0, 1], [a - lam, b]] y
at the RK4 stage points as contiguous (start, middle, end) arrays, sampled
once and reused for every kappa.  For H, a = V and b = 0 (``None``); the
gauge-conjugated operator has b = -2 eps^2 v'/q.

One RK4 step body (``_rk4_step``), plain arithmetic, and one pairwise tree.
A step of the linear ODE is a 2x2 matrix: ``_step_maps`` runs the body once
over all steps (one numpy lane per step) on the basis columns, and
``_pair`` multiplies neighbouring maps, later step on the left.  Pairwise
products keep round-off growth at O(log n) (Higham, SIAM J. Sci. Comput. 14,
1993).  The tree serves three ways:

* ``_compose`` climbs it to the transfer matrix alone, in log2(n) numpy
  passes that keep no levels.  Root finding, ``transfer_matrix`` and the
  gauged mismatch take this path.
* ``_prefixes`` keeps the levels and sweeps back down (Blelloch, "Prefix sums
  and their applications", CMU-CS-90-190, 1990) to every partial product
  P_k = M_k ... M_0: u at every step end, for ``eigenfunction`` and for the
  Sturm count below.
* A numpy array of kappas (``min_mismatch_on_disk``) is composed on a
  (kappa, step) array, a few kappas at a time so that each chunk holds about
  ``_BATCH_ELEMENTS`` step maps.

For a real potential, the number N(kappa) of eigenvalues below -kappa^2 is
the number of zeros of the left-decaying solution on the whole line
(oscillation theorem; Simon, "Sturm oscillation and comparison theorems",
2005), read off the prefixes by ``_CoefficientGrid.count_below``.
``scan_roots`` counts the roots in its window as N(low) - N(high), exactly.

Roots of the real mismatch are polished with Brent's method (``_brent``),
complex roots with damped secant steps.  Every real bound state has
kappa^2 <= sup|V|, so bracket searches stop at sqrt(sup|V|).  Absence is
certified by counting: F is entire in kappa, so ``min_mismatch_on_disk``
counts the roots in a disk by the winding of F along its boundary.

This module never consumes the asymptotic machinery beyond an optional
initial guess, which is what makes it a genuine cross-check of the
eps^4 prediction rather than a restatement of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from . import asymptotics as asym
from .gauge import GaugeData
from .potentials import MIN_POINTS_PER_PERIOD, check_grid_size

_STEP_SLACK = 1.0 + 1e-9

# Brent tolerances: the tightest that scipy's brentq accepts, so roots agree with it to the bit.
_BRENT_XTOL = 1e-17
_BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 200

# an admissible root has Re kappa above this floor
_KAPPA_FLOOR = 1e-9
_MAX_BRACKET_EXPANSIONS = 48
_SECANT_MAX_ITER = 60
# min_mismatch_on_disk: radius over |eps^2 k2|; boundary samples, doubled up to the cap
_DISK_RADIUS_FACTOR, _CONTOUR_POINTS, _CONTOUR_MAX_POINTS = 2.0, 64, 1024
# eigenfunction: largest relative derivative defect of a root at the right edge
_MATCH_TOL = 1e-6
# step maps per chunk when composing an array of kappas: bounds a batch's working set
_BATCH_ELEMENTS = 4096
# Sturm count: h sqrt(sup|V|) below pi leaves at most one zero of u in a step (Sturm comparison)
_STURM_STEP_PHASE = math.pi


@dataclass(frozen=True)
class SolverConfig:
    """The solver's one setting: the step is h = eps / points_per_fast_period."""

    points_per_fast_period: int = 40
    # |F| at or below this counts as a root
    root_tol: ClassVar[float] = 1e-13

    def __post_init__(self) -> None:
        if self.points_per_fast_period < MIN_POINTS_PER_PERIOD:
            raise ValueError(f"points_per_fast_period must be at least {MIN_POINTS_PER_PERIOD}")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class SquareWell:
    """Constant well -depth on [a, b]: plumbing for closed-form oracle tests.

    Quacks like a two-scale function as far as the solver needs (fast trace,
    support hull, realness, sup |V|) while being exactly representable: no Fourier
    truncation, no envelope smoothing.
    """

    depth: float
    support: tuple[float, float] = (0.0, 1.0)

    @property
    def support_hull(self) -> tuple[float, float]:
        return self.support

    @property
    def is_real(self) -> bool:
        return True

    @property
    def has_zero_mean(self) -> bool:
        return False

    def sup_abs(self) -> float:
        return abs(self.depth)

    def eval_fast(self, x, eps: float):
        x = np.asarray(x, dtype=float)
        a, b = self.support
        return np.where((x >= a) & (x <= b), -float(self.depth), 0.0)


class _StageGrid:
    """Fixed RK4 steps across the support hull and the ODE coefficients at their stages.

    ``steps`` holds the step lengths: n full steps of length h, then one
    partial step when the hull length is not an exact multiple of h.  ``xs``
    holds the stage points x0 + j*h/2 for j = 0..2n over the full steps, then
    (mid, end) of the partial step, so step k reads its samples at indices
    2k, 2k+1, 2k+2.  Subclasses sample a (and b, else None) there, store them
    with ``_by_stage`` and set ``real`` when the samples are real.
    """

    b = None

    def __init__(self, hull: tuple[float, float], eps: float, h: float):
        if eps <= 0 or h <= 0:
            raise ValueError("eps and h must be positive")
        h_max = eps / MIN_POINTS_PER_PERIOD
        if h > h_max * _STEP_SLACK:
            raise ValueError(f"step too large for the fast scale: h={h:g} exceeds eps/{MIN_POINTS_PER_PERIOD}={h_max:g}")
        x0, x1 = hull
        length = x1 - x0
        self.h = float(h)
        self.x0, self.x1 = float(x0), float(x1)
        n_full = int(math.floor(length / h + 1e-9))
        check_grid_size(n_full, "steps", eps, hull)
        h_last = length - n_full * h
        if h_last < 1e-12 * max(1.0, length):
            h_last = 0.0
        self.steps = np.append(np.full(n_full, self.h), [h_last] if h_last > 0.0 else [])
        xs = x0 + 0.5 * h * np.arange(2 * n_full + 1)
        if h_last > 0.0:
            xs = np.concatenate([xs, [x0 + n_full * h + 0.5 * h_last, x1]])
        self.xs = xs

    def mismatch(self, kappa):
        """F(kappa) at one kappa, or at each kappa of a 1-D numpy array."""
        if not np.all(np.real(kappa) > 0):
            raise ValueError("not in the physical half-plane: Re kappa must be positive")
        if isinstance(kappa, np.ndarray):
            real = self.real and not np.iscomplexobj(kappa)
            kappa = kappa.astype(float if real else complex)
            t = np.empty((4, kappa.size), dtype=kappa.dtype)
            chunk = max(1, _BATCH_ELEMENTS // max(1, self.steps.size))
            for start in range(0, kappa.size, chunk):
                k = kappa[start : start + chunk]
                t[:, start : start + chunk] = _compose(_step_maps(self, -(k * k)[:, None]))
            t00, t01, t10, t11 = t
        else:
            real = self.real and np.imag(kappa) == 0
            kappa = float(np.real(kappa)) if real else complex(kappa)
            t00, t01, t10, t11 = (x.item() for x in _compose(_step_maps(self, -kappa * kappa)))
        u, w = t00 + t01 * kappa, t10 + t11 * kappa
        return w + kappa * u


def _by_stage(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage samples split into contiguous (start, middle, end) arrays, one entry per step."""
    return vals[:-1:2].copy(), vals[1::2].copy(), vals[2::2].copy()


def _slope(a, b, u, w):
    """w' = a u + b w, or a u where the first-order term vanishes (b is None).

    H passes None rather than zeros: zero b terms would add four products and
    four sums to every step map.
    """
    return a * u if b is None else a * u + b * w


def _rk4_step(h, u, w, a, b):
    """One classical RK4 step of u' = w, w' = a u + b w.

    ``a`` holds a - lam at the start, middle and end of the step; ``b`` the
    same for b, or None for H.  Pure arithmetic: h, u, w and the entries of
    a and b may be Python scalars or numpy arrays that broadcast together.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b if b is not None else (None, None, None)
    half = 0.5 * h
    k1u = w
    k1w = _slope(a0, b0, u, w)
    yu = u + half * k1u
    yw = w + half * k1w
    k2u = yw
    k2w = _slope(a1, b1, yu, yw)
    yu = u + half * k2u
    yw = w + half * k2w
    k3u = yw
    k3w = _slope(a1, b1, yu, yw)
    yu = u + h * k3u
    yw = w + h * k3w
    k4u = yw
    k4w = _slope(a2, b2, yu, yw)
    sixth = h / 6.0
    return u + sixth * (k1u + 2.0 * (k2u + k3u) + k4u), w + sixth * (k1w + 2.0 * (k2w + k3w) + k4w)


def _step_maps(grid: _StageGrid, lam):
    """The 2x2 RK4 map of every step at spectral value lam, one numpy lane per step.

    Returns the entry arrays (m00, m01, m10, m11); column j of a step's map
    is one ``_rk4_step`` from the basis vector e_j.  An array lam of shape
    (k, 1) gives (k, steps) arrays, one row per spectral value.
    """
    a = [x - lam for x in grid.a]
    m00, m10 = _rk4_step(grid.steps, 1.0, 0.0, a, grid.b)
    m01, m11 = _rk4_step(grid.steps, 0.0, 1.0, a, grid.b)
    return m00, m01, m10, m11


def _product(left, right):
    """Entries of the 2x2 products left @ right, elementwise over the entry arrays."""
    la, lb, lc, ld = left
    ea, eb, ec, ed = right
    return la * ea + lb * ec, la * eb + lb * ed, lc * ea + ld * ec, lc * eb + ld * ed


def _pair(m):
    """One level of the pairwise tree along the last axis: map 2j+1 times map 2j, an odd last map carried."""
    size = m[0].shape[-1]
    n = size - size % 2
    pairs = _product([x[..., 1:n:2] for x in m], [x[..., 0:n:2] for x in m])
    return pairs if n == size else tuple(np.concatenate((p, x[..., n:]), axis=-1) for p, x in zip(pairs, m))


def _compose(m):
    """Transfer matrix M[n-1] ... M[1] M[0] of the step maps, as the entries (t00, t01, t10, t11).

    The maps run along the last axis; the entries keep the leading axes.
    """
    if m[0].shape[-1] == 0:
        one, zero = np.ones(m[0].shape[:-1]), np.zeros(m[0].shape[:-1])
        return one, zero, zero, one
    while m[0].shape[-1] > 1:
        m = _pair(m)
    return tuple(x[..., 0] for x in m)


def _prefixes(m):
    """The identity and every partial product M[k] ... M[0] of the 1-D step maps, as entry arrays.

    Entry k + 1 carries the state at x0 across step k.  The up-sweep keeps
    each level of ``_compose``'s tree; the down-sweep then gives each
    level's prefixes from those of the level above: an odd position, or a
    carried last map, closes the same product as its parent, and an even
    position 2j > 0 is map 2j times the parent prefix j - 1.  So the last
    entry is ``_compose``'s total, bit for bit.
    """
    levels = [m]
    while levels[-1][0].size > 1:
        levels.append(_pair(levels[-1]))
    p = levels.pop()
    for m in reversed(levels):
        size = m[0].size
        n = size - size % 2
        evens = _product([x[2:n:2] for x in m], [q[: n // 2 - 1] for q in p])
        level = tuple(np.empty_like(x) for x in m)
        for out, x, q, e in zip(level, m, p, evens):
            out[0] = x[0]
            out[1:n:2] = q[: n // 2]
            out[2:n:2] = e
            if n < size:
                out[-1] = q[-1]
        p = level
    return tuple(np.append(i, x) for i, x in zip((1.0, 0.0, 0.0, 1.0), p))


class _CoefficientGrid(_StageGrid):
    """Potential samples at the RK4 stage points, reusable across kappa values.

    For real potentials the samples are kept as floats so the whole
    propagation stays in real arithmetic.
    """

    def __init__(self, V, eps: float, h: float):
        super().__init__(V.support_hull, eps, h)
        vals = np.asarray(V.eval_fast(self.xs, eps))
        self.real = not np.iscomplexobj(vals)
        self.a = _by_stage(vals)
        self.sup_abs = V.sup_abs()

    def count_below(self, kappa: float) -> tuple[int, float]:
        """(N(kappa), F(kappa)): the number of eigenvalues below -kappa^2, and the mismatch.

        For a real potential and kappa > 0 only.  N counts the zeros of the
        solution with left tail data (1, kappa) (oscillation theorem): none in
        the left tail; on the hull, the sign changes of u over the step ends,
        exact zeros skipped; in the right tail u1 cosh(kappa t) + (w1/kappa)
        sinh(kappa t), one zero exactly when F and u1 have opposite signs
        (u1 w1 < 0 and |kappa u1| < |w1|).  F is ``mismatch(kappa)`` bit for bit.
        """
        phase = self.h * math.sqrt(self.sup_abs)
        if not phase < _STURM_STEP_PHASE:
            raise ValueError(
                f"step too large to count zeros: h sqrt(sup|V|) = {phase:.3g} must stay below pi"
            )
        kappa = float(kappa)
        p00, p01, p10, p11 = _prefixes(_step_maps(self, -kappa * kappa))
        u = p00 + p01 * kappa
        f = float(p10[-1] + p11[-1] * kappa + kappa * u[-1])
        signs = np.sign(np.append(u, f))
        signs = signs[signs != 0]
        return int(np.count_nonzero(signs[1:] != signs[:-1])), f


@dataclass(frozen=True)
class TransferMatrix:
    """Fundamental solution matrix of u'' = (V - lambda) u across [x0, x1]."""

    matrix: np.ndarray

    def det(self) -> complex:
        m = self.matrix
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def transfer_matrix(V, eps: float, lam: complex, h: float) -> TransferMatrix:
    """Compose the step maps across the support hull at spectral value lam.

    The Wronskian of the exact flow is conserved, so det = 1 up to integrator
    round-off; deviations are a direct integrator health measure.
    """
    grid = _CoefficientGrid(V, eps, h)
    lam = float(np.real(lam)) if grid.real and np.imag(lam) == 0 else complex(lam)
    m = np.array(_compose(_step_maps(grid, lam)), dtype=complex).reshape(2, 2)
    return TransferMatrix(matrix=m)


def mismatch(V, eps: float, kappa, cfg: SolverConfig = DEFAULT_SOLVER) -> complex:
    """Tail-matching defect F(kappa); zero exactly on bound states."""
    return _CoefficientGrid(V, eps, eps / cfg.points_per_fast_period).mismatch(kappa)


@dataclass(frozen=True)
class BoundStateResult:
    kappa: complex
    eigenvalue: complex
    mismatch_residual: float
    iterations: int
    step: float
    converged: bool


def _brent(f, lo: float, hi: float, flo: float, fhi: float) -> tuple[float, float, int]:
    """Root of f on [lo, hi] by Brent's method: (root, f(root), iterations).

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4,
    in the formulation of scipy's ``brentq``, ported step for step so roots
    and iteration counts match it bit for bit.  The caller passes the end
    values it already has; they must be nonzero and of opposite sign.
    """
    xpre, xcur, fpre, fcur = lo, hi, flo, fhi
    xblk = fblk = spre = scur = 0.0
    for it in range(1, _BRENT_MAXITER + 1):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur, it
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur} is NaN; Brent cannot continue")
    raise RuntimeError(f"Brent failed to converge after {_BRENT_MAXITER} iterations")


def _real_root(grid: _CoefficientGrid, lo: float, hi: float, cap: float) -> Optional[tuple[float, float, int]]:
    """Brent root of the real mismatch on [lo, hi], widened up to hi = cap; None without a sign change."""

    def f(k: float) -> float:
        return grid.mismatch(k).real

    flo, fhi = f(lo), f(hi)
    evals, expansions = 2, 0
    while flo * fhi > 0 and expansions < _MAX_BRACKET_EXPANSIONS:
        grew = False
        if lo > _KAPPA_FLOOR * 2:
            lo = max(lo / 2.0, _KAPPA_FLOOR)
            flo = f(lo)
            evals += 1
            grew = True
        if hi < cap:
            hi = min(hi * 2.0, cap)
            fhi = f(hi)
            evals += 1
            grew = True
        expansions += 1
        if not grew:
            break
    if flo * fhi > 0:
        return None
    if flo == 0.0:
        return lo, 0.0, evals
    if fhi == 0.0:
        return hi, 0.0, evals
    root, froot, its = _brent(f, lo, hi, flo, fhi)
    # a complex potential has a complex mismatch on the real axis: Brent zeroes its real part only
    residual = abs(froot) if grid.real else abs(grid.mismatch(root))
    return root, residual, evals + its


def _secant_root(grid: _CoefficientGrid, start: complex) -> Optional[tuple[complex, float, int]]:
    """Damped secant on the analytic mismatch: the slope through the last two iterates.

    The first slope comes from kappa (1 + 1e-7), which stays in the
    half-plane.  Each step is halved up to 9 times until |F| falls while
    Re kappa stays above the floor; otherwise there is no root to report.
    """
    prev, kappa = start * (1.0 + 1e-7), start
    f_prev, f = grid.mismatch(prev), grid.mismatch(kappa)
    for it in range(1, _SECANT_MAX_ITER + 1):
        if abs(f) <= SolverConfig.root_tol:
            return kappa, abs(f), it
        step = f * (kappa - prev) / (f - f_prev)
        damp = 1.0
        for _ in range(9):
            cand = kappa - damp * step
            if cand.real > _KAPPA_FLOOR:
                fc = grid.mismatch(cand)
                if abs(fc) < abs(f):
                    prev, f_prev, kappa, f = kappa, f, cand, fc
                    break
            damp *= 0.5
        else:
            return None
    if abs(f) <= SolverConfig.root_tol:
        return kappa, abs(f), _SECANT_MAX_ITER
    return None


def find_bound_state(
    V,
    eps: float,
    k2_hint: complex | None = None,
    cfg: SolverConfig = DEFAULT_SOLVER,
    bracket: tuple[float, float] | None = None,
) -> Optional[BoundStateResult]:
    """Locate the bound state emerging near the spectral edge, or report absence.

    Real potentials use a bracketed Brent search seeded at kappa = eps^2 * k2
    (expanding geometrically when the initial bracket misses the sign change).
    Complex potentials use damped secant steps from the same seed.
    ``bracket`` overrides the seeding entirely, which is also the route for
    potentials with a mean component (no asymptotic seed exists for them).

    Returns None when no admissible root (Re kappa > kappa_floor, |F| within
    root_tol) is found; absence of the small eigenvalue is the expected
    outcome when Re k2 < 0, and ``min_mismatch_on_disk`` certifies it by
    counting the roots in a disk around the seed (zero of them).
    """
    h = eps / cfg.points_per_fast_period
    # every real bound state has kappa^2 <= sup|V|: real brackets widen no further
    cap = math.sqrt(V.sup_abs())
    # sample the grid only after every early exit: it is most of a short call's cost
    if bracket is not None:
        lo, hi = float(bracket[0]), float(bracket[1])
        if not (0 < lo < hi):
            raise ValueError("bracket must satisfy 0 < low < high")
        search, args = _real_root, (lo, hi, cap)
    else:
        if not V.has_zero_mean:
            raise ValueError("provide an explicit bracket for potentials with a mean component")
        k2 = complex(k2_hint if k2_hint is not None else asym.compute_k2(V).value)
        seed = eps * eps * k2
        if V.is_real and abs(k2.imag) <= 1e-10 * max(abs(k2), 1.0):
            kappa0 = seed.real
            if kappa0 <= _KAPPA_FLOOR:
                return None
            hi = min(10.0 * kappa0, cap)
            search, args = _real_root, (min(kappa0 / 10.0, 0.5 * hi), hi, cap)
        else:
            start = seed if seed.real > _KAPPA_FLOOR else complex(abs(seed))
            if abs(start) <= _KAPPA_FLOOR:
                return None
            search, args = _secant_root, (start,)
    hit = search(_CoefficientGrid(V, eps, h), *args)
    if hit is None:
        return None
    root, residual, its = hit
    kappa = complex(root)
    return BoundStateResult(
        kappa=kappa,
        eigenvalue=-kappa * kappa,
        mismatch_residual=residual,
        iterations=its,
        step=h,
        converged=residual <= SolverConfig.root_tol and kappa.real > _KAPPA_FLOOR,
    )


@dataclass(frozen=True)
class ScanResult:
    count: int
    kappas: tuple[float, ...]
    eigenvalues: tuple[float, ...]
    window: tuple[float, float]
    samples: int


def scan_roots(
    V,
    eps: float,
    window: tuple[float, float] | None = None,
    samples: int = 2000,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> ScanResult:
    """Count the bound states with kappa in (low, high] exactly, and locate each.

    The window defaults to (kappa_floor, sqrt(sup|V|)], which holds every
    admissible real bound state.  The count is N(low) - N(high), N from the
    Sturm oscillation count (``_CoefficientGrid.count_below``), so only real
    potentials qualify, and the step must satisfy h sqrt(sup|V|) < pi.
    Bisection on N over the ``samples`` evenly spaced kappas isolates each
    root to one sample interval, and further bisection inside it to one root
    per bracket; Brent's method then polishes each root on its bracket.  A
    root exactly at a sample is returned as is.
    """
    if not V.is_real:
        raise ValueError("root scan requires a real potential")
    if samples < 2:
        raise ValueError("need at least two samples")
    lo, hi = window if window is not None else (_KAPPA_FLOOR, math.sqrt(V.sup_abs()))
    if not (0 < lo < hi):
        raise ValueError("scan window must satisfy 0 < low < high")
    grid = _CoefficientGrid(V, eps, eps / cfg.points_per_fast_period)
    ks = np.linspace(lo, hi, samples).tolist()
    roots: list[float] = []
    # brackets (a, b) holding N(a) - N(b) roots, with (N, F) at both ends and,
    # while they span more than one sample interval, the sample indices of a and b
    stack = [(ks[0], ks[-1], grid.count_below(ks[0]), grid.count_below(ks[-1]), 0, samples - 1)]
    while stack:
        a, b, (na, fa), (nb, fb), i, j = stack.pop()
        if na <= nb:
            continue
        if na - nb == 1 and j - i <= 1:
            roots.append(b if fb == 0.0 else _brent(grid.mismatch, a, b, fa, fb)[0])
            continue
        if j - i > 1:
            m = (i + j) // 2
            c, left, right = ks[m], (i, m), (m, j)
        else:
            c, left, right = 0.5 * (a + b), (i, j), (i, j)
            if not a < c < b:
                raise RuntimeError(f"cannot separate {na - nb} roots of the mismatch at kappa={a!r}")
        mid = grid.count_below(c)
        stack.append((c, b, mid, (nb, fb), *right))
        stack.append((a, c, (na, fa), mid, *left))
    return ScanResult(
        count=len(roots),
        kappas=tuple(roots),
        eigenvalues=tuple(-r * r for r in roots),
        window=(float(lo), float(hi)),
        samples=samples,
    )


def min_mismatch_on_disk(
    V,
    eps: float,
    k2_hint: complex | None = None,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> float:
    """Minimum |F| over the disk around eps^2 * k2 cut to Re kappa >= kappa_floor; 0.0 with a root inside.

    F is entire in kappa, so the winding of F along the boundary of the cut
    disk counts its roots inside (argument principle; Delves & Lyness, Math.
    Comp. 21, 1967): the sum of the wrapped phase steps between samples over
    2 pi, exact once every step is below pi/2.  With no root inside, |F| is
    smallest on the boundary (minimum modulus principle), so the least
    boundary sample is the floor.
    """
    center = eps * eps * complex(k2_hint if k2_hint is not None else asym.compute_k2(V).value)
    # the circle reaches past the cut: center.real + radius >= |center| > 0
    radius = _DISK_RADIUS_FACTOR * max(abs(center), 10.0 * _KAPPA_FLOOR)
    grid = _CoefficientGrid(V, eps, eps / cfg.points_per_fast_period)
    n = _CONTOUR_POINTS
    while n <= _CONTOUR_MAX_POINTS:
        # the circle, every point left of the cut moved onto it: the boundary of the cut disk
        z = center + radius * np.exp(2j * math.pi * np.arange(n) / n)
        f = grid.mismatch(np.where(z.real > _KAPPA_FLOOR, z, _KAPPA_FLOOR + 1j * z.imag))
        if np.any(f == 0):
            return 0.0
        steps = np.angle(np.roll(f, -1) / f)
        if np.all(np.abs(steps) < 0.5 * math.pi):
            return 0.0 if round(np.sum(steps) / (2.0 * math.pi)) != 0 else float(np.min(np.abs(f)))
        n *= 2
    raise ValueError(f"cannot count the roots in the disk: a phase step of F reaches pi/2 at {n // 2} points")


@dataclass(frozen=True)
class EigenfunctionSamples:
    x: np.ndarray
    values: np.ndarray
    match_defect: float


def eigenfunction(
    V,
    eps: float,
    kappa,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> EigenfunctionSamples:
    """Sampled normalized bound state for a root kappa of the mismatch.

    Interior samples come from the propagation; both tails are exact
    exponentials, so the L2 normalization integrates them to infinity in
    closed form, and each is sampled over half the hull length.  A kappa that
    is not a root leaves a derivative defect at the right edge and is
    rejected loudly.
    """
    h = eps / cfg.points_per_fast_period
    grid = _CoefficientGrid(V, eps, h)
    kc = complex(kappa)
    if kc.real <= 0:
        raise ValueError("not in the physical half-plane: Re kappa must be positive")
    real = grid.real and kc.imag == 0
    k0 = kc.real if real else kc
    p00, p01, p10, p11 = _prefixes(_step_maps(grid, -k0 * k0))
    xs = np.cumsum(np.append(grid.x0, grid.steps))
    us = p00 + p01 * k0
    u1, w1 = us[-1], p10[-1] + p11[-1] * k0
    defect = abs(w1 + kc * u1) / (abs(kc) * abs(u1) + abs(w1) + 1e-300)
    if defect > _MATCH_TOL:
        raise ValueError(
            f"kappa is not a root of the mismatch: relative derivative defect {defect:.3e} "
            "at the right support edge"
        )

    pad = 0.5 * (grid.x1 - grid.x0)
    n_tail = max(2, int(math.ceil(pad / h)))
    ts = np.linspace(-pad, 0.0, n_tail + 1)
    left_x = grid.x0 + ts[:-1]
    left_u = np.exp(kc * ts[:-1]) * us[0]
    ts2 = np.linspace(0.0, pad, n_tail + 1)
    right_x = grid.x1 + ts2[1:]
    right_u = u1 * np.exp(-kc * ts2[1:])

    norm_sq = (abs(us[0]) ** 2 + abs(u1) ** 2) / (2.0 * kc.real)
    norm_sq += float(np.trapezoid(np.abs(us) ** 2, xs))
    norm = math.sqrt(norm_sq)

    x_all = np.concatenate([left_x, xs, right_x])
    u_all = np.concatenate([left_u, us, right_u]).astype(complex) / norm
    return EigenfunctionSamples(x=x_all, values=u_all, match_defect=float(defect))


@dataclass(frozen=True)
class ConvergenceStudy:
    steps: tuple[float, ...]
    eigenvalues: tuple[complex, ...]
    observed_order: float
    extrapolated: complex
    error_estimate: float


def convergence_study(
    V,
    eps: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
    k2_hint: complex | None = None,
    bracket: tuple[float, float] | None = None,
) -> ConvergenceStudy:
    """Refine the step, re-solve, and extract the observed order and a safe value.

    Solves at p, 2p and 4p points per fast period, p the configured density,
    so the step halves between levels.  With a fourth-order one-step method
    the eigenvalue differences contract by 16 per level; the extrapolated
    value and its error bar follow the standard fine-minus-coarse estimate.
    """
    hs: list[float] = []
    lams: list[complex] = []
    for k in range(3):
        level = SolverConfig(cfg.points_per_fast_period * 2**k)
        res = find_bound_state(V, eps, k2_hint=k2_hint, cfg=level, bracket=bracket)
        if res is None or not res.converged:
            h = eps / level.points_per_fast_period
            raise ValueError(f"solver failed to converge during the step study at h={h:g}")
        hs.append(res.step)
        lams.append(res.eigenvalue)
    diffs = [abs(a - b) for a, b in zip(lams, lams[1:])]
    order = float("nan") if diffs[-1] == 0 or diffs[-2] == 0 else math.log2(diffs[-2] / diffs[-1])
    extrapolated = lams[-1] + (lams[-1] - lams[-2]) / 15.0
    return ConvergenceStudy(
        steps=tuple(hs),
        eigenvalues=tuple(lams),
        observed_order=order,
        extrapolated=extrapolated,
        error_estimate=abs(extrapolated - lams[-1]),
    )


class _GaugedGrid(_StageGrid):
    """Stage samples for the conjugated operator's ODE.

    psi'' = (eps*f/q - lambda) psi - (2 eps^2 v'/q) psi', with all
    coefficients vanishing outside the hull so the same tail matching
    applies.  Used to confirm that the gauge transform leaves the located
    eigenvalue invariant.
    """

    def __init__(self, g: GaugeData, cfg: SolverConfig = DEFAULT_SOLVER):
        eps = g.eps
        super().__init__(g.potential.support_hull, eps, eps / cfg.points_per_fast_period)
        c = g.coefficients(self.xs)
        alpha = eps * c.f / c.q
        beta = -2.0 * eps**2 * c.vprime / c.q
        self.real = not np.iscomplexobj(alpha)
        self.a = _by_stage(alpha)
        self.b = _by_stage(beta)


def gauged_mismatch(g: GaugeData, kappa, cfg: SolverConfig = DEFAULT_SOLVER) -> complex:
    """Tail-matching defect of the gauge-conjugated operator at kappa."""
    return _GaugedGrid(g, cfg).mismatch(kappa)
