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
multiple of h -- and the RK4 stage points (start, middle, end of each step).
The coefficient grid samples V there once and is reused for every kappa.
One RK4 kernel (``_rk4``) propagates u'' = (V - lam) u over those samples.
It is plain arithmetic, so the same body runs on a Python scalar (one kappa,
the fast path for root finding) or on numpy arrays of kappas, one lane per
kappa: ``scan_roots`` and ``min_mismatch_on_disk`` push all their samples
through one call.  Real lanes give the scalar values bit for bit; complex
lanes agree to the last ulp.  The gauge-conjugated operator has a first-order
term b(x) u' and keeps its own step body on the same stage grid, because
routing it through the H kernel with b = 0 slows every H step.

Roots of the real mismatch are polished with Brent's method (``_brent``),
complex roots with damped Newton.

This module never consumes the asymptotic machinery beyond an optional
initial guess, which is what makes it a genuine cross-check of the
eps^4 prediction rather than a restatement of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from . import asymptotics as asym
from .gauge import GaugeData

_STEP_SLACK = 1.0 + 1e-9

# Brent tolerances: the tightest that scipy's brentq accepts, so roots agree with it to the bit.
_BRENT_XTOL = 1e-17
_BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 200


@dataclass(frozen=True)
class SolverConfig:
    points_per_fast_period: int = 40
    root_tol: float = 1e-13
    kappa_floor: float = 1e-9
    scan_window: tuple[float, float] = (1e-6, 0.5)
    max_bracket_expansions: int = 48
    newton_max_iter: int = 60

    def __post_init__(self) -> None:
        if self.points_per_fast_period < 20:
            raise ValueError("points_per_fast_period must be at least 20")
        if self.root_tol <= 0 or self.kappa_floor < 0:
            raise ValueError("root_tol must be positive and kappa_floor nonnegative")
        lo, hi = self.scan_window
        if not (0 < lo < hi):
            raise ValueError("scan window must satisfy 0 < low < high")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class SquareWell:
    """Constant well -depth on [a, b]: plumbing for closed-form oracle tests.

    Quacks like a two-scale function as far as the solver needs (fast trace,
    support hull, realness) while being exactly representable: no Fourier
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

    def eval_fast(self, x, eps: float):
        x = np.asarray(x, dtype=float)
        a, b = self.support
        return np.where((x >= a) & (x <= b), -float(self.depth), 0.0)


class _StageGrid:
    """Fixed RK4 steps across the support hull and their stage points.

    ``steps`` holds n full steps of length h, then one partial step when the
    hull length is not an exact multiple of h.  ``xs`` holds the stage points
    x0 + j*h/2 for j = 0..2n over the full steps, then (mid, end) of the
    partial step, so step k reads its samples at indices 2k, 2k+1, 2k+2.
    """

    def __init__(self, hull: tuple[float, float], eps: float, h: float):
        if eps <= 0 or h <= 0:
            raise ValueError("eps and h must be positive")
        if h > eps / 20.0 * _STEP_SLACK:
            raise ValueError(f"step too large for the fast scale: h={h:g} exceeds eps/20={eps / 20:g}")
        x0, x1 = hull
        length = x1 - x0
        self.h = float(h)
        self.x0, self.x1 = float(x0), float(x1)
        n_full = int(math.floor(length / h + 1e-9))
        h_last = length - n_full * h
        if h_last < 1e-12 * max(1.0, length):
            h_last = 0.0
        self.steps = [self.h] * n_full + ([h_last] if h_last > 0.0 else [])
        xs = x0 + 0.5 * h * np.arange(2 * n_full + 1)
        if h_last > 0.0:
            xs = np.concatenate([xs, [x0 + n_full * h + 0.5 * h_last, x1]])
        self.xs = xs


def _rk4(vals, steps, u, w, lam, trail=None):
    """Classical RK4 for u'' = (V - lam) u over the stage samples ``vals``.

    Pure arithmetic: u, w and lam may be Python scalars or numpy arrays of
    one lane per kappa.  ``trail``, when given, receives (u, w) after every
    step.
    """
    idx = 0
    for h in steps:
        half = 0.5 * h
        a0 = vals[idx] - lam
        a1 = vals[idx + 1] - lam
        a2 = vals[idx + 2] - lam
        k1u = w
        k1w = a0 * u
        yu = u + half * k1u
        yw = w + half * k1w
        k2u = yw
        k2w = a1 * yu
        yu = u + half * k2u
        yw = w + half * k2w
        k3u = yw
        k3w = a1 * yu
        yu = u + h * k3u
        yw = w + h * k3w
        k4u = yw
        k4w = a2 * yu
        sixth = h / 6.0
        u = u + sixth * (k1u + 2.0 * (k2u + k3u) + k4u)
        w = w + sixth * (k1w + 2.0 * (k2w + k3w) + k4w)
        idx += 2
        if trail is not None:
            trail.append((u, w))
    return u, w


class _CoefficientGrid(_StageGrid):
    """Potential samples at the RK4 stage points, reusable across kappa values.

    For real potentials the samples are kept as floats so the whole
    propagation stays in real arithmetic.
    """

    def __init__(self, V, eps: float, h: float):
        super().__init__(V.support_hull, eps, h)
        vals = np.asarray(V.eval_fast(self.xs, eps))
        self.real = bool(getattr(V, "is_real", False))
        if self.real:
            vals = vals.real
        self.values = vals.tolist()

    def mismatch(self, kappa):
        """F(kappa) at one kappa, or lane by lane over a numpy array of kappas."""
        if not np.all(np.real(kappa) > 0):
            raise ValueError("not in the physical half-plane: Re kappa must be positive")
        if isinstance(kappa, np.ndarray):
            real = self.real and not np.iscomplexobj(kappa)
            kappa = kappa.astype(float if real else complex)
        else:
            real = self.real and np.imag(kappa) == 0
            kappa = float(np.real(kappa)) if real else complex(kappa)
        u, w = _rk4(self.values, self.steps, 1.0 if real else 1.0 + 0j, kappa, -kappa * kappa)
        return w + kappa * u


@dataclass(frozen=True)
class TransferMatrix:
    """Fundamental solution matrix of u'' = (V - lambda) u across [x0, x1]."""

    matrix: np.ndarray
    x0: float
    x1: float
    lam: complex

    def det(self) -> complex:
        m = self.matrix
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def transfer_matrix(V, eps: float, lam: complex, h: float) -> TransferMatrix:
    """Propagate the identity data across the support hull at spectral value lam.

    The Wronskian of the exact flow is conserved, so det = 1 up to integrator
    round-off; deviations are a direct integrator health measure.
    """
    grid = _CoefficientGrid(V, eps, h)
    if grid.real and np.imag(lam) == 0:
        lam, one, zero = float(np.real(lam)), 1.0, 0.0
    else:
        lam, one, zero = complex(lam), 1.0 + 0j, 0j
    c0 = _rk4(grid.values, grid.steps, one, zero, lam)
    c1 = _rk4(grid.values, grid.steps, zero, one, lam)
    m = np.array([[c0[0], c1[0]], [c0[1], c1[1]]], dtype=complex)
    return TransferMatrix(matrix=m, x0=grid.x0, x1=grid.x1, lam=complex(lam))


def mismatch(V, eps: float, kappa, cfg: SolverConfig = DEFAULT_SOLVER, step: float | None = None) -> complex:
    """Tail-matching defect F(kappa); zero exactly on bound states."""
    h = step if step is not None else eps / cfg.points_per_fast_period
    return _CoefficientGrid(V, eps, h).mismatch(kappa)


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


def _real_root(
    grid: _CoefficientGrid,
    lo: float,
    hi: float,
    cfg: SolverConfig,
) -> Optional[tuple[float, float, int]]:
    """Brent root of the real mismatch on [lo, hi]; None without a sign change."""

    def f(k: float) -> float:
        return grid.mismatch(k).real

    flo = f(lo)
    fhi = f(hi)
    evals = 2
    expansions = 0
    while flo * fhi > 0 and expansions < cfg.max_bracket_expansions:
        grew = False
        if lo > cfg.kappa_floor * 2:
            lo = max(lo / 2.0, cfg.kappa_floor)
            flo = f(lo)
            evals += 1
            grew = True
        if hi < 1.0:
            hi = min(hi * 2.0, 1.0)
            fhi = f(hi)
            evals += 1
            grew = True
        expansions += 1
        if not grew:
            break
        if flo * fhi <= 0:
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


def _newton_root(grid: _CoefficientGrid, start: complex, cfg: SolverConfig) -> Optional[tuple[complex, float, int]]:
    """Damped Newton on the analytic mismatch; derivative by centered difference."""
    kappa = complex(start)
    if kappa.real <= cfg.kappa_floor:
        return None
    f = grid.mismatch(kappa)
    for it in range(1, cfg.newton_max_iter + 1):
        if abs(f) <= cfg.root_tol:
            return kappa, abs(f), it
        delta = 1e-7 * max(abs(kappa), 10.0 * cfg.kappa_floor)
        right = kappa + delta
        left = kappa - delta
        if left.real <= 0:
            left = kappa  # one-sided near the boundary of the half-plane
            deriv = (grid.mismatch(right) - f) / delta
        else:
            deriv = (grid.mismatch(right) - grid.mismatch(left)) / (2.0 * delta)
        if deriv == 0:
            return None
        step = f / deriv
        damp = 1.0
        for _ in range(9):
            cand = kappa - damp * step
            if cand.real > cfg.kappa_floor:
                fc = grid.mismatch(cand)
                if abs(fc) < abs(f):
                    kappa, f = cand, fc
                    break
            damp *= 0.5
        else:
            return None
    if abs(f) <= cfg.root_tol:
        return kappa, abs(f), cfg.newton_max_iter
    return None


def find_bound_state(
    V,
    eps: float,
    k2_hint: complex | None = None,
    cfg: SolverConfig = DEFAULT_SOLVER,
    bracket: tuple[float, float] | None = None,
    step: float | None = None,
) -> Optional[BoundStateResult]:
    """Locate the bound state emerging near the spectral edge, or report absence.

    Real potentials use a bracketed Brent search seeded at kappa = eps^2 * k2
    (expanding geometrically when the initial bracket misses the sign change).
    Complex potentials use damped Newton from the same seed.  ``bracket``
    overrides the seeding entirely, which is also the route for potentials
    with a mean component (no asymptotic seed exists for them).

    Returns None when no admissible root (Re kappa > kappa_floor, |F| within
    root_tol) is found; absence of the small eigenvalue is the expected
    outcome when Re k2 < 0, and the disk scan in ``min_mismatch_on_disk``
    provides the corroborating evidence.
    """
    h = step if step is not None else eps / cfg.points_per_fast_period
    # sample the grid only after every early exit: it is most of a short call's cost
    if bracket is not None:
        lo, hi = float(bracket[0]), float(bracket[1])
        if not (0 < lo < hi):
            raise ValueError("bracket must satisfy 0 < low < high")
        search, args = _real_root, (lo, hi)
    else:
        if not getattr(V, "has_zero_mean", False):
            raise ValueError("provide an explicit bracket for potentials with a mean component")
        k2 = k2_hint if k2_hint is not None else asym.compute_k2(V).value
        k2 = complex(k2)
        seed = eps * eps * k2
        if getattr(V, "is_real", False) and abs(k2.imag) <= 1e-10 * max(abs(k2), 1.0):
            kappa0 = seed.real
            if kappa0 <= cfg.kappa_floor:
                return None
            search, args = _real_root, (kappa0 / 10.0, min(10.0 * kappa0, 1.0))
        else:
            start = seed if seed.real > cfg.kappa_floor else complex(abs(seed))
            if abs(start) <= cfg.kappa_floor:
                return None
            search, args = _newton_root, (start,)
    hit = search(_CoefficientGrid(V, eps, h), *args, cfg)
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
        converged=residual <= cfg.root_tol and kappa.real > cfg.kappa_floor,
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
    """Count sign changes of the real mismatch over a kappa window and polish them.

    Only real potentials have a real-valued mismatch along real kappa, so the
    scan rejects anything else.  The count is exact for simple roots separated
    by more than the sample spacing.
    """
    if not getattr(V, "is_real", False):
        raise ValueError("root scan requires a real potential")
    if samples < 2:
        raise ValueError("need at least two samples")
    lo, hi = window if window is not None else cfg.scan_window
    if not (0 < lo < hi):
        raise ValueError("scan window must satisfy 0 < low < high")
    h = eps / cfg.points_per_fast_period
    grid = _CoefficientGrid(V, eps, h)
    ks = np.linspace(lo, hi, samples).tolist()
    fs = grid.mismatch(np.array(ks)).tolist()
    roots: list[float] = []
    for i in range(samples - 1):
        if fs[i] == 0.0:
            roots.append(ks[i])
            continue
        if fs[i] * fs[i + 1] < 0:
            root, _, _ = _brent(grid.mismatch, ks[i], ks[i + 1], fs[i], fs[i + 1])
            roots.append(root)
    if fs[-1] == 0.0:
        roots.append(ks[-1])
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
    radius_factor: float = 2.0,
    n_radial: int = 10,
    n_angular: int = 16,
) -> float:
    """Minimum |F| over a sampled disk around eps^2 * k2 cut to Re kappa > 0.

    A would-be root inside the disk forces this minimum toward zero, so a
    floor well above root_tol is positive evidence of absence.  Heuristic by
    construction: a certificate of no sign change, not a proof.
    """
    k2 = k2_hint if k2_hint is not None else asym.compute_k2(V).value
    center = eps * eps * complex(k2)
    radius = radius_factor * max(abs(center), 10.0 * cfg.kappa_floor)
    h = eps / cfg.points_per_fast_period
    grid = _CoefficientGrid(V, eps, h)
    radii = radius * np.linspace(0.0, 1.0, n_radial + 1)[1:]
    angles = np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False)
    candidates = [center]
    for r in radii:
        for th in angles:
            candidates.append(center + r * complex(math.cos(th), math.sin(th)))
    admissible = [k for k in candidates if k.real > cfg.kappa_floor]
    best = float(np.min(np.abs(grid.mismatch(np.array(admissible))))) if admissible else math.inf
    if not math.isfinite(best):
        raise ValueError("no admissible sample in the half-plane disk; enlarge the radius")
    return best


@dataclass(frozen=True)
class EigenfunctionSamples:
    x: np.ndarray
    values: np.ndarray
    kappa: complex
    match_defect: float


def eigenfunction(
    V,
    eps: float,
    kappa,
    cfg: SolverConfig = DEFAULT_SOLVER,
    step: float | None = None,
    pad: float | None = None,
    match_tol: float = 1e-6,
) -> EigenfunctionSamples:
    """Sampled normalized bound state for a root kappa of the mismatch.

    Interior samples come from the propagation; both tails are exact
    exponentials, so the L2 normalization integrates them to infinity in
    closed form.  A kappa that is not a root leaves a derivative defect at
    the right edge and is rejected loudly.
    """
    h = step if step is not None else eps / cfg.points_per_fast_period
    grid = _CoefficientGrid(V, eps, h)
    kc = complex(kappa)
    if kc.real <= 0:
        raise ValueError("not in the physical half-plane: Re kappa must be positive")
    real = grid.real and kc.imag == 0
    k0 = kc.real if real else kc
    trail = [(1.0, k0) if real else (1.0 + 0j, k0)]
    _rk4(grid.values, grid.steps, *trail[0], -k0 * k0, trail)
    xs = np.array(list(accumulate(grid.steps, initial=grid.x0)))
    us, ws = np.array(trail).T

    u1, w1 = us[-1], ws[-1]
    defect = abs(w1 + kc * u1) / (abs(kc) * abs(u1) + abs(w1) + 1e-300)
    if defect > match_tol:
        raise ValueError(
            f"kappa is not a root of the mismatch: relative derivative defect {defect:.3e} "
            "at the right support edge"
        )

    if pad is None:
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
    return EigenfunctionSamples(x=x_all, values=u_all, kappa=kc, match_defect=float(defect))


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
    h_sequence: Sequence[float] | None = None,
    cfg: SolverConfig = DEFAULT_SOLVER,
    k2_hint: complex | None = None,
    bracket: tuple[float, float] | None = None,
) -> ConvergenceStudy:
    """Refine the step, re-solve, and extract the observed order and a safe value.

    The sequence must halve (default: three levels down from the configured
    step).  With a fourth-order one-step method the eigenvalue differences
    contract by 16 per level; the extrapolated value and its error bar follow
    the standard fine-minus-coarse estimate.
    """
    if h_sequence is None:
        h0 = eps / cfg.points_per_fast_period
        h_sequence = [h0, h0 / 2.0, h0 / 4.0]
    hs = [float(h) for h in h_sequence]
    if len(hs) < 3:
        raise ValueError("need at least three steps")
    for a, b in zip(hs, hs[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ValueError("steps must halve between levels")
    lams: list[complex] = []
    for h in hs:
        res = find_bound_state(V, eps, k2_hint=k2_hint, cfg=cfg, bracket=bracket, step=h)
        if res is None or not res.converged:
            raise ValueError(f"solver failed to converge during the step study at h={h:g}")
        lams.append(res.eigenvalue)
    diffs = [abs(a - b) for a, b in zip(lams, lams[1:])]
    if diffs[-1] == 0 or diffs[-2] == 0:
        order = float("nan")
    else:
        order = math.log2(diffs[-2] / diffs[-1])
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

    def __init__(self, g: GaugeData, cfg: SolverConfig = DEFAULT_SOLVER, step: float | None = None):
        eps = g.eps
        h = step if step is not None else eps / cfg.points_per_fast_period
        super().__init__(g.potential.support_hull, eps, h)
        qt = g.q_tilde(self.xs)
        alpha = eps * g.f_tilde(self.xs) / qt
        beta = -2.0 * eps**2 * g.v_total_d1(self.xs) / qt
        self.real = bool(getattr(g.potential, "is_real", False))
        if self.real:
            alpha = alpha.real
            beta = beta.real
        self.alpha = alpha.tolist()
        self.beta = beta.tolist()

    def mismatch(self, kappa) -> complex:
        if not (np.real(kappa) > 0):
            raise ValueError("not in the physical half-plane: Re kappa must be positive")
        if self.real and np.imag(kappa) == 0:
            kappa = float(np.real(kappa))
            u, w = 1.0, kappa
        else:
            kappa = complex(kappa)
            u, w = 1.0 + 0j, kappa
        lam = -kappa * kappa
        al = self.alpha
        bl = self.beta
        idx = 0
        for hh in self.steps:
            a0 = al[idx] - lam
            a1 = al[idx + 1] - lam
            a2 = al[idx + 2] - lam
            b0 = bl[idx]
            b1 = bl[idx + 1]
            b2 = bl[idx + 2]
            k1u = w
            k1w = a0 * u + b0 * w
            yu = u + 0.5 * hh * k1u
            yw = w + 0.5 * hh * k1w
            k2u = yw
            k2w = a1 * yu + b1 * yw
            yu = u + 0.5 * hh * k2u
            yw = w + 0.5 * hh * k2w
            k3u = yw
            k3w = a1 * yu + b1 * yw
            yu = u + hh * k3u
            yw = w + hh * k3w
            k4u = yw
            k4w = a2 * yu + b2 * yw
            u = u + hh / 6.0 * (k1u + 2.0 * (k2u + k3u) + k4u)
            w = w + hh / 6.0 * (k1w + 2.0 * (k2w + k3w) + k4w)
            idx += 2
        return w + kappa * u


def gauged_mismatch(
    g: GaugeData,
    kappa,
    cfg: SolverConfig = DEFAULT_SOLVER,
    step: float | None = None,
) -> complex:
    """Tail-matching defect of the gauge-conjugated operator at kappa."""
    return _GaugedGrid(g, cfg=cfg, step=step).mismatch(kappa)
