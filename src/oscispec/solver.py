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

Layout.  One stage grid (``_CoefficientGrid``) fixes the steps across the
hull -- full steps of length h, then one partial step when the hull length
is not a multiple of h -- and samples a = V once, at the stage points in
increasing x (the half-step lattice x0 + h k / 2, then a partial step's
midpoint and x1): the (start, middle, end) stages are three stride-2 views
of that one array, reused for every kappa.  From 2^13 steps on, the
step-sized arrays of a grid and of its plan are laid over three spare
buffers (``_take``), which the next grid takes over once no array of the
last one is alive, so a deep solve does not fault its pages in again.

One RK4 step body (``_rk4_step``), plain arithmetic, and one pairwise tree.
A step of the linear ODE is a 2x2 matrix; the leaf of the grid's plan
(``_planned``) holds every step's as one (2, 2, n) stack, the step along the
last axis, or a (2, 2, K, n) stack for K values of lam, one per row of the
batch axis.  lam enters the body only through a - lam, so each entry is a
polynomial of degree <= 2 in lam: the grid stores its coefficients, expanded
from the body, and evaluates them by Horner into the leaf.  ``_product``
multiplies neighbouring maps, later step on the left, all pairs of a level
in three numpy calls on the stack, whatever its leading shape.
Pairwise products keep round-off growth at O(log n) (Higham, SIAM J. Sci.
Comput. 14, 1993).  ``_Tree`` plans the climb to the transfer matrix, once
per grid, for one lam or a batch, and every output climbs that one plan:
``transfer_matrix``, root finding, the disk count and the Sturm count; at
one kappa through ``transfer``, which returns T's rows as Python scalars.
u at every step end, for ``eigenfunction``, is ``left_solution``'s march
through the plan's leaf, one step map at a time.

For a real potential, the number N(kappa) of eigenvalues below -kappa^2 is
the number of zeros of the left-decaying solution on the whole line
(oscillation theorem; Simon, "Sturm oscillation and comparison theorems",
2005), counted in the plan's climb by ``count_below`` as lifted angles:
every grid keeps h sqrt(sup|V|) < sqrt 6, so each step map turns u forward.
``scan_roots`` counts the roots in its window as N(low) - N(high), exactly.

A seeded root, real or complex, is found by Newton steps on F's model in T
(``_newton_root``).  With T's rows at lam = -kappa^2, F(kappa) = t10 +
(t00 + t11) kappa + t01 kappa^2; T, frozen on the first climb and linear
in lam through the last two after, makes F a quartic in kappa, and each
step goes to its root nearest the iterate with no climb.  The iterate is
the root once |F| <= root_tol and that step is at most _ROOT_RTOL |kappa|,
Brent's stop.  A real seed's steps keep to its bracket, and one that leaves
falls back on the count; a complex seed's keep Re kappa above the floor.
The count isolates the roots of the real mismatch, and Brent's method
(``_brent``) polishes them.  The count splits only brackets that hold
several roots; a bracket that holds one goes to Brent as it stands once
F changes sign across it or vanishes at its upper end.  An explicit bracket
across which F changes sign, or at whose end F vanishes, skips the count.
Every real bound state has kappa^2 <= sup|V|, so the count searches
(kappa_floor, sqrt(sup|V|)].  Absence is certified by
counting: F is entire in kappa, so ``min_mismatch_on_disk`` counts the roots
in a disk by the winding of F along its boundary, the whole contour passed to
``mismatch`` as one batch, and on refinement only the new points.

This module never consumes the asymptotic machinery beyond an optional
initial guess, which is what makes it a genuine cross-check of the
eps^4 prediction rather than a restatement of it; ``asymptotics`` is
imported only to compute that guess when the caller passes none.
"""

from __future__ import annotations

import cmath
import math
import threading
import weakref
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .potentials import MIN_POINTS_PER_PERIOD, check_grid_size

_STEP_SLACK = 1.0 + 1e-9

# Brent's bracket test: the tightest tolerances scipy's brentq accepts, so with ftol = 0 roots
# agree with it to the bit.  The callers pass ftol = root_tol: Brent then also stops at an
# iterate with |F| <= root_tol whose next step is at most _ROOT_RTOL |kappa|, six orders below
# RK4's own error in kappa (3.7e-6 relative or more at 40 points per fast period).
_BRENT_XTOL = 1e-17
_BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 200
_ROOT_RTOL = 1e-12

# an admissible root has Re kappa above this floor
_KAPPA_FLOOR = 1e-9
# evenly spaced kappas over which the Sturm count first bisects
_SAMPLES = 2000
# most climbs of a Newton solve, and most Newton steps on one climb's model
_NEWTON_MAX_CLIMBS = 60
# min_mismatch_on_disk: radius over |eps^2 k2|; boundary samples, doubled up to the cap
_DISK_RADIUS_FACTOR, _CONTOUR_POINTS, _CONTOUR_MAX_POINTS = 2.0, 16, 1024
# eigenfunction: largest relative derivative defect of a root at the right edge
_MATCH_TOL = 1e-6
# every grid needs h sqrt(sup|V|) < sqrt 6: each RK4 step map then has m01 = h (1 + h^2 (V + kappa^2) / 6) > 0, so the
# count is an eigenvalue count, and the step lies inside RK4's stability interval |h omega| < 2 sqrt 2; 1e-12 of it is
# kept back, since on the bare bound the deepest well a grid admits at h = 0.00824 rounds a step's m01 to 0
_STURM_STEP_PHASE = math.sqrt(6.0) * (1.0 - 1e-12)
# the stage points' index k = 0, 1, ...: its first block, which the rest doubles
_INDEX = np.arange(1024.0)
# numpy's ufunc buffer size, in elements, for the Horner pass and the tree.  A complex mismatch on a real
# 4000-step grid, whose Horner pass casts through buffers on top of the grid's plan, peaks at 8.8 step-sized
# arrays with the default 8192, at 6.95 with 256, and at 6.8 with 16, where the cast runs 4.5 times slower.
_TREE_BUFSIZE = 256
# most step maps in one batch of a batched mismatch: K = max(1, _BATCH_MAPS // n) kappas.
# A batch of 16 at 40k steps cost twice as much per kappa as one kappa alone, and at 4000
# steps a batch holds one kappa, so the disk count peaks like one mismatch.
_BATCH_MAPS = 4096


class _Spare:
    """One role's recycled buffer (``_take``) and weak references to the arrays last laid over it."""

    def __init__(self):
        self.buffer, self.users = None, []


# grids of this many steps or more lay their step-sized arrays over the spares; below it (eps above 0.0049 /
# 0.0073 on the shipped configs) a warm solve faulted 0 to 90 pages per call, so np.empty serves them
_SPARE_STEPS = 8192
# role -> _Spare: the samples (steps and the stage samples), the coefficients (after the stage points, which
# they outlive), and the plan (after the coefficients' two build temporaries)
_SPARES: dict = {}
_SPARE_LOCK = threading.Lock()


def _take(role: str, n: int, specs) -> list:
    """Uninitialised arrays of the (shape, dtype) specs for a grid or plan of n steps.

    From ``_SPARE_STEPS`` steps on they are laid over role's spare buffer, 64 bytes apart, when no array
    last laid over it is alive: each is a view of one ``np.frombuffer`` array, the .base of every view of
    it, so a weak reference to that array dies with the last of them, whichever thread made it.  A spare
    too small is let go before a larger one is made, and a spare in use leaves the arrays to np.empty, as
    below ``_SPARE_STEPS``.  A deep grid that goes away so leaves its memory to the next one, which then
    faults none of its pages in again.
    """
    if n >= _SPARE_STEPS:
        starts = [0]
        for shape, dtype in specs:
            starts.append(starts[-1] - (-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64)
        with _SPARE_LOCK:
            spare = _SPARES.setdefault(role, _Spare())
            if not any(user() is not None for user in spare.users):
                if spare.buffer is None or len(spare.buffer) < starts[-1]:
                    spare.buffer = None
                    # a bytearray, not np.empty: numpy advises huge pages for 4 MB and up, which rounds the
                    # resident size up; its zero fill costs the first deep grid of a process about 0.5 ms
                    spare.buffer = bytearray(starts[-1])
                flats = [np.frombuffer(spare.buffer, d, math.prod(shape), i) for (shape, d), i in zip(specs, starts)]
                spare.users = [weakref.ref(flat) for flat in flats]
                return [flat.reshape(shape) for flat, (shape, _) in zip(flats, specs)]
    return [np.empty(shape, dtype) for shape, dtype in specs]


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


def _step(eps: float, cfg: SolverConfig) -> float:
    """The RK4 step h that ``cfg`` sets at eps."""
    return eps / cfg.points_per_fast_period


def _is_root(f) -> bool:
    """Whether a mismatch value counts as a root: |F| <= root_tol."""
    return abs(f) <= SolverConfig.root_tol


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

    def eval_fast_lattice(self, x, eps: float, h: float, size: int, out: np.ndarray) -> np.ndarray:
        """The well has no fast phase: ``eval_fast`` at x, written into out."""
        np.copyto(out, self.eval_fast(x, eps))
        return out


class _CoefficientGrid:
    """Fixed RK4 steps across the support hull, V at their stages, and the step maps as quadratics in lam.

    ``steps`` holds the step lengths: ``n_full`` steps of length h, then one
    partial step of length ``h_last`` when the hull length is not an exact
    multiple of h (else ``h_last`` is 0); it ends on x1 because the envelope
    may be only C^1 there, and a step straddling that kink loses the h^4
    error decay (16 per halving) that ``convergence_study`` relies on.  An
    empty hull has no steps, and its transfer matrix is the identity.

    V samples the stage points ``xs`` by ``eval_fast_lattice``, told how
    many lead on the half-step lattice: with h = eps / P, their fast phases
    are one slice of a table of 2P half steps.  ``a`` holds the samples as
    the (start, middle, end) of every step; for real potentials they are
    floats (``real``), so a real lam keeps the propagation real.
    ``coefficients`` holds ``_quadratic_maps`` for every step, built once.
    ``_horner`` evaluates them into the plan's leaf (one (2, 2, n) stack at
    lam, or one (2, 2, K, n) stack at a (K,) array of lam) in four in-place
    passes over the three stacked entries, and m01 = h + h^3/6 (a1 - lam)
    from the samples, which saves storing two more arrays.  The identity is
    added last, so a diagonal entry is rounded once near 1, as in the RK4
    body.
    """

    def __init__(self, V, eps: float, h: float):
        if not (0 < eps < math.inf and 0 < h < math.inf):
            raise ValueError("eps and h must be positive")
        h_max = eps / MIN_POINTS_PER_PERIOD
        if h > h_max * _STEP_SLACK:
            raise ValueError(f"step too large for the fast scale: h={h:g} exceeds eps/{MIN_POINTS_PER_PERIOD}={h_max:g}")
        x0, x1 = V.support_hull
        length = x1 - x0
        self.h = float(h)
        self.x0, self.x1 = float(x0), float(x1)
        n_full = int(math.floor(length / h + 1e-9))
        check_grid_size(n_full, "steps", eps, V.support_hull)
        h_last = length - n_full * h
        if h_last < 1e-12 * max(1.0, length):
            h_last = 0.0
        self.n_full, self.h_last = n_full, h_last
        self._tree = None
        self.sup_abs = V.sup_abs()
        phase = self.h * math.sqrt(self.sup_abs)
        if not phase < _STURM_STEP_PHASE:
            raise ValueError(f"step too large: h sqrt(sup|V|) = {phase:.3g} must stay below sqrt 6")
        self.real, size = bool(V.is_real), n_full + (h_last > 0.0)
        self.steps, vals = _take("samples", size, (((size,), float), ((2 * size + 1,), float if self.real else complex)))
        self.steps[:n_full] = self.h
        self.steps[n_full:] = h_last
        (xs,) = _take("coefficients", size, (((2 * size + 1,), float),))
        V.eval_fast_lattice(self._stage_points(xs), eps, self.h, 2 * self.n_full + 1, out=vals)
        del xs  # the coefficients take its memory
        self.a = vals[:-1:2], vals[1::2], vals[2::2]  # three stride-2 views of vals
        self.coefficients = _quadratic_maps(self.h, self.h_last, *self.a)

    @property
    def xs(self) -> np.ndarray:
        """The stage points in increasing x: the first ``2 n_full + 1`` on the half-step lattice,
        x0 + h k / 2, then a partial step's midpoint and x1."""
        return self._stage_points(np.empty(2 * self.steps.size + 1))

    def _stage_points(self, xs: np.ndarray) -> np.ndarray:
        """``xs`` written into xs.  k copies its first block from ``_INDEX`` and then doubles, each copy
        shifted by its length: exact integers, so the points are np.arange's."""
        size, k = 2 * self.n_full + 1, xs[: 2 * self.n_full + 1]
        filled = min(size, _INDEX.size)
        k[:filled] = _INDEX[:filled]
        while filled < size:
            step = min(filled, size - filled)
            np.add(k[:step], filled, out=k[filled : filled + step])
            filled += step
        np.multiply(0.5 * self.h, k, out=k)
        np.add(self.x0, k, out=k)
        if self.h_last > 0.0:
            xs[size:] = self.x0 + self.n_full * self.h + 0.5 * self.h_last, self.x1
        return xs

    def _kappa(self, kappa, batch: bool = False):
        """kappa finite and in the physical half-plane: a float for a real grid and real kappa, else a
        complex; with batch, a 1-D array as one float array when the grid and every kappa are real, else
        complex."""
        if isinstance(kappa, np.ndarray) and kappa.ndim:
            if not batch or kappa.ndim > 1:
                one = "one value or a 1-D array" if batch else "one value"
                raise ValueError(f"kappa must be {one}, not an array of shape {kappa.shape}")
            kappa = kappa.real.astype(float) if self.real and not np.any(kappa.imag) else kappa.astype(complex)
            inside = np.all(kappa.real > 0) and np.all(np.isfinite(kappa))
        else:
            kappa = float(np.real(kappa)) if self.real and np.imag(kappa) == 0 else complex(kappa)
            inside = kappa.real > 0 and cmath.isfinite(kappa)
        if not inside:
            raise ValueError("not in the physical half-plane: kappa must be finite with Re kappa > 0")
        return kappa

    def mismatch(self, kappa):
        """F(kappa) at one kappa: a float for a real grid and real kappa, else a complex.

        At a 1-D array of kappas, F at each, as one array of the dtype
        ``_kappa`` gives it: ceil(len / K) batches of equal size, at most
        K = max(1, _BATCH_MAPS // n) kappas and the last moved back to end
        on the last kappa, climb one plan as (2, 2, size, n) stacks.
        lam and the last step to F are taken per kappa in Python arithmetic,
        as for one kappa (numpy's complex multiply rounds differently), so
        each value is ``mismatch`` at that kappa bit for bit.
        """
        kappa = self._kappa(kappa, batch=True)
        if not isinstance(kappa, np.ndarray):
            return _match(kappa, *self.transfer(kappa))
        f, ks = np.empty_like(kappa), kappa.tolist()
        size = max(1, _BATCH_MAPS // max(1, self.steps.size))
        size = -(-len(ks) // -(-len(ks) // size)) if ks else 1  # ceil(len / K) batches of equal size
        for start in (min(j, len(ks) - size) for j in range(0, len(ks), size)):
            batch = ks[start : start + size]
            top, bottom = self._planned(np.array([-k * k for k in batch]), _Tree.climb).tolist()
            f[start : start + size] = list(map(_match, batch, zip(*top), zip(*bottom)))
        return f

    def transfer(self, kappa, count: bool = False):
        """T's rows ((t00, t01), (t10, t11)) at lam = -kappa^2 as Python scalars, kappa coerced as in ``mismatch``:
        one climb of the grid's plan, which every output at one kappa takes.  With count, (rows, n(T)) for
        ``count_below``."""
        kappa = self._kappa(kappa)
        if count:
            top, n = self._planned(-kappa * kappa, lambda tree: tree.climb(count=True))
            return top.tolist(), n
        return self._planned(-kappa * kappa, _Tree.climb).tolist()

    def _planned(self, lam, then):
        """then(plan) under _TREE_BUFSIZE, for the grid's one plan of lam's batch shape and dtype with the
        step maps at lam in its leaf; a plan of another key is released before the new one is built."""
        key = (lam.shape if isinstance(lam, np.ndarray) else ()), np.result_type(lam, self.a[1])
        if self._tree is None or self._tree.key != key:
            self._tree = None
            self._tree = _Tree(*key, self.steps.size)
        with np.errstate():
            np.setbufsize(_TREE_BUFSIZE)
            _horner(self, lam, self._tree.maps)
            return then(self._tree)

    def left_solution(self, kappa):
        """(kappa coerced as in ``mismatch``, u at x0 and every step end, u' at x1): (u, w) = (1, kappa)
        stepped through the plan's leaf one map at a time in Python arithmetic, so F = w1 + kappa * u[-1]."""
        kappa = self._kappa(kappa)
        (m00, m01), (m10, m11) = self._planned(-kappa * kappa, lambda tree: tree.leaf.tolist())
        u, w, us = 1.0, kappa, [1.0]
        for a, b, c, d in zip(m00, m01, m10, m11):
            u, w = a * u + b * w, c * u + d * w
            us.append(u)
        return kappa, np.array(us, dtype=type(kappa)), w

    def count_below(self, kappa: float) -> tuple[int, float]:
        """(N(kappa), F(kappa)): the number of eigenvalues below -kappa^2, and the mismatch.

        For a real potential and kappa > 0 only.  N counts the zeros of the
        solution with left tail data (1, kappa) (oscillation theorem): none in
        the left tail; on the hull, the sign changes of u over the step ends,
        exact zeros skipped; in the right tail u1 cosh(kappa t) + (w1/kappa)
        sinh(kappa t), one zero exactly when F and u1 have opposite signs
        (u1 w1 < 0 and |kappa u1| < |w1|).  F is ``mismatch(kappa)`` bit for bit.
        On the hull they come from the climb: lifted to the Pruefer angle atan2(u, w), M sends e0 = (0, 1) to
        pi n(M) + (M e0's angle mod pi).  The grid keeps h sqrt(sup|V|) < sqrt 6, so every step map has
        m01 = h (1 + h^2 (V + kappa^2) / 6) > 0 (n = 0): no step turns u backwards past a zero, and N is an
        eigenvalue count at every kappa.  n(T) sums the carries [fold(P e0) >= fold(adj(Q) e0)] over the
        tree's pairs Q P, a product's m01 of 0 included (``_Tree.climb``).
        """
        kappa = self._kappa(kappa)
        ((t00, t01), bottom), carries = self.transfer(kappa, count=True)
        u1, f = t00 + t01 * kappa, _match(kappa, (t00, t01), bottom)
        # the start (1, kappa) adds [fold(1, kappa) >= fold(adj(T) e0)], the right tail [f u1 < 0]
        return int(carries + ((t01 < 0 <= u1) or (u1 <= 0 < t01)) + (f * u1 < 0)), f


def _match(kappa, top, bottom):
    """F = w + kappa u for (u, w) = T (1, kappa), T's rows (t00, t01) and (t10, t11)."""
    (t00, t01), (t10, t11) = top, bottom
    u, w = t00 + t01 * kappa, t10 + t11 * kappa
    return w + kappa * u


def _rk4_step(h, u, w, a):
    """One classical RK4 step of u' = w, w' = a u.

    ``a`` holds a - lam at the start, middle and end of the step; the grid's
    maps are ``_quadratic_maps``' expansion of this body.  Pure arithmetic:
    h, u, w and the entries of a may be Python scalars or numpy arrays that
    broadcast together.
    """
    a0, a1, a2 = a
    half = 0.5 * h
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
    return u + sixth * (k1u + 2.0 * (k2u + k3u) + k4u), w + sixth * (k1w + 2.0 * (k2w + k3w) + k4w)


def _factors(left, right):
    """The operands of left @ right over stacks of 2x2 maps (2, 2, ..., k), first products first."""
    return left[:, :1], right[:1], left[:, 1:], right[1:]


def _product(l0, r0, l1, r1, out, tmp):
    """out = left @ right from ``_factors(left, right)``: entry (i, j) is left[i, 0] * right[0, j] +
    left[i, 1] * right[1, j], the second products through tmp, a stack of out's shape."""
    np.multiply(l0, r0, out=out)
    np.multiply(l1, r1, out=tmp)
    np.add(out, tmp, out=out)


class _Tree:
    """The pairwise tree over a (2, 2, *batch, n) stack of step maps, buffers and views built once; with
    n = 0 it climbs to the identity.

    The leaf ``maps`` holds the rows m10, m11, m00, m01; ``leaf`` reads them as [[m00, m01], [m10, m11]].
    The levels alternate between the leaf's memory and one buffer half its size.  A level's second
    products go into the free tail of its buffer; level 1 fills its buffer, so it takes them through a
    temporary, max(512, n // 8) pairs at a time."""

    def __init__(self, batch: tuple, dtype, n: int):
        self.key, lead, width, chunk = (batch, dtype), (2, 2, *batch), 4 * math.prod(batch), max(512, n // 8)
        layout = ((4, *batch, n), dtype), ((width * ((n + 1) // 2),), dtype), (lead + (min(chunk, n // 2),), dtype)
        self.maps, half, tmp = _take("plan", n, layout)
        self.leaf = m = self.maps.reshape(lead + (n,))[::-1]
        buffers = half, self.maps.reshape(-1)
        self.levels = []
        while (size := m.shape[-1]) > 1:
            pairs, free = size // 2, buffers[len(self.levels) % 2]
            out = free[: width * (size - pairs)].reshape(lead + (size - pairs,))
            if self.levels:
                tmp, chunk = free[width * (size - pairs) : width * size].reshape(lead + (pairs,)), pairs
            left, right = m[..., 1 : 2 * pairs : 2], m[..., : 2 * pairs : 2]
            spans = [(j, min(j + chunk, pairs)) for j in range(0, pairs, chunk)]
            level = [(*_factors(left[..., j:k], right[..., j:k]), out[..., j:k], tmp[..., : k - j]) for j, k in spans]
            self.levels.append((level, (out[..., -1], m[..., -1]) if size % 2 else None))
            m = out
        self.top = m[..., 0] if n else np.broadcast_to(np.eye(2, dtype=dtype).reshape(2, 2, *[1] * len(batch)), lead)

    def climb(self, count=False):
        """The transfer matrix M[n-1] ... M[0] of the maps in the leaf: a (2, 2, *batch) view into the plan; with
        count, on a real scalar plan with every leaf m01 > 0, (it, ``count_below``'s n(T)): per pair Q P, the carry
        [fold(P e0) >= fold(adj(Q) e0)] = [p01 != 0 and q01 != 0 and p01 q01 (QP)01 <= 0], on level 1 [(QP)01 <= 0],
        from per pair span views of P's m01, Q's m01, (QP)01, P's spent m10 row and bools, built on the first count."""
        if count and not hasattr(self, "signs"):
            bits = np.empty(self.maps.shape[-1] // 2, bool)
            self.signs = [[(r0[0, 1] if i else None, l1[0, 0], o[0, 1], r1[0, 0], bits[: o.shape[-1]])
                           for _, r0, l1, r1, o, _ in level] for i, (level, _) in enumerate(self.levels)]
        n, signs = 0, count and iter(self.signs)
        for level, carry in self.levels:
            for product in level:
                _product(*product)
            if carry is not None:
                np.copyto(*carry)
            if count:
                for p, q, c, y, b in next(signs):
                    if p is not None:  # p01 q01 (QP)01; a pair with p01 q01 = 0 carries nothing
                        n -= y.size - np.count_nonzero(np.multiply(p, q, out=y))
                        c = np.multiply(y, c, out=y)
                    n += np.count_nonzero(np.less_equal(c, 0, b))
        return (self.top, n) if count else self.top


def _quadratic_maps(h: float, h_last: float, a0, a1, a2):
    """Per step, (P0, P1, P2) with M(lam) = I + P0 + lam P1 + lam^2 P2 in the entries m10, m11 and m00:
    the expansion of ``_rk4_step(h, u, w, (a0 - lam, a1 - lam, a2 - lam))`` from (u, w) = e_j.

    Every step has length h but a last partial one of length h_last > 0.
    Each P is stacked (3, n), rows m10, m11, m00; P2 depends on h alone, so
    it stays real for a complex potential.  They take the coefficients'
    spare (``_take``).
    """
    n = a1.size
    p0, p1, p2 = _take("coefficients", n, (((3, n), a1.dtype), ((3, n), a1.dtype), ((3, n), float)))
    full = n - (h_last > 0.0)
    _fill_quadratic_maps(h, a0[:full], a1[:full], a2[:full], p0[:, :full], p1[:, :full], p2[:, :full])
    if full < n:
        _fill_quadratic_maps(h_last, a0[full:], a1[full:], a2[full:], p0[:, full:], p1[:, full:], p2[:, full:])
    return p0, p1, p2


def _fill_quadratic_maps(h: float, a0, a1, a2, p0, p1, p2) -> None:
    """``_quadratic_maps`` of steps of length h in place, into the rows of p0, p1 and p2: the
    h-terms taken once, and every product and sum of the per-step expansion with its operands and
    order, row by row m10, m11, m00.  2 a1 and a0 + 2 a1 go into two rows that the plan's spare
    holds until the plan takes it."""
    h2 = h * h
    h3_6, h4_24 = h * h2 / 6.0, h2 * h2 / 24.0
    h_6, h2_6, half_h2, half_h3_6 = h / 6.0, h2 / 6.0, 0.5 * h2, 0.5 * h3_6
    p2[0], p2[1:] = h3_6, h4_24
    ((two_a1, s),) = _take("plan", a1.size, (((2, a1.size), a1.dtype),))
    np.multiply(2.0, a1, out=two_a1)
    np.add(a0, two_a1, out=s)
    np.add(s, a2, out=p1[0])
    np.multiply(half_h3_6, p1[0], out=p1[0])
    np.add(h, p1[0], out=p1[0])
    np.negative(p1[0], out=p1[0])
    np.add(two_a1, a2, out=p0[1])
    np.multiply(h2_6, p0[1], out=p0[1])
    np.multiply(h4_24, a1, out=p1[1])
    np.multiply(p1[1], a2, out=p1[1])
    np.add(p0[1], p1[1], out=p0[1])
    np.add(a1, a2, out=p1[1])
    np.multiply(h2_6, s, out=p0[2])
    np.multiply(h4_24, a0, out=p1[2])
    np.multiply(p1[2], a1, out=p1[2])
    np.add(p0[2], p1[2], out=p0[2])
    np.add(a0, a1, out=p1[2])
    rows = p1[1:]
    np.multiply(h4_24, rows, out=rows)
    np.add(half_h2, rows, out=rows)
    np.negative(rows, out=rows)
    # m10's P0 last, when two_a1 and s are free: 4 a1 = 2 a1 + 2 a1 exactly
    np.add(two_a1, two_a1, out=p0[0])
    np.add(a0, p0[0], out=p0[0])
    np.add(p0[0], a2, out=p0[0])
    np.multiply(h_6, p0[0], out=p0[0])
    np.add(a0, a2, out=s)
    np.multiply(half_h3_6, a1, out=two_a1)
    np.multiply(two_a1, s, out=two_a1)
    np.add(p0[0], two_a1, out=p0[0])


def _horner(grid, lam, out) -> None:
    """A ``_CoefficientGrid``'s step maps at lam (a value or a (K,) array) into out's (4, *batch, n) rows."""
    p0, p1, p2 = grid.coefficients
    if isinstance(lam, np.ndarray):
        lam = lam[:, np.newaxis]
        p0, p1, p2 = p0[:, np.newaxis], p1[:, np.newaxis], p2[:, np.newaxis]
    q, diagonal, m01 = out[:3], out[1:3], out[3]
    np.multiply(lam, p2, out=q)
    np.add(p1, q, out=q)
    np.multiply(lam, q, out=q)
    np.add(p0, q, out=q)
    np.add(1.0, diagonal, out=diagonal)
    np.subtract(grid.a[1], lam, out=m01)
    np.multiply(p2[0], m01, out=m01)
    np.add(grid.steps, m01, out=m01)


@dataclass(frozen=True)
class TransferMatrix:
    """Fundamental solution matrix of u'' = (V - lambda) u across [x0, x1]."""

    matrix: np.ndarray

    def det(self) -> complex:
        m = self.matrix
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def transfer_matrix(V, eps: float, lam: complex, h: float) -> TransferMatrix:
    """Compose the step maps across the support hull at spectral value lam: the climb of the grid's plan.

    The Wronskian of the exact flow is conserved, so det = 1 up to integrator
    round-off; deviations are a direct integrator health measure.
    """
    if not cmath.isfinite(lam):
        raise ValueError("lam must be finite")
    grid = _CoefficientGrid(V, eps, h)
    lam = float(np.real(lam)) if grid.real and np.imag(lam) == 0 else complex(lam)
    return TransferMatrix(matrix=np.array(grid._planned(lam, _Tree.climb), dtype=complex))


def mismatch(V, eps: float, kappa, cfg: SolverConfig = DEFAULT_SOLVER) -> complex:
    """Tail-matching defect F(kappa); zero exactly on bound states."""
    return _CoefficientGrid(V, eps, _step(eps, cfg)).mismatch(kappa)


@dataclass(frozen=True)
class BoundStateResult:
    """A located root.  A seeded one is Newton's first iterate with |F| <=
    root_tol whose next step is at most 1e-12 |kappa| (``_ROOT_RTOL``); a
    real one from the count, or from an explicit bracket, is Brent's first
    such iterate, or else the root of Brent's bracket test.  ``iterations``
    is the work spent on it: Newton's climbs of the grid's plan, plus, on the
    count's route, the Sturm counts of its isolation loop and Brent's
    iterations (its evaluations and the converging one), and the two
    evaluations at an explicit bracket's ends."""

    kappa: complex
    eigenvalue: complex
    mismatch_residual: float
    iterations: int
    step: float
    converged: bool


def _brent(f, lo: float, hi: float, flo: float, fhi: float, ftol: float = 0.0) -> tuple[float, float, int]:
    """Root of f on [lo, hi] by Brent's method: (root, f(root), iterations).

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4,
    in the formulation of scipy's ``brentq``.  With ftol = 0 it is ported
    step for step, so roots and iteration counts match it bit for bit.  With
    ftol > 0 it also returns the current iterate, with no further
    evaluation, once |f| <= ftol there and the step just computed from it is
    at most ``_ROOT_RTOL`` |x|; the bracket test stays the fallback.  The
    caller passes the end values it already has; they must be of opposite
    sign unless one is zero, and a zero end is the root after one iteration.
    scipy returns the same root there, but its iteration count at a zero end
    is left undefined.
    """
    if flo == 0 or fhi == 0:
        return (lo, flo, 1) if flo == 0 else (hi, fhi, 1)
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
        if abs(fcur) <= ftol and abs(scur) <= _ROOT_RTOL * abs(xcur):
            return xcur, fcur, it
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur} is NaN; Brent cannot continue")
    raise RuntimeError(f"Brent failed to converge after {_BRENT_MAXITER} iterations")


def _counted_roots(grid: _CoefficientGrid, lo: float, hi: float, samples: int):
    """Yield (root, F(root), work) for each root of the real mismatch in (lo, hi], in increasing kappa.

    Bisection by N, over ``samples`` evenly spaced kappas and then at
    midpoints, splits every bracket that holds several roots.  A bracket
    that holds one (N(a) - N(b) = 1) goes to Brent as it stands once F
    changes sign across it or vanishes at b: F has a simple zero there
    (Sturm oscillation theorem).  work counts the evaluations since the
    previous root: the window's two counts, one per split, and Brent's
    iterations.
    """
    ks = np.linspace(lo, hi, samples).tolist()
    # brackets (a, b) holding N(a) - N(b) roots, with (N, F) at both ends and,
    # while they span more than one sample interval, the sample indices of a and b
    stack = [(ks[0], ks[-1], grid.count_below(ks[0]), grid.count_below(ks[-1]), 0, samples - 1)]
    work = 2
    while stack:
        a, b, (na, fa), (nb, fb), i, j = stack.pop()
        if na <= nb:
            continue
        if na - nb == 1 and (fb == 0 or fa * fb < 0):
            root, froot, its = _brent(grid.mismatch, a, b, fa, fb, SolverConfig.root_tol)
            yield root, froot, work + its
            work = 0
            continue
        if j - i > 1:
            m = (i + j) // 2
            c, left, right = ks[m], (i, m), (m, j)
        else:
            c, left, right = 0.5 * (a + b), (i, j), (i, j)
            if not a < c < b:
                raise RuntimeError(f"cannot separate {na - nb} roots of the mismatch at kappa={a!r}")
        work += 1
        mid = grid.count_below(c)
        stack.append((c, b, mid, (nb, fb), *right))
        stack.append((a, c, (na, fa), mid, *left))


def _real_root(grid: _CoefficientGrid, bracket: Optional[tuple[float, float]]) -> Optional[tuple[float, float, int]]:
    """(root, F(root), work) for the real mismatch, or None.

    Brent on the bracket when F changes sign across it or vanishes at an end;
    else, or with no bracket, the smallest counted root in
    (kappa_floor, sqrt(sup|V|)], the window that holds every real bound state.
    work adds the two evaluations at a bracket's ends.
    """
    work = 0
    if bracket is not None:
        flo, fhi = grid.mismatch(bracket[0]), grid.mismatch(bracket[1])
        if min(flo, fhi) <= 0.0 <= max(flo, fhi):
            root, froot, its = _brent(grid.mismatch, *bracket, flo, fhi, SolverConfig.root_tol)
            return root, froot, 2 + its
        work = 2
    hi = math.sqrt(grid.sup_abs)
    hit = next(_counted_roots(grid, _KAPPA_FLOOR, hi, _SAMPLES), None) if hi > _KAPPA_FLOOR else None
    return None if hit is None else (hit[0], hit[1], work + hit[2])


def _model_step(kappa, lam, model, slopes):
    """Newton's step from kappa to the root of F's model: F = a + b z + c z^2 at z, with (a, b, c) = model at
    lam, plus slopes * (lam(z) - lam) once a second climb gives them.  Newton's steps shrink until round-off
    takes over, so a step that does not is not taken."""
    da, db, dc = slopes or (0.0, 0.0, 0.0)
    z, d = kappa, math.inf
    for _ in range(_NEWTON_MAX_CLIMBS):
        shift = -z * z - lam
        a, b, c = model[0] + shift * da, model[1] + shift * db, model[2] + shift * dc
        # dF/dz, lam'(z) = -2 z
        slope = b + 2.0 * c * z - 2.0 * z * (da + z * (db + z * dc))
        new = (a + z * (b + z * c)) / slope if slope else 0.0
        if not abs(new) < abs(d):
            break
        z, d = z - new, new
        if abs(d) <= 1e-3 * _ROOT_RTOL * abs(z):
            break
    return z - kappa


def _newton_root(grid: _CoefficientGrid, kappa, bracket: Optional[tuple[float, float]]):
    """(root, F(root), climbs) by Newton steps on F's model in T, each from one climb; root None on failure.

    With T(lam)'s rows at lam = -kappa^2, F(kappa) = t10 + (t00 + t11) kappa
    + t01 kappa^2.  T is frozen on the first climb and linear in lam through
    the last two after, so F's model is a quartic in kappa, and
    ``_model_step`` steps, with no climb, to its root nearest the iterate.
    The iterate is the root once |F| <= root_tol there and that step is at
    most ``_ROOT_RTOL`` |kappa|, Brent's ftol stop.  A real root's steps keep
    to the bracket.  A complex one's keep Re kappa above the floor: the first
    step is halved back up to 9 times to stay there, and a later one that
    leaves fails, as does a real step that leaves the bracket and the climb
    cap.
    """
    last = slopes = None
    for climbs in range(1, _NEWTON_MAX_CLIMBS + 1):
        (t00, t01), (t10, t11) = top, bottom = grid.transfer(kappa)
        f, lam, model = _match(kappa, top, bottom), -kappa * kappa, (t10, t00 + t11, t01)
        if last is not None and lam != last[0]:
            slopes = [(x - y) / (lam - last[0]) for x, y in zip(model, last[1])]
        last, step = (lam, model), _model_step(kappa, lam, model, slopes)
        if _is_root(f) and abs(step) <= _ROOT_RTOL * abs(kappa):
            return kappa, f, climbs
        z = kappa + step
        if bracket is None and climbs == 1:  # a complex seed's first step, halved back into the half-plane
            for _ in range(9):
                if z.real > _KAPPA_FLOOR:
                    break
                step *= 0.5
                z = kappa + step
        if not (bracket[0] <= z <= bracket[1] if bracket else z.real > _KAPPA_FLOOR):
            break
        kappa = z
    return None, None, climbs


def _k2_seed(V, k2_hint: Optional[complex]) -> complex:
    """k2_hint, or k2 from the asymptotics when none is given: all the solver takes from them."""
    if k2_hint is None:
        from .asymptotics import compute_k2

        k2_hint = compute_k2(V).value
    return complex(k2_hint)


def find_bound_state(
    V,
    eps: float,
    k2_hint: complex | None = None,
    cfg: SolverConfig = DEFAULT_SOLVER,
    bracket: tuple[float, float] | None = None,
) -> Optional[BoundStateResult]:
    """Locate the bound state emerging near the spectral edge, or report absence.

    Both take Newton steps on F's model in T (``_newton_root``) from the seed
    eps^2 * k2.  A real potential starts at kappa0 = Re(eps^2 * k2) and keeps
    its steps to the bracket [kappa0 / 10, 10 kappa0]; a step that leaves
    it falls back on the first root ``scan_roots`` lists, and so does a seed
    with no positive real part, or one whose bracket would reach
    sqrt(sup|V|): a real potential's seed never decides absence.  A complex
    potential starts at the seed, its first step halved back up to 9 times
    to keep Re kappa above the floor, and a later step that leaves finds no
    root.  ``bracket`` (real potentials only) overrides the seeding with
    Brent's method on it, or the count when F keeps its sign across it; it
    is also the route for potentials with a mean component.

    Returns None when no admissible root (Re kappa > kappa_floor, |F| within
    root_tol) is found, for a real potential exactly when N(kappa_floor) = 0.
    Absence of the small eigenvalue is the expected outcome when Re k2 < 0,
    and ``min_mismatch_on_disk`` certifies it by counting the roots in a disk
    around the seed (zero of them).
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive")
    # sample the grid only after every early exit: it is most of a short call's cost
    start = window = None  # Newton's start, and a real seed's bracket that its steps keep to
    if bracket is not None:
        bracket = float(bracket[0]), float(bracket[1])
        if not (0 < bracket[0] < bracket[1] < math.inf):
            raise ValueError("bracket must satisfy 0 < low < high < inf")
        if not V.is_real:
            raise ValueError("an explicit bracket needs a real potential")
    else:
        if not V.has_zero_mean:
            raise ValueError("provide an explicit bracket for potentials with a mean component")
        seed = eps * eps * _k2_seed(V, k2_hint)
        if V.is_real:
            kappa0 = seed.real
            # a seed with no positive real part places no bracket, so the count decides; one at or below the
            # floor still brackets from just above it; a bracket reaching sqrt(sup|V|) can hold several roots,
            # and Newton need not take the smallest
            if 0 < 10.0 * kappa0 < math.sqrt(V.sup_abs()):
                window = max(kappa0 / 10.0, _KAPPA_FLOOR), max(10.0 * kappa0, 2.0 * _KAPPA_FLOOR)
                start = max(kappa0, _KAPPA_FLOOR)
        else:
            start = seed if seed.real > _KAPPA_FLOOR else complex(abs(seed))
            if abs(start) <= _KAPPA_FLOOR:
                return None
    grid = _CoefficientGrid(V, eps, _step(eps, cfg))
    root, froot, its = None, None, 0
    if start is not None:
        root, froot, its = _newton_root(grid, start, window)
    if root is None and V.is_real:  # an explicit bracket, no seed bracket, or Newton's failure: the count's route
        hit = _real_root(grid, bracket)
        if hit is not None:
            root, froot, its = hit[0], hit[1], its + hit[2]
    if root is None:
        return None
    kappa, residual = complex(root), abs(froot)
    return BoundStateResult(
        kappa=kappa,
        eigenvalue=-kappa * kappa,
        mismatch_residual=residual,
        iterations=its,
        step=grid.h,
        converged=_is_root(residual) and kappa.real > _KAPPA_FLOOR,
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
    samples: int = _SAMPLES,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> ScanResult:
    """Count the bound states with kappa in (low, high] exactly, and locate each.

    The window defaults to (kappa_floor, sqrt(sup|V|)], which holds every
    admissible real bound state.  The count is N(low) - N(high), N from the
    Sturm oscillation count (``_CoefficientGrid.count_below``), so only real
    potentials qualify, and the step must satisfy h sqrt(sup|V|) < sqrt 6.
    Bisection by N over ``samples`` evenly spaced kappas splits the brackets
    that hold several roots, and Brent's method polishes each root from the
    bracket that isolates it (``_counted_roots``, which ``find_bound_state``
    shares).  ``samples`` is capped like every grid, at
    ``potentials.MAX_GRID_SIZE``.
    """
    if not V.is_real:
        raise ValueError("root scan requires a real potential")
    if samples < 2:
        raise ValueError("need at least two samples")
    if window is None and V.support_hull[0] == V.support_hull[1]:
        raise ValueError("the potential's support is empty: it holds no bound state to scan for")
    lo, hi = window if window is not None else (_KAPPA_FLOOR, math.sqrt(V.sup_abs()))
    if not (0 < lo < hi < math.inf):
        raise ValueError("scan window must satisfy 0 < low < high < inf")
    check_grid_size(samples, "samples", eps, (lo, hi))
    grid = _CoefficientGrid(V, eps, _step(eps, cfg))
    roots = [root for root, _, _ in _counted_roots(grid, lo, hi, samples)]
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

    The contour's points go to ``mismatch`` as one batch.  Each doubling of
    the point count keeps the samples it has, the even points of the new
    contour bit for bit, and evaluates only the new odd points, again as one
    batch.
    """
    center = eps * eps * _k2_seed(V, k2_hint)
    # the circle reaches past the cut: center.real + radius >= |center| > 0
    radius = _DISK_RADIUS_FACTOR * max(abs(center), 10.0 * _KAPPA_FLOOR)
    grid = _CoefficientGrid(V, eps, _step(eps, cfg))
    n, f = _CONTOUR_POINTS, None
    while n <= _CONTOUR_MAX_POINTS:
        # the circle, every point left of the cut moved onto it: the boundary of the cut disk
        z = center + radius * np.exp(2j * math.pi * np.arange(n) / n)
        z = np.where(z.real > _KAPPA_FLOOR, z, _KAPPA_FLOOR + 1j * z.imag)
        if f is None:
            f = grid.mismatch(z).astype(complex)
        else:  # the even points are the last contour's, bit for bit
            f = np.column_stack((f, grid.mismatch(z[1::2]))).ravel()
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
    grid = _CoefficientGrid(V, eps, _step(eps, cfg))
    _, us, w1 = grid.left_solution(kappa)
    kc, u1 = complex(kappa), us[-1]
    xs = grid.xs[::2]  # the step ends, x1 included after a partial step
    defect = abs(w1 + kc * u1) / (abs(kc) * abs(u1) + abs(w1) + 1e-300)
    if defect > _MATCH_TOL:
        raise ValueError(
            f"kappa is not a root of the mismatch: relative derivative defect {defect:.3e} "
            "at the right support edge"
        )

    pad = 0.5 * (grid.x1 - grid.x0)
    n_tail = max(2, int(math.ceil(pad / grid.h)))
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
            raise ValueError(f"solver failed to converge during the step study at h={_step(eps, level):g}")
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
