"""Experiment configuration: a small line-oriented `key = value` format.

Example file:

    # canonical single-mode run
    mode = cos 1 poly 100 2
    support = 0 1
    eps = 0.1 0.07 0.05
    points_per_period = 40

`mode` lines repeat, one per fast harmonic; everything else is scalar.
Parsing collects every violation before raising so a bad file reports all
its problems at once instead of one per run.  Commands that exercise the
small-eigenvalue machinery require a zero period-mean, which at this level
means no n = 0 mode; the averaging table does not, so the check is a flag.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .potentials import MIN_POINTS_PER_PERIOD, TwoScaleFunction, combine, poly_bump, smooth_bump


class ConfigError(ValueError):
    """Raised with every accumulated parse problem, one per line."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass(frozen=True)
class ModeSpec:
    form: str  # cos | sin | exp
    n: int
    kind: str  # poly | smooth
    amplitude: complex
    power: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    modes: tuple[ModeSpec, ...]
    support: tuple[float, float] = (0.0, 1.0)
    epsilons: tuple[float, ...] = (0.1,)
    points_per_period: int = 40

    def build_potential(self) -> TwoScaleFunction:
        total: TwoScaleFunction | None = None
        for m in self.modes:
            if m.kind == "poly":
                prof = poly_bump(m.amplitude, m.power if m.power is not None else 2, self.support)
            else:
                prof = smooth_bump(m.amplitude, self.support)
            if m.n == 0:
                piece = TwoScaleFunction.single_mode(0, prof)
            elif m.form == "cos":
                piece = TwoScaleFunction.from_cosine(m.n, prof)
            elif m.form == "sin":
                piece = TwoScaleFunction.from_sine(m.n, prof)
            else:
                piece = TwoScaleFunction.single_mode(m.n, prof)
            total = piece if total is None else combine(total, piece, 1.0, 1.0)
        assert total is not None
        return total


_FORMS = {"cos", "sin", "exp"}
_KINDS = {"poly", "smooth"}


def _parse_mode(value: str, lineno: int, require_zero_mean: bool, problems: list[str]) -> ModeSpec | None:
    parts = value.split()
    if len(parts) not in (4, 5):
        problems.append(
            f"line {lineno}: mode needs 'form n kind amplitude [power]', got {len(parts)} fields"
        )
        return None
    form, n_str, kind, amp_str = parts[:4]
    ok = True
    if form not in _FORMS:
        problems.append(f"line {lineno}: unknown mode form {form!r} (expected cos, sin, or exp)")
        ok = False
    if kind not in _KINDS:
        problems.append(f"line {lineno}: unknown envelope kind {kind!r} (expected poly or smooth)")
        ok = False
    try:
        n = int(n_str)
    except ValueError:
        problems.append(f"line {lineno}: mode number {n_str!r} is not an integer")
        return None
    if n == 0:
        if require_zero_mean:
            problems.append(
                f"line {lineno}: mode 0 gives the potential a nonzero period-mean; "
                "this command requires zero mean over the fast period"
            )
            ok = False
        elif form == "sin":
            problems.append(f"line {lineno}: a sin mode with n = 0 vanishes identically")
            ok = False
    try:
        amplitude = complex(amp_str)
    except ValueError:
        problems.append(f"line {lineno}: amplitude {amp_str!r} is not a number")
        ok = False
        amplitude = 0j
    if not cmath.isfinite(amplitude):
        problems.append(f"line {lineno}: amplitude must be finite, got {amp_str!r}")
        ok = False
    power: int | None = None
    if len(parts) == 5:
        if kind == "smooth":
            problems.append(f"line {lineno}: smooth envelopes take no power field")
            ok = False
        try:
            power = int(parts[4])
        except ValueError:
            problems.append(f"line {lineno}: power {parts[4]!r} is not an integer")
            ok = False
        else:
            if power < 1:
                problems.append(f"line {lineno}: power must be at least 1, got {power}")
                ok = False
    elif kind == "poly":
        power = 2
    if not ok:
        return None
    return ModeSpec(form=form, n=n, kind=kind, amplitude=amplitude, power=power)


def parse_config(text: str, require_zero_mean: bool = True) -> ExperimentConfig:
    problems: list[str] = []
    modes: list[ModeSpec] = []
    settings: dict = {}  # only the fields the file sets: ExperimentConfig holds the defaults
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "mode":
            spec = _parse_mode(value, lineno, require_zero_mean, problems)
            if spec is not None:
                modes.append(spec)
            continue
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        if key == "support":
            parts = value.split()
            if len(parts) != 2:
                problems.append(f"line {lineno}: support needs two endpoints")
                continue
            try:
                a, b = float(parts[0]), float(parts[1])
            except ValueError:
                problems.append(f"line {lineno}: support endpoints must be numbers")
                continue
            if not (math.isfinite(a) and math.isfinite(b)):
                problems.append(f"line {lineno}: support endpoints must be finite, got {value!r}")
                continue
            if not b > a:
                problems.append(f"line {lineno}: support must satisfy left < right")
                continue
            settings["support"] = (a, b)
        elif key == "eps":
            vals: list[float] = []
            bad = False
            for tok in value.split():
                try:
                    e = float(tok)
                except ValueError:
                    problems.append(f"line {lineno}: eps value {tok!r} is not a number")
                    bad = True
                    continue
                if not 0 < e < 1:
                    problems.append(f"line {lineno}: eps must lie in (0, 1), got {e}")
                    bad = True
                    continue
                vals.append(e)
            if bad:
                continue
            if not vals:
                problems.append(f"line {lineno}: eps needs at least one value")
                continue
            if any(b >= a for a, b in zip(vals, vals[1:])):
                problems.append(f"line {lineno}: eps values must be strictly decreasing")
                continue
            settings["epsilons"] = tuple(vals)
        elif key == "points_per_period":
            try:
                ppp = int(value)
            except ValueError:
                problems.append(f"line {lineno}: points_per_period must be an integer")
                continue
            if ppp < MIN_POINTS_PER_PERIOD:
                problems.append(f"line {lineno}: points_per_period must be at least {MIN_POINTS_PER_PERIOD}, got {ppp}")
            settings["points_per_period"] = ppp
        else:
            problems.append(f"line {lineno}: unknown key {key!r}")

    if not modes:
        problems.append("no mode lines: at least one fast harmonic is required")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(modes=tuple(modes), **settings)


def load_config(path: str, require_zero_mean: bool = True) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), require_zero_mean=require_zero_mean)
