"""Seeded input generator for the four benchmark workloads.

Every input is plain JSON-serialisable data drawn with ``random.Random(seed)``
(whose stream is fixed across Python versions), so the same seed gives the
same inputs and ``digest`` identifies them.  Nothing here imports oscispec:
the harness turns these specs into potentials through the public API.

Inputs are drawn unfiltered by outcome.  Three devices keep a run's cost from
depending on the seed: each pool is small enough that a run goes through it
at least once and its metrics cover whole rounds of it, a pool of random mode
sets is a systematic sample, by a cost proxy, of a larger set of draws
(``stratified``), and ``spread_order`` arranges a pool so that every prefix a
run covers spans the cost range.  None looks at what the program returns, so
a defect that some draws hit still shows.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

CONFIGS = ("configs/canonical.cfg", "configs/two_mode.cfg")
STRATIFY = 64  # random draws per entry of a stratified pool
COMMANDS = ("k2", "predict", "solve", "sweep", "scan", "lemma", "gauge-check", "keps")

# sweep_deep: eps log-uniform on [1e-3, 0.1], one draw per stratum and
# potential, 32 strata per decade, so a run's cost does not depend on the seed.
SWEEP_EPS_RANGE = (1e-3, 0.1)
SWEEP_STRATA = 64

# scan_batch: one scan per item at the CLI's default density and window.
SCAN_EPS = 0.1
SCAN_SAMPLES = 2000
SCAN_DRAWN = 4

# asym_batch: one mode set per item; predict over the canonical sweep list,
# k_eps at three eps.
ASYM_POOL = 64
ASYM_PREDICT_EPS = (0.1, 0.07, 0.05, 0.035, 0.025)
ASYM_KEPS_EPS = (0.1, 0.05, 0.025)


def bit_reverse_permutation(n: int) -> list[int]:
    """Positions 0..n-1 in bit-reversed order; n must be a power of two."""
    bits = n.bit_length() - 1
    if n < 1 or 1 << bits != n:
        raise ValueError("pool size must be a power of two")
    return [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(n)]


def stratified(draws: list, key, size: int) -> list:
    """Every (len(draws) / size)-th draw in order of a cost proxy, from the middle
    of each stratum, so the pool's cost quantiles barely move with the seed."""
    ranked = sorted(draws, key=key)
    step = len(ranked) // size
    return [ranked[j * step + step // 2] for j in range(size)]


def spread_order(items: list, key) -> list:
    """Sort by a cost proxy, then take the sorted list in bit-reversed order.

    Any prefix of the result then holds evenly spaced quantiles of the proxy,
    so a run that stops part-way through the pool still sees the whole cost
    range.
    """
    ranked = sorted(items, key=key)
    return [ranked[j] for j in bit_reverse_permutation(len(ranked))]


def _mode(rng: random.Random, n: int, complex_amplitudes: bool) -> dict:
    """One harmonic drawn as in acceptance criterion 6 (optionally complex)."""
    a = rng.uniform(-1.0, 1.0)
    b = a + rng.uniform(0.3, 1.5)
    if complex_amplitudes:
        amps = [[rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)] for _ in range(2)]
        form = "pair"
    else:
        amps = [[rng.uniform(-50.0, 50.0) or 1.0, 0.0]]
        form = "cos" if rng.random() < 0.5 else "sin"
    if rng.random() < 0.5:
        kind, power = "poly", rng.randint(2, 4)
    else:
        kind, power = "smooth", None
    return {"n": n, "form": form, "amplitudes": amps, "kind": kind, "power": power, "support": [a, b]}


def mode_set(rng: random.Random, complex_amplitudes: bool) -> list[dict]:
    """1-3 distinct harmonics in 1..5, poly or smooth envelopes, amplitude +-50."""
    harmonics = rng.sample(range(1, 6), rng.randint(1, 3))
    return [_mode(rng, n, complex_amplitudes) for n in harmonics]


def hull_length(modes: list[dict]) -> float:
    return max(m["support"][1] for m in modes) - min(m["support"][0] for m in modes)


def sweep_items(seed: int) -> list[dict]:
    rng = random.Random(seed)
    lo, hi = (math.log(e) for e in SWEEP_EPS_RANGE)
    width = (hi - lo) / SWEEP_STRATA
    order = bit_reverse_permutation(SWEEP_STRATA)
    items = []
    for i in range(2 * SWEEP_STRATA):
        config = i % 2
        stratum = order[i // 2]
        eps = math.exp(lo + width * (stratum + rng.random()))
        if (stratum + config) % 2 == 0:  # half the draws get an integer 1/eps
            eps = 1.0 / round(1.0 / eps)
        items.append({"config": config, "eps": eps})
    return items


def scan_items(seed: int) -> list[dict]:
    """Real mode sets, with the canonical potential as every third item."""
    rng = random.Random(seed)
    drawn = [{"modes": mode_set(rng, False)} for _ in range(SCAN_DRAWN * STRATIFY)]

    def cost(it):  # propagation cost is proportional to the support length
        return hull_length(it["modes"])

    items = []
    for j, item in enumerate(spread_order(stratified(drawn, cost, SCAN_DRAWN), cost)):
        if j % 2 == 0:
            items.append({"config": 0})
        items.append(item)
    return items


def asym_items(seed: int) -> list[dict]:
    rng = random.Random(seed)
    drawn = [{"modes": mode_set(rng, complex_amplitudes=bool(i % 2))} for i in range(ASYM_POOL * STRATIFY)]

    # every harmonic adds quadrature work, smooth envelopes take adaptive
    # quadrature, and panel counts follow the support
    def cost(it):
        modes = it["modes"]
        return len(modes), sum(m["kind"] == "smooth" for m in modes), hull_length(modes)

    return spread_order(stratified(drawn, cost, ASYM_POOL), cost)


def cli_items(seed: int) -> list[dict]:
    """Every command once, half of them on each config, in a seeded order."""
    rng = random.Random(seed)
    configs = [k % len(CONFIGS) for k in range(len(COMMANDS))]
    rng.shuffle(configs)
    items = [{"command": c, "config": k} for c, k in zip(COMMANDS, configs)]
    rng.shuffle(items)
    return items


GENERATORS = {
    "sweep_deep": sweep_items,
    "scan_batch": scan_items,
    "asym_batch": asym_items,
    "cli_cold": cli_items,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


def digest(items: list[dict]) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
