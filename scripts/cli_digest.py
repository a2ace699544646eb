"""One SHA-256 line per CLI command and shipped config, for comparing two checkouts.

    python3 scripts/cli_digest.py [CHECKOUT]

runs each of the 8 commands on each ``configs/*.cfg`` of CHECKOUT (default:
the checkout holding this script) in a fresh interpreter on CHECKOUT's
``src``, twice: once writing to stdout and once with ``--out``.  A line's
digest covers both runs' stdout, stderr and exit code and the ``--out``
file, so two checkouts give byte-identical CLI outputs exactly when

    diff <(python3 scripts/cli_digest.py OTHER) <(python3 scripts/cli_digest.py)

prints nothing.  A run that exits with a code the CLI does not document
(0, 2 or 3), such as a crash, is named on stderr once every line is printed,
and the script then exits 1: two checkouts that crash alike would otherwise
print the same digests.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("k2", "predict", "solve", "sweep", "scan", "lemma", "gauge-check", "keps")
EXIT_CODES = (0, 2, 3)


def digest(root: Path, command: str, config: Path) -> tuple[str, list[str]]:
    """The digest of both runs, and each run that exited with an undocumented code."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    h = hashlib.sha256()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for extra in ((), ("--out", str(out))):
            argv = [sys.executable, "-m", "oscispec.cli", command, "--config", str(config), *extra]
            run = subprocess.run(argv, cwd=root, env=env, capture_output=True, check=False)
            for part in (run.stdout, run.stderr, str(run.returncode).encode()):
                h.update(len(part).to_bytes(8, "little") + part)
            if run.returncode not in EXIT_CODES:
                failed.append(f"{command} {config.name}{' --out' if extra else ''}: exit {run.returncode}")
        csv = out.read_bytes() if out.exists() else b""
        h.update(len(csv).to_bytes(8, "little") + csv)
    return h.hexdigest(), failed


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parents[1]
    failed = []
    for config in sorted((root / "configs").glob("*.cfg")):
        for command in COMMANDS:
            line, crashed = digest(root, command, config)
            print(f"{line}  {command} {config.name}", flush=True)
            failed += crashed
    for run in failed:
        print(f"undocumented exit code: {run}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
