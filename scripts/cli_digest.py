"""One SHA-256 line per CLI command and shipped config, for comparing two checkouts.

    python3 scripts/cli_digest.py [CHECKOUT]

runs each of the 8 commands on each ``configs/*.cfg`` of CHECKOUT (default:
the checkout holding this script) in a fresh interpreter on CHECKOUT's
``src``, twice: once writing to stdout and once with ``--out``.  A line's
digest covers both runs' stdout, stderr and exit code and the ``--out``
file, so two checkouts give byte-identical CLI outputs exactly when

    diff <(python3 scripts/cli_digest.py OTHER) <(python3 scripts/cli_digest.py)

prints nothing.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("k2", "predict", "solve", "sweep", "scan", "lemma", "gauge-check", "keps")


def digest(root: Path, command: str, config: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for extra in ((), ("--out", str(out))):
            argv = [sys.executable, "-m", "oscispec.cli", command, "--config", str(config), *extra]
            run = subprocess.run(argv, cwd=root, env=env, capture_output=True, check=False)
            for part in (run.stdout, run.stderr, str(run.returncode).encode()):
                h.update(len(part).to_bytes(8, "little") + part)
        csv = out.read_bytes() if out.exists() else b""
        h.update(len(csv).to_bytes(8, "little") + csv)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parents[1]
    for config in sorted((root / "configs").glob("*.cfg")):
        for command in COMMANDS:
            print(f"{digest(root, command, config)}  {command} {config.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
