"""SHA-256 of every artifact the CLI writes for four fixed runs on the bundled data.

Compare the printed lines between two checkouts to show that a change keeps
the outputs byte-identical (or to see exactly which files it changes):

    PYTHONPATH=src python scripts/output_digests.py

The runs are ``optimize --seed 42`` (hybrid), ``optimize --seed 42
--strategy fully_quantum --budget 100000`` and ``backtest --seed 42
--budget 100000 --benchmark TECH1`` once per strategy. Artifacts go to a
temporary directory that is removed afterwards.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from annealfolio.cli import main as cli

RUNS = {
    "optimize-hybrid": ["optimize", "--seed", "42"],
    "optimize-fully_quantum": ["optimize", "--seed", "42", "--strategy", "fully_quantum",
                               "--budget", "100000"],
    "backtest-hybrid": ["backtest", "--seed", "42", "--budget", "100000",
                        "--benchmark", "TECH1", "--strategy", "hybrid"],
    "backtest-fully_quantum": ["backtest", "--seed", "42", "--budget", "100000",
                               "--benchmark", "TECH1", "--strategy", "fully_quantum"],
}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli(argv + ["--out-dir", str(out)])
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                return 1
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
