"""Record the golden `verify-paper --json` payload digests.

    python3 bench/make_golden.py > bench/golden/verify_paper.json

Each seed runs in its own interpreter. Run it only at a commit whose
payloads are known to be right: the benchmark fails any later commit
whose bytes differ.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import VERIFY_PAPER_SEEDS  # noqa: E402

ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = {}
    for seed in range(VERIFY_PAPER_SEEDS):
        proc = subprocess.run(
            [sys.executable, "-m", "veryfree.cli", "verify-paper", "--json",
             "--seed", str(seed)], cwd=ROOT, env=env, capture_output=True,
            check=True)
        out[str(seed)] = hashlib.sha256(proc.stdout).hexdigest()
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
