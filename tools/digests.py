"""Check that each perfbench workload still gives its pinned output digest.

Runs ``perfbench/run.py --workload W --seed 1 --seconds 0.01`` from the
repo root for each of the four workloads, prints each output digest, and
exits 1 if a request failed or a digest differs from the one pinned
below.  A digest hashes the outputs of one pass, so any changed sequence,
value or record changes it.  The runs write only under ``.perfbench/``.

    python3 tools/digests.py

Stdlib only.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "scan-heavy": "4df82e7e822d2c7d664de463ab83ce348dc1a271d30d17ba8611966b4a26cce7",
    "nu-crosscheck": "f3aa34d26dfe0daeaee04f8fa7837f506cd375312204f5148001da70d42da025",
    "cli-light": "6af756ae365966c7041c7a33eb3513b983a5482f5f31d11f4d34e42073b6eecb",
    "cli-cached": "a3ffaf82c5225dea6a48dbde666acc9f4085fe54c1a82dc0e0eb33f80a26c75e",
}


def run(workload: str) -> tuple[str | None, int | None]:
    """(output digest, failed requests) of one short run; None where the
    output does not show it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True,
    )
    found = re.search(r"output digest ([0-9a-f]{64})", proc.stdout)
    try:
        failed = json.loads(proc.stdout.strip().splitlines()[-1])["failed"]
    except (IndexError, ValueError, KeyError, TypeError):  # the run did not finish
        sys.stderr.write(proc.stderr)
        failed = None
    return (found.group(1) if found else None), failed


def main() -> int:
    ok = True
    for workload, pinned in PINNED.items():
        digest, failed = run(workload)
        same = digest == pinned
        ok = ok and same and failed == 0
        status = "ok" if same else f"DIFFERS from pinned {pinned}"
        print(f"{workload:14s} {digest}  failed {failed}  {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
