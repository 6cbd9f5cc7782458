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
    "scan-heavy": "6c0eb009a74ef7405f7a51b25d2a098eb434f8681c32d691011d6cf8c0598ad6",
    "nu-crosscheck": "4ab1f2a60fc5a9faf146d0eb293394277825cebd9abdba02d33d51339313ffa7",
    "cli-light": "351cd31a1946ba5e5cd4f2d62a84af4ad44970c1678e9bdeaf5f69bf96b1cc2f",
    "cli-cached": "7bb6d4f3b282e201713a9f22915f17bdf93674daec5172b15e716d10ccef4961",
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
