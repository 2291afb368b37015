"""Run every golden's command through the ``periodlab`` script on PATH.

Each row of ``tests/golden/manifest.json`` names a golden, the argv that
prints it, the exit code and the stream it pins.  The row passes when that
stream equals the golden byte for byte, the other stream is empty and the
exit code matches.  Prints one line per row and exits 1 if any row fails::

    pip install . && python tests/run_goldens.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def faults(row, result):
    """How ``result`` differs from what ``row`` pins, empty if it does not."""
    want = {"stdout": b"", "stderr": b"",
            row["stream"]: (GOLDEN / row["golden"]).read_bytes()}
    got = {"stdout": result.stdout, "stderr": result.stderr}
    found = [f"{name} differs" for name in want if got.get(name) != want[name]]
    if result.returncode != row["exit"]:
        found.append(f"exit {result.returncode}, want {row['exit']}")
    return found


def main():
    script = shutil.which("periodlab")
    if script is None:
        print("run_goldens: no periodlab on PATH", file=sys.stderr)
        return 2
    rows = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    failed = 0
    for row in rows:
        result = subprocess.run([script, *row["argv"]], capture_output=True,
                                timeout=300)
        found = faults(row, result)
        failed += bool(found)
        print("FAIL" if found else "ok  ", row["golden"], *found, sep="  ",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
