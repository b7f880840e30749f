"""Write digests.json: the reference payload digest of every CLI request.

    python3 perfbench/record_digests.py

Run from the repository root on the commit whose outputs are the
reference.  Each request runs once in a fresh process; its output,
timings removed (``inputs.payload_digest``), is hashed.
"""

from __future__ import annotations

import json
import sys

import inputs
from run import HERE, PY, WORK, Launcher, report_child_failure


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    digests = {}
    out, err = WORK / "digest.out", WORK / "digest.err"
    with Launcher() as launch:
        for request in inputs.ENUM_CUBE + inputs.VERIFY_SWEEP:
            _, code, _ = launch.run([PY, "-m", "wsgap.cli", *request.split()], out, err)
            if code != 0:
                report_child_failure(request, code, err)
                return 1
            digests[request] = inputs.payload_digest(inputs.request_format(request),
                                                     out.read_bytes())
            print(digests[request], request)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
