"""Record perfbench/reference.json: the outputs the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Runs simulate_subcritical and verify_reference once through driftlab.cli.main
and stores every checked value.  Re-record only when a change is meant to
alter these values, and say so in the change.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from worker import HERE, _import_driftlab
from workloads import REFERENCE, SimulateSubcritical, VerifyReference


def main() -> None:
    cli = _import_driftlab()
    reference = {}
    for wl in (SimulateSubcritical(0), VerifyReference(0)):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            codes = [cli.main(argv) for argv in wl.commands(tmp)]
            reference[wl.name] = wl.summary(Path(tmp), codes)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
