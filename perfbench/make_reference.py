"""Write the stored reference outputs for the reference seed.

Run from the repository root, only when the program's outputs are meant to
change:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

import workloads


def main() -> None:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as work:
        dsl = workloads.DslSweep(workloads.REFERENCE_SEED, work,
                                 check_reference=False)
        with open(workloads.reference_path(dsl.name), "w") as fh:
            json.dump(dsl.make_reference(), fh, indent=1)
            fh.write("\n")
        iwf = workloads.IwfBinder(workloads.REFERENCE_SEED, work,
                                  check_reference=False)
        np.savez_compressed(workloads.reference_path(iwf.name),
                            **iwf.make_reference())


if __name__ == "__main__":
    main()
