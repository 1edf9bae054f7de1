"""Regenerate ``reference.json``: per workload, the losses of the first
REF_STEPS training steps from the fixed REF_SEED inputs.

    python3 benchmarks/make_reference.py

The benchmark compares every run against these losses, so regenerate them
only for a change that is meant to alter the numbers, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, SRC, limit_blas_threads


def main() -> int:
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads as W

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=work_root)
    try:
        ref = {name: W.reference_losses(w, Path(work)) for name, w in W.WORKLOADS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(json.dumps(ref, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
