"""Record the seed-0 reference CSVs that checks.py compares against.

    python3 bench/record_refs.py

Runs every workload's seed-0 one-worker invocations through
``chiralcmm.cli.main`` and stores each output gzipped in bench/ref/.  Run it
only when a change to the program's output is intended.
"""

from __future__ import annotations

import gzip
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from chiralcmm import cli  # noqa: E402
from checks import REF_DIR, reference_path  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402


def main() -> int:
    REF_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in WORKLOADS.values():
            for call in invocations(workload, 0, tmp):
                if call.workers > 1:
                    continue
                if cli.main(list(call.argv)) != 0:
                    print(f"{call.config}: failed", file=sys.stderr)
                    return 1
                data = Path(call.out).read_bytes()
                with open(reference_path(call.config), "wb") as raw, \
                        gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                    fh.write(data)
                print(f"recorded {reference_path(call.config).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
