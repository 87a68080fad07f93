"""One cold set-up of an in-process workload, timed by its parent.

The parent starts this script, waits for its ``ready`` line and takes
the elapsed time as one ``setup_s`` sample: interpreter start, imports,
deployment and the workload's warm-up, as a user pays them.

Usage: ``python perfbench/setup_child.py <workload> <seed>``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload.startswith("des_"):
        import des

        des.setup(workload, seed)
    else:
        import service

        service.ingest_setup(seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
