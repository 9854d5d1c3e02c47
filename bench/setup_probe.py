"""Time, in a fresh interpreter, importing starkres from ``src/`` and
building one workload's inputs; print the seconds as the last line.

    python3 bench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import starkres  # noqa: F401
    import workloads

    workloads.WORKLOADS[name].build(seed, ROOT / ".bench_work" / name)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
