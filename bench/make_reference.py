"""Record the values the f_scan check compares against: F at pinned
points of the reference window, for each f_scan field, as computed by the
checked-out starkres.  Run from the repository root at the commit whose
values become the reference:

    python3 bench/make_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_SEED = 9001
PINNED_POINTS = 64


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from starkres import FormFactor, ResolventEvaluator

    import provenance
    import workloads

    z = workloads.scan_points(PINNED_SEED, PINNED_POINTS)
    phi = FormFactor.gaussian(0.1, 1.0)
    values = [ResolventEvaluator(phi, f).F_value(z)
              for f in workloads.FS_FIELDS]
    data = {
        "commit": provenance.git_commit(ROOT),
        "source_sha256": provenance.source_digest(ROOT / "src"),
        "fields": list(workloads.FS_FIELDS),
        "points": [[p.real, p.imag] for p in z],
        "values": [[[v.real, v.imag] for v in field] for field in values],
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(data, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
