"""Record the outputs the benchmark's correctness gates compare against.

Writes perfbench/reference.json with
  figure_sha256  SHA-256 of each figure CSV at workloads.RESOLUTION, and
  analyze_pool   the edge-biased analyze points with every reported quantity
                 except b_brute, from ``analyze()`` with the CLI defaults.

Run it from the repository root, only at a commit whose outputs are the
reference:  python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    run.pin_environment()
    import qdl
    import qdl.figures

    digests = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for n in workloads.FIGURE_NUMBERS:
            path = Path(tmp) / f"figure{n}.csv"
            qdl.figures.write_figure_csv(n, workloads.RESOLUTION, str(path))
            digests[str(n)] = workloads.sha256_file(path)

    pool = workloads.make_pool()
    for point in pool:
        report = qdl.analyze(*workloads.point_params(qdl, point))
        point["reference"] = workloads.analyze_quantities(report)
        gap = report.bell.b_horodecki - report.bell.b_brute
        point["b_gap_at_record"] = gap
        point["brute_converged_at_record"] = report.bell.brute_converged

    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(f'{{"resolution": {workloads.RESOLUTION},\n"figure_sha256": {json.dumps(digests)},\n')
        fh.write('"analyze_pool": [\n' + ",\n".join(json.dumps(p) for p in pool) + "\n]}\n")
    worst = max(p["b_gap_at_record"] for p in pool)
    unconverged = sum(not p["brute_converged_at_record"] for p in pool)
    print(f"wrote {run.REFERENCE}: {len(pool)} points, worst b_horodecki - b_brute {worst:.3e},"
          f" {unconverged} unconverged optimizer runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
