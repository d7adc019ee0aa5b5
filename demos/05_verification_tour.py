"""Run the verification suites programmatically and show the discrepancy report.

Everything the CLI `qdl verify` prints is available as results: each suite
carries its max residual, tolerance and pass flag, and the discrepancy probes
carry their printed-vs-adopted report as text lines (`SuiteResult.lines`).
At resolution 9 the predictability and threshold-sign probes still use the
default 13-step grid, as no coarser grid tells their two forms apart.
"""

from qdl.verify import DISCREPANCY_SUITES, run_suites

results = run_suites(resolution=9, names=["identities", "closed_form", "boundaries", "entropy"])
print("core suites (resolution 9):")
for res in results:
    print(f"  {res.name:22s} residual={res.max_residual:.3e} tol={res.tolerance:.0e} "
          f"{'PASS' if res.passed else 'FAIL'}")

print()
print("published-formula adjudications:")
for res in run_suites(resolution=9, names=list(DISCREPANCY_SUITES)):
    print(f"  {res.name:32s} {'PASS' if res.passed else 'FAIL'}")
    for line in res.lines:
        print(f"    {line}")
    print()
