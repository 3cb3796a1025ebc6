"""Record the reference outputs the benchmark checks against.

    python3 bench/record_reference.py

Runs the square workloads once at the benchmark size and at the smoke-test
size and writes their checked quantities to ``bench/reference.json``.  Run it
only on a commit whose outputs are known to be right; the benchmark then
flags any later change in these quantities as an output mismatch.
"""

import json
import sys

import bootstrap


def main() -> int:
    bootstrap.require_sources()
    import workloads

    reference = {}
    for smoke in (True, False):
        report = workloads.SquareReport(bootstrap.WORKDIR, 0, smoke, {})
        report.setup()
        rc = report.run_item(None)
        if rc != 0:
            print(f"report at N = {report.n} exited with {rc}", file=sys.stderr)
            return 1
        reference[f"{report.name}/{report.n}"] = report.summary()
        report.cleanup()
        chain = workloads.SquareChain(bootstrap.WORKDIR, 0, smoke, {})
        chain.setup()
        reference[f"{chain.name}/{chain.n}"] = workloads.chain_summary(chain.run_item(None))
    out = bootstrap.BENCH_DIR / "reference.json"
    out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
