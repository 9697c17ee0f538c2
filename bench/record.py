"""Record the expected report digests that the benchmark checks against.

    python3 bench/record.py

Runs every named surface once and the batch of the default seed once, and
writes bench/expected.json.  Run it only at a commit whose reports are
known to be right: the benchmark then fails every analysis whose report
changes.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from toricnash import cli  # noqa: E402
from toricnash.errors import ToricNashError  # noqa: E402


def outcome(spec, named: bool) -> str:
    try:
        report = cli.report_json(cli.build_report(spec))
    except ToricNashError as exc:
        return checks.refusal(type(exc).__name__)
    return checks.digest(report, named)


def main() -> int:
    expected = {"default_seed": DEFAULT_SEED}
    for workload in workloads.NAMED:
        items = workloads.inputs(workload, DEFAULT_SEED)
        expected[workload] = {label: outcome(spec, True)
                              for label, spec, _ in items}
    items = workloads.inputs("batch", DEFAULT_SEED)
    expected["batch"] = [outcome(spec, False) for _, spec, _ in items]
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
