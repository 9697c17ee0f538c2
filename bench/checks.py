"""Output checks for the benchmark: report digests and independent checks.

A digest is the SHA-256 of a report's JSON with sorted keys.  It leaves
out "warnings", whose fallback count is a per-layer counter rather than
part of the answer.  For named surfaces, whose generator order the seed
shuffles, it also leaves out "input" and "semigroup.permutation".

expected.json holds the digests recorded for the default seed: one per
named surface, and one per batch item (or "refused:<error>" for an item the
library must refuse).  On any other seed the batch is checked without
digests, by check_batch_report() and the workload's own validity oracle.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(report: dict, named: bool) -> str:
    doc = {k: v for k, v in report.items() if k != "warnings"}
    if named:
        del doc["input"]
        doc["semigroup"] = {k: v for k, v in report["semigroup"].items()
                            if k != "permutation"}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def refusal(error_name: str) -> str:
    return f"refused:{error_name}"


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def check_batch_report(report: dict) -> list:
    """Problems found in a batch report without a recorded digest.

    Every reported binomial must map both sides to the same lattice point
    under the canonical generators, the canonical generators must be the
    input generators reordered, and the verdict must match its prediction.
    """
    problems = []
    gens = report["semigroup"]["canonical_generators"]
    if sorted(map(tuple, gens)) != \
            sorted(map(tuple, report["input"]["generators"])):
        problems.append("canonical generators are not the input generators")
    for key in ("minimal_generators", "groebner_basis"):
        for b in report["ideal"][key]:
            sides = [tuple(sum(e * g[c] for e, g in zip(side, gens))
                           for c in (0, 1))
                     for side in (b["plus"], b["minus"])]
            if sides[0] != sides[1]:
                problems.append(f"{key} element {b['str']} is not a relation")
    verdict = report["verdict"]
    if verdict["predicted"] != verdict["observed"]:
        problems.append(f"verdict {verdict['predicted']} != "
                        f"{verdict['observed']}")
    return problems


class Checker:
    """Checks each analysis of one workload run against what is expected."""

    def __init__(self, workload: str, seed: int, expected: dict,
                 default_seed: int):
        self.named = workload != "batch"
        if self.named:
            self.digests = expected[workload]
        elif seed == default_seed:
            self.digests = dict(enumerate(expected["batch"]))
        else:
            self.digests = None

    def problems(self, index: int, label: str, expected_error, outcome) -> list:
        """outcome is a report dict, or the name of the error raised."""
        if self.digests is not None:
            key = label if self.named else index
            want = self.digests.get(key)
            got = (refusal(outcome) if isinstance(outcome, str)
                   else digest(outcome, self.named))
            if got != want:
                return [f"{label}: output digest {got} != recorded {want}"]
        if isinstance(outcome, str):
            if outcome != expected_error:
                return [f"{label}: raised {outcome}, expected "
                        f"{expected_error or 'a report'}"]
            return []
        if expected_error is not None:
            return [f"{label}: analysed, expected refusal {expected_error}"]
        if self.named:
            return []
        return [f"{label}: {p}" for p in check_batch_report(outcome)]
