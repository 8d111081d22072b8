"""``run.py compare OLD.json NEW.json``: per-workload verdicts between two reports.

A report (``run.py --out``) holds, per workload and metric, one value per run
and every leg's own value inside each run.  Each workload x end-to-end metric
gets its own row — both medians with their quartiles, the ratio with its base,
and a verdict against the bound fixed in ``BENCHMARK.json``:

* ``worse`` / ``better`` — the new median is beyond the bound on that side;
  an emit latency is also ``worse`` when a paced leg of the new report did not
  sustain its rate (the backlog was still growing, so the latency has no
  steady value) while the old report's did;
* ``unresolved`` — within the bound, but either side's spread (quartile
  distance over median) is wider than the bound, so "unchanged" cannot be
  claimed; also an emit latency when neither report sustained its rate;
* ``same`` — within the bound, and the bound resolves.

Quartiles are taken over the runs when a report has at least four, otherwise
over the legs of its runs, so a single run still shows its spread.
``emit_latency_p95_ms`` has no bound (none holds on a shared host) and is
always ``unresolved``.  Exit code 1 on any ``worse`` or a higher
``failed_frac``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: Reported by every end-to-end run, never bounded.
UNBOUNDED = "emit_latency_p95_ms"


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; a sample too small for the exclusive method is interpolated."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    method = "exclusive" if len(values) >= 4 else "inclusive"
    q1, _q2, q3 = statistics.quantiles(values, n=4, method=method)
    return q1, statistics.median(values), q3


def summary(entry: dict, name: str) -> "tuple | None":
    """``(q1, median, q3)`` of ``name`` in one workload's report entry, or None.

    The median is over the runs' values; the quartiles too when there are at
    least four runs, else they are those of all the runs' legs.
    """
    values = [v for v in entry["metrics"].get(name, {}).get("values", []) if v is not None]
    if not values:
        return None
    legs = [v for run in entry.get("leg_samples", {}).get(name, []) for v in run]
    q1, _median, q3 = quartiles(values if len(values) >= 4 or not legs else legs)
    return q1, statistics.median(values), q3


def spread(summarised: tuple) -> float:
    q1, median, q3 = summarised
    return abs(q3 - q1) / abs(median) if median else 0.0


def verdict(old: tuple, new: tuple, better: str, bound: float) -> str:
    base = old[1]
    change = (new[1] - base) / abs(base) if base else 0.0
    if better == "higher":
        change = -change
    # ``change`` is now the relative worsening (negative = improvement).
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    if max(spread(old), spread(new)) > bound:
        return "unresolved"
    return "same"


def failed_frac(entry: dict) -> float:
    return sum(entry["failed"]) / max(sum(entry["attempted"]), 1)


def _cell(summarised: "tuple | None") -> str:
    if summarised is None:
        return f"{'null':>38}"
    q1, median, q3 = summarised
    return f"{median:>12.6g} [{q1:>10.5g} .. {q3:>10.5g}]"


def main(argv: list, contract: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare OLD.json NEW.json")
        return 2
    old_report, new_report = (
        json.loads(Path(path).read_text(encoding="utf-8"))["workloads"] for path in argv
    )
    regressed = False
    header = f"{'workload':<15} {'metric':<44} {'old median [q1 .. q3]':>38} {'new median [q1 .. q3]':>38} {'new/old':>8}  verdict"
    print(header)
    layer_rows = []
    for workload in old_report:
        if workload not in new_report:
            continue
        old_entry, new_entry = old_report[workload], new_report[workload]
        old_sustained = all(old_entry.get("sustained", []))
        new_sustained = all(new_entry.get("sustained", []))
        for declared in contract["end_to_end"] + [{"name": UNBOUNDED}]:
            name = declared["name"]
            old, new = summary(old_entry, name), summary(new_entry, name)
            if old is None and new is None:
                continue
            ratio = float("nan")
            if old is None or new is None:
                outcome = "worse" if new is None else "better"
            else:
                ratio = new[1] / old[1] if old[1] else ratio
                if name == UNBOUNDED:
                    outcome = "unresolved"
                elif not new_sustained and name.startswith("emit_latency"):
                    outcome = "worse" if old_sustained else "unresolved"
                else:
                    outcome = verdict(old, new, declared["better"], declared["bound"])
            regressed = regressed or outcome == "worse"
            print(f"{workload:<15} {name:<44} {_cell(old)} {_cell(new)} {ratio:>8.4f}  {outcome}")
        old_failed, new_failed = failed_frac(old_entry), failed_frac(new_entry)
        outcome = "worse" if new_failed > old_failed else "same"
        regressed = regressed or outcome == "worse"
        print(f"{workload:<15} {'failed_frac':<44} {old_failed:>38.6g} {new_failed:>38.6g} {'':>8}  {outcome}")
        for declared in contract["per_layer"]:
            name = declared["name"]
            old, new = summary(old_entry, name), summary(new_entry, name)
            if old is None and new is None:
                continue
            ratio = new[1] / old[1] if old and new and old[1] else float("nan")
            layer_rows.append(f"{workload:<15} {name:<44} {_cell(old)} {_cell(new)} {ratio:>8.4f}")
    if layer_rows:
        print("\nper-layer (no verdict; ratio base = old median)")
        print("\n".join(layer_rows))
    return 1 if regressed else 0
