"""Compare two `holdercert verify` JSON reports: same checks, margins and i_quad apart.

    python tools/compare_verify.py OLD.json NEW.json

Exits 1 unless both reports have the same check ids, anchors, order,
verdicts and summary, and the same constants rows in every field but the
float quadrature oracle i_quad (n and the interval columns compare exactly),
and then prints what differs: each check whose anchor or verdict differs,
with its margin old -> new (or that the ids or their order do), whether
summary does, and each constants row that differs beyond i_quad (or that the
row count does).  Otherwise exits 0 and prints, per family (the id up to its
first "/"), how many margins changed, how many went down, and the largest
drop and the largest rise: in ulps of the check's threshold (the last "< t"
or "> t" of its anchor), or relative to the old margin where the anchor has
none; and, if any i_quad changed, how many did and the largest relative
move.  Either way it ends with one line per config key that was added,
removed or changed, old -> new ("absent" where a report lacks the key, and a
report without config has none); config does not set the exit code.  Exits 2,
with a usage line on stderr, when it is not given two paths, cannot read
either as JSON, or either is not a verify report: a JSON object with checks,
summary and constants_table.
"""

import json
import math
import re
import sys
from collections import defaultdict

_THRESHOLD = re.compile(r"[<>] (\d+(?:\.\d+)?)")
USAGE = "usage: python tools/compare_verify.py OLD.json NEW.json"
REPORT_KEYS = {"checks", "summary", "constants_table"}
ULPS, RELATIVE = "ulps of the threshold", "relative to the margin"


def _load(path: str):
    with open(path) as f:
        return json.load(f)


def main(argv: list[str]) -> int:
    try:
        if len(argv) != 2:
            raise ValueError(f"expected 2 report paths, got {len(argv)}")
        old, new = _load(argv[0]), _load(argv[1])
        for path, report in zip(argv, (old, new)):
            if not (isinstance(report, dict) and REPORT_KEYS <= report.keys()):
                raise ValueError(f"{path} is not a verify report: it needs {', '.join(sorted(REPORT_KEYS))}")
    except (OSError, ValueError) as e:
        print(f"compare_verify: {e}\n{USAGE}", file=sys.stderr)
        return 2
    differences = ["summary differs"] if old["summary"] != new["summary"] else []
    old_rows, new_rows = old["constants_table"], new["constants_table"]
    if len(old_rows) != len(new_rows):
        differences.append(f"constants_table has {len(old_rows)} rows, then {len(new_rows)}")
    for a, b in zip(old_rows, new_rows):
        fields = sorted(key for key in (a.keys() | b.keys()) - {"i_quad"} if a.get(key) != b.get(key))
        if fields:
            differences.append(f"constants_table row n={a.get('n')} differs in {', '.join(fields)}")
    if [c["id"] for c in old["checks"]] != [c["id"] for c in new["checks"]]:
        differences.append("check ids or their order differ")
    else:
        for a, b in zip(old["checks"], new["checks"]):
            fields = [key for key in ("anchor", "verdict") if a[key] != b[key]]
            if fields:
                margins = f"margin {a['margin']!r} -> {b['margin']!r}"
                differences.append(f"{a['id']} differs in {' and '.join(fields)}, {margins}")
    old_config, new_config = old.get("config", {}), new.get("config", {})
    configs = []
    for key in sorted(old_config.keys() | new_config.keys()):
        was, now = (json.dumps(config[key]) if key in config else "absent" for config in (old_config, new_config))
        if was != now:
            configs.append(f"config {key}: {was} -> {now}")
    if differences:
        print("reports differ beyond their margins")
        print("\n".join(differences + configs))
        return 1
    changed, lower = defaultdict(int), defaultdict(int)
    shifts = defaultdict(lambda: {ULPS: [], RELATIVE: []})  # signed margin moves per family and unit
    for a, b in zip(old["checks"], new["checks"]):
        if a["margin"] == b["margin"]:
            continue
        family = a["id"].split("/")[0]
        changed[family] += 1
        lower[family] += b["margin"] < a["margin"]
        found, move = _THRESHOLD.findall(a["anchor"]), b["margin"] - a["margin"]
        if found:
            shifts[family][ULPS].append(move / math.ulp(float(found[-1])))
        else:  # a move off a zero margin is infinite
            shifts[family][RELATIVE].append(move / abs(a["margin"]) if a["margin"] else math.copysign(math.inf, move))
    print(f"{len(old['checks'])} checks; ids, anchors, order, verdicts, summary and constants_table "
          "but i_quad equal")
    for family in sorted(changed):
        sizes = [
            f"largest drop {max(0.0, -min(m)):{form}} and largest rise {max(0.0, max(m)):{form}} {unit}"
            for unit, form in ((ULPS, ".2f"), (RELATIVE, ".2e"))
            if (m := shifts[family][unit])
        ]
        print(f"{family}: {changed[family]} margins changed, {lower[family]} lower, {', '.join(sizes)}")
    moves = [abs(b["i_quad"] - a["i_quad"]) / abs(a["i_quad"]) for a, b in zip(old_rows, new_rows)
             if a.get("i_quad") != b.get("i_quad")]
    if moves:
        print(f"i_quad: {len(moves)} of {len(old_rows)} changed, largest relative move {max(moves):.2e}")
    for line in configs:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
