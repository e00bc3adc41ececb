#!/usr/bin/env sh
# Regression gate for the checked-in bench numbers. Every BENCH_*.json in
# the working tree must be in the one row shape benches/common/mod.rs
# writes, with no (id, metric) pair twice; its rows are then compared
# with the committed baseline (`git show HEAD:<file>`).
#
#   ./scripts/bench_diff.sh            # compare working tree vs HEAD
#   BENCH_DIFF_PCT=30 ./scripts/bench_diff.sh
#
# Every row whose unit is not `ns` is gated: it fails when it moves
# against its `better` direction by more than the threshold (default
# 20%). Raw `ns` rows swing with machine load and are not compared.
# Rows on one side only (new or retired families) are listed, never
# failed.
set -eu

cd "$(dirname "$0")/.."

if ! command -v python3 >/dev/null 2>&1; then
    echo "bench_diff: python3 not available, skipping bench comparison" >&2
    exit 0
fi

exec python3 - "${BENCH_DIFF_PCT:-20}" <<'EOF'
import glob, json, subprocess, sys

REQUIRED = {"id", "layer", "metric", "value", "unit", "better"}
NUMBERS = {"value", "min", "max"}

def rows(text):
    """The rows keyed by (id, metric); ValueError when out of shape."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or set(doc) != {"bench", "workload", "available_parallelism", "rows"}:
        raise ValueError("top level is not {bench, workload, available_parallelism, rows}")
    out = {}
    for r in doc["rows"]:
        if not REQUIRED <= set(r) <= REQUIRED | {"attacks", "min", "max"}:
            raise ValueError(f"row {r} has the wrong keys")
        for key, v in r.items():
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            if number != (key in NUMBERS) or not (number or isinstance(v, str)):
                raise ValueError(f"row {r['id']!r} has a bad {key!r}: {v!r}")
        if r["better"] not in ("higher", "lower") or (r["id"], r["metric"]) in out:
            raise ValueError(f"row ({r['id']}, {r['metric']}) is repeated or has a bad better")
        out[(r["id"], r["metric"])] = r
    return out

pct, status = float(sys.argv[1]), 0
for path in sorted(glob.glob("BENCH_*.json")):
    git = subprocess.run(["git", "show", f"HEAD:{path}"], capture_output=True, text=True)
    where = path
    try:
        fresh = rows(open(path).read())
        where = f"HEAD:{path}"
        base = rows(git.stdout) if git.returncode == 0 else {}
    except (ValueError, TypeError) as e:
        print(f"bench_diff: FAIL {where}: {e}", file=sys.stderr)
        status = 1
        continue
    failed = False
    for (rid, metric), b in sorted(base.items()):
        if (rid, metric) not in fresh:
            print(f"  {rid} {metric}: retired (baseline only)")
        elif b["unit"] != "ns" and b["value"] > 0:
            f = fresh[(rid, metric)]["value"]
            worse = 100.0 * (b["value"] - f) / b["value"] * (1 if b["better"] == "higher" else -1)
            if worse > pct:
                print(f"  FAIL {rid} {metric}: {b['value']:.4g} -> {f:.4g} ({worse:.1f}% worse)")
                failed = True
            elif abs(worse) > 1.0:
                way = "worse" if worse > 0 else "better"
                print(f"  ok   {rid} {metric}: {b['value']:.4g} -> {f:.4g} ({abs(worse):.1f}% {way})")
    for rid, metric in sorted(set(fresh) - set(base)):
        print(f"  new  {rid} {metric}")
    status |= failed
    print(f"bench_diff: {path} {'regressed beyond' if failed else 'within'} {pct:.0f}% of HEAD")
sys.exit(status)
EOF
