#!/usr/bin/env python3
"""Diff committed BENCH_*.json artifacts against a fresh set, or evaluate
the gate table.

The repo commits one JSON artifact per bench (BENCH_parallel.json,
BENCH_scalability.json, BENCH_wcmp.json, ...). After rerunning a bench into
some output
directory, this script lines the two trees up and reports every metric that
moved, so a PR review can separate "the code got faster" from "the artifact
was regenerated on different hardware".

Usage:
    scripts/bench_diff.py --fresh build/ [--committed .] [--threshold 0.05]
    scripts/bench_diff.py old.json new.json
    scripts/bench_diff.py --gate [ID_PREFIX ...] [--fresh build/]

Exit status: 0 when every compared metric moved less than the threshold
(every selected gate passed), 1 when something exceeded it (a gate
failed), 2 when no artifact pair could be compared (no gate was selected).

Rules:
  * Numeric leaves are compared by relative delta (absolute when the
    committed value is 0). Wall-clock / rate metrics (the table's
    "host_dependent" list) are reported but never counted as regressions
    by themselves (they depend on the host).
  * Non-numeric leaves (topology names, protocol labels) must match
    exactly; a mismatch means the bench matrix itself changed.
  * Keys present on one side only are listed as added/removed — an expected
    outcome when a bench gains new telemetry (e.g. coalesced_windows).

Gate mode evaluates scripts/gates.json, the only place a pass/fail rule of
scripts/check.sh or CI is defined: every entry whose id starts with one of
the prefixes (all entries when none is given), in table order. It runs each
bench an entry reads once, as <fresh>/bench/<bench> inside <fresh>, prints
each failing entry's id and why, and exits 1 if any entry failed. Fields:
  artifact  a BENCH_*.json written by the bench "benches" names for it (a
            glob runs the bench of every "benches" name it matches, then
            reads every match), or a
            bench/expected/X.csv pin, which must equal the CSV blocks
            bench_X prints (only the first with first_block_only).
  rows      dotted path to the artifact's row list or single row object
            (default: the whole document).
  select    {key: value or [values]}: the gated rows. Every combination of
            the listed values must match at least one row.
  metric    the gated key. A selected row without it fails the entry; a
            list value is gated on its length.
  op        "==", "<=", ">=", or "same": every row of a selected group
            holds the same value, and the group's `across` values are
            exactly the listed ones.
  bound     a constant; or ref = {artifact, rows, select, match, metric,
            factor, floor}, each defaulting to the entry's own (factor 1,
            no floor): the one reference row matching ref.select and the
            gated row's `match` keys gives max(factor * metric, floor).
  kind      "sim" is evaluated once. "wall" is host timing: a failure
            reruns the entry's bench, up to wall_attempts runs in all.
  why       the failure message.
"""

from __future__ import annotations

import argparse
import difflib
import fnmatch
import itertools
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TABLE = json.loads((REPO / "scripts" / "gates.json").read_text())

# Host-dependent metrics: report deltas, but never fail the diff on them.
HOST_DEPENDENT = frozenset(TABLE["host_dependent"])


def walk(node, prefix=""):
    """Yields (path, leaf) for every scalar in a nested JSON value."""
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            yield from walk(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from walk(value, f"{prefix}[{index}]")
    else:
        yield prefix, node


def leaf_name(path):
    """The final key of a dotted/indexed path ('points[3].sync_windows')."""
    tail = path.rsplit(".", 1)[-1]
    return tail.split("[", 1)[0]


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_pair(name, committed, fresh, threshold):
    """Compares two parsed artifacts; returns (lines, regression_count)."""
    old = dict(walk(committed))
    new = dict(walk(fresh))
    lines = []
    regressions = 0

    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append(f"  - {path}: removed (was {old[path]!r})")
            continue
        if path not in old:
            lines.append(f"  + {path}: added = {new[path]!r}")
            continue
        a, b = old[path], new[path]
        if a == b:
            continue
        if not (is_number(a) and is_number(b)):
            lines.append(f"  ! {path}: {a!r} -> {b!r} (bench matrix changed)")
            regressions += 1
            continue
        rel = abs(b - a) / abs(a) if a != 0 else float("inf")
        moved = f"{a:g} -> {b:g} ({'+' if b >= a else '-'}{rel * 100:.1f}%)"
        if leaf_name(path) in HOST_DEPENDENT:
            lines.append(f"  ~ {path}: {moved} [host-dependent, ignored]")
        elif rel >= threshold:
            lines.append(f"  ! {path}: {moved}")
            regressions += 1
        else:
            lines.append(f"  ~ {path}: {moved}")

    if not lines:
        lines.append("  (identical)")
    return [f"{name}:"] + lines, regressions


def csv_blocks(text, first_block_only=False):
    """The lines after each 'CSV:' line up to the next blank line."""
    kept, inside = [], False
    for line in text.split("\n"):
        if line == "CSV:":
            inside = True
        elif inside and not line.strip():
            if first_block_only:
                break
            inside = False
        elif inside:
            kept.append(line + "\n")
    return "".join(kept)


def rows_of(doc, path):
    for key in path.split(".") if path else ():
        doc = doc[key]
    return doc if isinstance(doc, list) else [doc]


def matching(rows, where):
    return [r for r in rows
            if all(k in r and r[k] == v for k, v in where.items())]


def combos(select, skip=None):
    """Every combination of the selector's listed values, as {key: value}."""
    keys = [k for k in select if k != skip]
    lists = [v if isinstance(v, list) else [v] for v in map(select.get, keys)]
    for values in itertools.product(*lists):
        yield dict(zip(keys, values))


def holds(op, value, bound):
    if isinstance(value, list):
        value = len(value)
    if op == "==":
        return value == bound
    if not is_number(value):
        return False
    return value <= bound if op == "<=" else value >= bound


def ref_bound(entry, row, load):
    """The entry's bound for `row`; None when the reference is missing."""
    ref = entry["ref"]
    docs = load(ref.get("artifact", entry["artifact"]))
    if not docs:
        return None
    where = dict(ref.get("select", {}))
    where.update((k, row.get(k)) for k in ref.get("match", ()))
    try:
        rows = rows_of(docs[0][1], ref.get("rows", entry.get("rows", "")))
    except (KeyError, TypeError):
        return None
    picked = matching(rows, where)
    value = picked[0].get(ref.get("metric", entry["metric"])) \
        if len(picked) == 1 else None
    if not is_number(value):
        return None
    return max(value * ref.get("factor", 1), ref.get("floor", float("-inf")))


def evaluate(entry, load):
    """Checks one gate entry. load(artifact) returns [(name, content)]:
    the parsed JSON of each matching BENCH artifact, or the bench's stdout
    for a .csv pin. Returns (problems, gated): what failed, and the
    (row, bound) pairs checked, bound None for "same"."""
    docs = load(entry["artifact"])
    if not docs:
        return [f"no {entry['artifact']}: missing, or its bench failed"], []
    if entry["artifact"].endswith(".csv"):
        want = (REPO / entry["artifact"]).read_text()
        got = csv_blocks(docs[0][1], entry.get("first_block_only", False))
        diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                    entry["artifact"], "fresh", lineterm="")
        return (["\n".join(diff)] if got != want else []), []

    metric, op, across = entry["metric"], entry["op"], entry.get("across")
    select = entry.get("select", {})
    needed = [k for k in (metric, across) if k]
    problems, gated = [], []
    for name, doc in docs:
        try:
            rows = rows_of(doc, entry.get("rows", ""))
        except (KeyError, TypeError):
            problems.append(f"{name}: no {entry['rows']}")
            continue
        for where in combos(select, across):
            label = "/".join([name, *map(str, where.values())])
            picked = matching(rows, where)
            if not picked:
                problems.append(f"{label}: no row")
            elif any(k not in r for r in picked for k in needed):
                problems.append(f"{label}: a row has no {' or '.join(needed)}")
            elif op == "same":
                gated += [(r, None) for r in picked]
                by = {r[across]: r[metric] for r in picked}
                if sorted(r[across] for r in picked) != sorted(select[across]):
                    problems.append(f"{label}: {across} {sorted(by)} != "
                                    f"{sorted(select[across])}")
                elif len(set(by.values())) != 1:
                    problems.append(f"{label}: {metric} by {across} {by}")
            else:
                for row in picked:
                    bound = ref_bound(entry, row, load) \
                        if "ref" in entry else entry["bound"]
                    if bound is None:
                        problems.append(f"{label}: no reference row")
                        continue
                    gated.append((row, bound))
                    if not holds(op, row[metric], bound):
                        problems.append(f"{label}: {metric} {row[metric]!r} "
                                        f"is not {op} {bound!r}")
    return problems, gated


def run_gates(prefixes, fresh):
    """Gate mode: returns 0 when every selected entry passes, else 1."""
    entries = [e for e in TABLE["gates"]
               if not prefixes or e["id"].startswith(tuple(prefixes))]
    if not entries:
        print(f"no gate id starts with {prefixes}", file=sys.stderr)
        return 2
    outputs = {}  # bench -> its stdout, None when it failed to run

    def benches_of(artifact):
        if artifact.endswith(".csv"):
            return ["bench_" + Path(artifact).stem]
        return [bench for name, bench in TABLE["benches"].items()
                if fnmatch.fnmatchcase(name, artifact)]

    def run(bench):
        binary = fresh.resolve() / "bench" / bench
        if not binary.exists():
            print(f"  no bench binary {binary}")
            outputs[bench] = None
            return
        proc = subprocess.run([str(binary)], cwd=fresh, text=True,
                              stdout=subprocess.PIPE, check=False)
        if proc.returncode != 0:
            print(f"  {bench} exited with status {proc.returncode}")
        outputs[bench] = proc.stdout if proc.returncode == 0 else None

    def load(artifact):
        benches = benches_of(artifact)
        for bench in benches:
            if bench not in outputs:
                run(bench)
            if outputs[bench] is None:
                return []
        if artifact.endswith(".csv"):
            return [(artifact, outputs[benches[0]])]
        return [(p.name, json.loads(p.read_text()))
                for p in sorted(fresh.glob(artifact))]

    failed = 0
    for entry in entries:
        attempts = TABLE["wall_attempts"] if entry["kind"] == "wall" else 1
        for attempt in range(1, attempts + 1):
            try:
                problems, _ = evaluate(entry, load)
            except (OSError, ValueError) as err:
                problems = [f"unreadable artifact ({err})"]
            if not problems or attempt == attempts:
                break
            print(f"  retry {attempt}/{attempts}: {entry['id']}: "
                  f"{problems[0]}; re-measuring")
            for bench in benches_of(entry["artifact"]):
                run(bench)
        if problems:
            failed += 1
            print(f"FAIL {entry['id']}: {entry['why']}")
            print("\n".join(f"    {p}" for p in problems))
        else:
            print(f"  ok {entry['id']}")
    print(f"\n{len(entries) - failed}/{len(entries)} gates passed")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff committed BENCH_*.json against a fresh run")
    parser.add_argument("files", nargs="*",
                        help="explicit pair: OLD.json NEW.json")
    parser.add_argument("--committed", default=".",
                        help="directory holding the committed artifacts")
    parser.add_argument("--fresh", default="build",
                        help="directory holding the freshly generated ones")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="relative delta that counts as a regression")
    parser.add_argument("--gate", nargs="*", metavar="ID_PREFIX",
                        help="evaluate scripts/gates.json entries, running "
                             "their benches from the --fresh build tree")
    args = parser.parse_args()

    if args.gate is not None:
        return run_gates(args.gate, Path(args.fresh))
    if args.files and len(args.files) != 2:
        parser.error("explicit mode takes exactly two files")

    pairs = []
    if args.files:
        pairs.append((Path(args.files[0]), Path(args.files[1])))
    else:
        committed_dir = Path(args.committed)
        fresh_dir = Path(args.fresh)
        for committed in sorted(committed_dir.glob("BENCH_*.json")):
            fresh = fresh_dir / committed.name
            if fresh.exists():
                pairs.append((committed, fresh))
            else:
                print(f"{committed.name}: no fresh counterpart under "
                      f"{fresh_dir}/ (skipped)")

    if not pairs:
        print("nothing to compare", file=sys.stderr)
        return 2

    total_regressions = 0
    for committed, fresh in pairs:
        try:
            old = json.loads(committed.read_text())
            new = json.loads(fresh.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"{committed.name}: unreadable pair ({err})", file=sys.stderr)
            total_regressions += 1
            continue
        lines, regressions = diff_pair(committed.name, old, new,
                                       args.threshold)
        print("\n".join(lines))
        total_regressions += regressions

    if total_regressions:
        print(f"\n{total_regressions} metric(s) exceeded the "
              f"{args.threshold * 100:g}% threshold")
        return 1
    print("\nall compared metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
