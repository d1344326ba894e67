#!/usr/bin/env python3
"""Self-test of the gate table (scripts/gates.json), run by ctest.

Every entry must pass on the committed BENCH_*.json artifacts and on the
bench/expected/ pins, and must fail, by its own id, once its gated value
moves just past the bound, its key disappears, or its rows go missing.
Runs no bench.
"""

import copy
import fnmatch
import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))
import bench_diff  # noqa: E402

GATES = bench_diff.TABLE["gates"]
PINS = [e for e in GATES if e["artifact"].endswith(".csv")]
ROW_GATES = [e for e in GATES if e not in PINS]


def bench_output(entry):
    """What the pin's bench prints when it matches: its CSV blocks, plus
    an unpinned block after them when only the first block is pinned."""
    text = f"header\nCSV:\n{(REPO / entry['artifact']).read_text()}\n"
    return text + ("CSV:\nunpinned\n" if entry.get("first_block_only") else "")


def past(op, bound):
    """A value just on the failing side of `op bound`."""
    if isinstance(bound, bool):
        return not bound
    step = 1 if isinstance(bound, int) else max(abs(bound) * 1e-9, 1e-12)
    return bound - step if op == ">=" else bound + step


class GateTableTest(unittest.TestCase):
    def setUp(self):
        self.docs = {p.name: json.loads(p.read_text())
                     for p in sorted(REPO.glob("BENCH_*.json"))}
        self.outputs = {e["artifact"]: bench_output(e)
                        for e in PINS}

    def load(self, artifact):
        if artifact.endswith(".csv"):
            return [(artifact, self.outputs[artifact])]
        return [(name, doc) for name, doc in self.docs.items()
                if fnmatch.fnmatchcase(name, artifact)]

    def failing(self):
        return {e["id"] for e in GATES if bench_diff.evaluate(e, self.load)[0]}

    def gated(self, entry):
        problems, gated = bench_diff.evaluate(entry, self.load)
        self.assertEqual(problems, [], entry["id"])
        self.assertTrue(gated, entry["id"])
        return gated

    def assertFailsAlone(self, entry_id, mutate):
        """After mutate(), entry_id fails; the committed files pass again."""
        saved = copy.deepcopy((self.docs, self.outputs))
        try:
            mutate()
            self.assertIn(entry_id, self.failing())
        finally:
            self.docs, self.outputs = saved

    def test_table_is_well_formed(self):
        ids = [e["id"] for e in GATES]
        self.assertEqual(len(ids), len(set(ids)))
        for e in GATES:
            self.assertIn(e["op"], ("==", "<=", ">=", "same"), e["id"])
            self.assertIn(e["kind"], ("sim", "wall"), e["id"])
            self.assertTrue(e["why"], e["id"])
            if e in ROW_GATES:
                bounds = [k for k in ("bound", "ref", "across") if k in e]
                self.assertEqual(len(bounds), 1, e["id"])
            if e["kind"] == "wall":
                self.assertIn(e["artifact"], bench_diff.TABLE["benches"])
        pinned = {f"bench/expected/{p.name}"
                  for p in (REPO / "bench" / "expected").glob("*.csv")}
        self.assertEqual(pinned, {e["artifact"] for e in PINS})

    def test_every_artifact_has_a_bench(self):
        # --gate regenerates exactly the committed artifacts, so --fresh
        # compares every one of them.
        self.assertEqual(set(self.docs), set(bench_diff.TABLE["benches"]))

    def test_committed_artifacts_pass_every_gate(self):
        self.assertEqual(self.failing(), set())

    def test_each_gate_fails_just_past_its_bound(self):
        for entry in ROW_GATES:
            row, bound = self.gated(entry)[-1]
            metric = entry["metric"]
            if entry["op"] == "same":
                moved = row[metric] + 1
            else:
                moved = past(entry["op"], bound)
            with self.subTest(entry["id"]):
                self.assertFailsAlone(
                    entry["id"], lambda: row.__setitem__(metric, moved))

    def test_each_gate_fails_without_its_key(self):
        for entry in ROW_GATES:
            row, _ = self.gated(entry)[0]
            with self.subTest(entry["id"]):
                self.assertFailsAlone(entry["id"],
                                      lambda: row.pop(entry["metric"]))

    def test_each_selected_combination_is_required(self):
        for entry in ROW_GATES:
            if not entry.get("select"):
                continue
            where = next(bench_diff.combos(entry["select"],
                                           entry.get("across")))

            def drop():
                rows = bench_diff.rows_of(self.docs[entry["artifact"]],
                                          entry["rows"])
                for row in bench_diff.matching(rows, where):
                    rows.remove(row)
            with self.subTest(entry["id"]):
                self.assertFailsAlone(entry["id"], drop)

    def test_same_needs_every_across_value(self):
        for entry in ROW_GATES:
            if entry["op"] != "same":
                continue

            def drop_one(entry=entry):
                row, _ = self.gated(entry)[-1]
                self.docs[entry["artifact"]][entry["rows"]].remove(row)
            with self.subTest(entry["id"]):
                self.assertFailsAlone(entry["id"], drop_one)

    def test_max_gap_floor(self):
        entry = next(e for e in GATES if e["id"] == "wcmp.flowlet_max_gap")
        floor = entry["ref"]["floor"]
        for row, _ in self.gated(entry):
            hrw = bench_diff.matching(self.docs["BENCH_wcmp.json"]["points"], {
                "topology": row["topology"], "protocol": row["protocol"],
                "path_select": "hrw"})[0]
            hrw["max_gap_ms"] = floor / 10
            row["max_gap_ms"] = floor
        self.assertEqual(bench_diff.evaluate(entry, self.load)[0], [])
        row["max_gap_ms"] = past("<=", floor)
        self.assertTrue(bench_diff.evaluate(entry, self.load)[0])

    def test_missing_reference_row_fails(self):
        def drop_bgp():
            points = self.docs["BENCH_workload.json"]["points"]
            bgp = bench_diff.matching(points, {
                "topology": "8-PoD-asym", "protocol": "BGP/ECMP",
                "scenario": "random_pairs", "load": 0.5})
            self.assertEqual(len(bgp), 1)
            points.remove(bgp[0])
        for entry_id in ("workload.fct_p99", "workload.flows_incomplete"):
            self.assertFailsAlone(entry_id, drop_bgp)
        self.assertFailsAlone("parallel.one_thread_eps",
                              lambda: self.docs.pop("BENCH_overload.json"))

    def test_stripped_lifecycle_keys_fail(self):
        def strip():
            for s in self.docs["BENCH_lifecycle.json"]["scenarios"]:
                for key in ("final_converged", "out_of_window_violations",
                            "drain_violations"):
                    s.pop(key, None)
        for entry_id in ("lifecycle.final_converged",
                         "lifecycle.out_of_window_violations",
                         "lifecycle.drain_violations"):
            self.assertFailsAlone(entry_id, strip)

    def test_campaign_stamp_covers_every_artifact(self):
        for name in self.docs:
            with self.subTest(name):
                self.assertFailsAlone(
                    "stamp.campaign_seeds",
                    lambda: self.docs[name].pop("campaign_seeds"))

    def test_each_pin_fails_on_a_changed_or_missing_line(self):
        for entry in PINS:
            pin = entry["artifact"]
            out = self.outputs[pin]
            last = out.index("\n\n")  # end of the pinned block
            with self.subTest(pin):
                self.assertFailsAlone(entry["id"], lambda: self.outputs.update(
                    {pin: out[:last] + "0" + out[last:]}))
                self.assertFailsAlone(entry["id"], lambda: self.outputs.update(
                    {pin: out[:out.rindex("\n", 0, last)] + out[last:]}))
                self.assertFailsAlone(entry["id"], lambda: self.outputs.update(
                    {pin: "no csv\n"}))

    def test_first_block_only_ignores_later_blocks(self):
        for entry in PINS:
            out = self.outputs[entry["artifact"]] + "CSV:\nextra\n"
            problems, _ = bench_diff.evaluate(
                entry, lambda a, out=out: [(a, out)])
            self.assertEqual(bool(problems),
                             not entry.get("first_block_only"), entry["id"])


if __name__ == "__main__":
    unittest.main()
