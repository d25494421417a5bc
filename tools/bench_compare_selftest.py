#!/usr/bin/env python3
"""Self-test for bench_compare.py: run it on perturbed copies of the
committed baseline and check that each gate really can fail.

Usage: tools/bench_compare_selftest.py  (registered with ctest)
"""
import copy
import json
import pathlib
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent
BASE = json.loads((TOOLS.parent / "BENCH_pr10.json").read_text())


def first(unit):
    """A copy of the baseline, with the bench and section dicts of its
    first `unit` section."""
    doc = copy.deepcopy(BASE)
    for b in doc["benches"]:
        for s in b["plain"]["sections"]:
            if s["unit"] == unit:
                return doc, b, s
    sys.exit(f"selftest: no {unit} section in the baseline")


def compare(doc, *flags):
    with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
        json.dump(doc, f)
        f.flush()
        return subprocess.run(
            [sys.executable, TOOLS / "bench_compare.py",
             TOOLS.parent / "BENCH_pr10.json", f.name, *flags],
            capture_output=True).returncode


sim_doc, _, sim = first("virtual_us")
sim["total_us"] += 0.001
drop_doc, bench, dropped = first("virtual_us")
bench["plain"]["sections"].remove(dropped)
wall_doc, _, wall = first("wall_us")
wall["p99_us"] *= 1.2
cases = [
    ("identical files pass", copy.deepcopy(BASE), [], 0),
    ("one changed virtual_us field fails", sim_doc, [], 1),
    ("a dropped section fails", drop_doc, [], 1),
    ("a dropped section passes under --allow-drop", drop_doc,
     ["--allow-drop", "/" + dropped["name"] + "$"], 0),
    ("wall p99 +20% fails at the default threshold", wall_doc, [], 1),
]
failed = [what for what, doc, flags, want in cases
          if compare(doc, *flags) != want]
for what, *_ in cases:
    print(("FAIL " if what in failed else "ok   ") + what)
sys.exit(1 if failed else 0)
