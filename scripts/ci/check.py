#!/usr/bin/env python3
"""The assertions the CI scripts make on what a run wrote, one subcommand each.

    check.py counters METRICS.json... --require NAME...
    check.py record RUN_OUTPUT...
    check.py traced RECORDS.jsonl WORKLOAD:METRIC...
    check.py model MODEL.txt...
    check.py links DOC.md...
    check.py planted ANSWERS.jsonl
    check.py nbsp ANSWERS.jsonl
    check.py linkpred REPORT.json... --min-auc AUC

Each prints what it checked and exits 1 with the reason on the first
failed assertion.
"""
import argparse
import json
import math
import os
import re
import sys


def counters(args):
    """Every required counter is non-zero in each `GW2V_METRICS_OUT` snapshot."""
    for path in args.files:
        found = json.load(open(path))["counters"]
        missing = [k for k in args.require if found.get(k, 0) == 0]
        assert not missing, f"{path}: counters never incremented: {missing}"
        print(path, {k: v for k, v in sorted(found.items()) if k.startswith(("faults.", "gluon.state"))})


def last_record(path):
    lines = [line for line in open(path) if line.strip()]
    return json.loads(lines[-1])


def record(args):
    """The harness record (the run's last output line) is correct with 0 failed."""
    for path in args.files:
        r = last_record(path)
        assert r["correct"] is True and r["failed"] == 0, (path, r)
        print(path, r["attempted"], "operations, all correct")


def traced(args):
    """Each `workload:metric` of a traced record is > 0, in a correct record."""
    records = {r["workload"]: r for r in map(json.loads, open(args.file))}
    for pair in args.metrics:
        workload, metric = pair.split(":")
        r = records[workload]
        assert r["correct"] is True and r["failed"] == 0, (workload, r["failed"])
        value = r["metrics"][metric]["value"]
        assert value > 0, (workload, metric, value)
        print(workload, metric, value)


def model(args):
    """A text model has finite rows of its header's dim, as many as its header says."""
    for path in args.files:
        with open(path) as f:
            n, dim = map(int, f.readline().split())
            rows = 0
            for line in f:
                vals = [float(x) for x in line.split()[1:]]
                assert len(vals) == dim and all(map(math.isfinite, vals)), f"{path}: {line[:80]}"
                rows += 1
        assert rows == n, f"{path}: {rows} rows vs header {n}"
        print(f"{path}: {rows} finite rows of dim {dim}")


def links(args):
    """No relative link of a markdown doc is dead; `path#anchor` checks `path`."""
    link = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    dead = []
    for doc in args.docs:
        for m in link.finditer(open(doc).read()):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = os.path.normpath(os.path.join(os.path.dirname(doc), target.split("#")[0]))
            if not os.path.exists(path):
                dead.append(f"{doc}: {target}")
    assert not dead, "dead relative links:\n  " + "\n  ".join(dead)
    print(f"checked {len(args.docs)} docs, no dead relative links")


def planted(args):
    """Served neighbours of `sim mk0_a0`, `sim tp0_0_0`, `sim zz_not_a_word`."""
    answers = [json.loads(line) for line in open(args.file)]
    assert len(answers) == 3, answers
    # mk0_a0 shares its contexts with the other five mk0_a* markers.
    hits = [h["word"] for h in answers[0]["hits"]]
    same = sum(1 for w in hits[:5] if w.startswith("mk0_a"))
    assert same >= 4, f"mk0_a0 neighbours look untrained: {hits}"
    # A pair topic's nearest neighbour is one of its two siblings.
    hits = [h["word"] for h in answers[1]["hits"]]
    assert hits[0].startswith("tp0_0_"), f"tp0_0_0 neighbours: {hits}"
    assert "unknown word" in answers[2]["error"], answers[2]
    print("planted neighbours served correctly")


def nbsp(args):
    """Both words holding U+00A0 are answered with three hits, neither itself."""
    answers = [json.loads(line) for line in open(args.file, encoding="utf-8")]
    assert len(answers) == 2, answers
    for a, word in zip(answers, ["alpha\u00a0beta", "delta\u00a0x"]):
        assert a["words"] == [word], a
        assert "error" not in a, a
        assert len(a["hits"]) == 3, a
        assert word not in [h["word"] for h in a["hits"]], a
    print("words with U+00A0 served")


def linkpred(args):
    """Each link-prediction report lost no pair and reaches the AUC gate."""
    for path in args.files:
        r = json.load(open(path))
        assert r["skipped"] == 0, f"{path}: {r['skipped']} pairs lost their nodes"
        assert r["auc"] >= args.min_auc, f"{path}: AUC {r['auc']:.4f} below {args.min_auc}"
        print(f"{path}: AUC {r['auc']:.4f} ({r['n_pos']} positives vs {r['n_neg']} negatives)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="check", required=True)
    for name, arg in [("record", "files"), ("model", "files"), ("links", "docs")]:
        sub.add_parser(name).add_argument(arg, nargs="+")
    for name in ("planted", "nbsp"):
        sub.add_parser(name).add_argument("file")
    p = sub.add_parser("counters")
    p.add_argument("files", nargs="+")
    p.add_argument("--require", nargs="+", required=True)
    p = sub.add_parser("traced")
    p.add_argument("file")
    p.add_argument("metrics", nargs="+")
    p = sub.add_parser("linkpred")
    p.add_argument("files", nargs="+")
    p.add_argument("--min-auc", type=float, required=True)
    args = parser.parse_args()
    try:
        globals()[args.check](args)
    except AssertionError as e:
        sys.exit(f"check {args.check} failed: {e}")


if __name__ == "__main__":
    main()
