#!/usr/bin/env python3
"""SHA-256 digests of every benchmark pool item's rendered output, and their
classification against another commit's.

    python3 tests/report_digests.py > digests.txt
    python3 tests/report_digests.py --src OTHER/src --summaries other.json
    python3 tests/report_digests.py --compare base.json head.json added.txt

For each item of the four pools in perfbench/workloads.py (read, not
edited) it runs the CLI-equivalent call of workloads.run_item and prints
one line: workload, item key and the SHA-256 of the rendered report, or of
the rendered CLI error object (its type and message) when the item raises.
Two checkouts whose outputs agree print the same lines, so `diff` of two
runs shows byte identity of every report and error over the pools.  The
last line gives the item count.  It takes a few seconds and is not
collected by pytest.  The digests depend on the machine: numpy's SIMD code
can change the last bits of a root enclosure (see perfbench/oracle.py's
RADIUS_SLACK), so compare runs made on the same machine.

--src runs the library of another checkout (its src directory) under this
script.  --summaries also writes each item's digest and its
perfbench/oracle.py summary (read, not edited) to a JSON file.  --compare
reads two such files, a base and a head, and the lines a change adds to
CHANGES.md.  Each item whose digest changed is classified with
oracle.compare, the base's summary as the reference: "match" (the same
outcome, counts and integers, no radius grown), "new" (the base raised, the
head completes) or "mismatch".  It prints one line per changed item and
exits 1 when an item is named in no added line, in backquotes as its key
prints here (`cuspidal n=9`), or when a mismatched item is named in no
added line that also says "mismatch" and why.
"""

import argparse
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))

import oracle  # noqa: E402


def run_pools(src: pathlib.Path):
    """Yield (workload, key, digest, summary) for every pool item, with the
    library imported from src."""
    sys.path.insert(0, str(src))
    import workloads
    from siegelcert.errors import SiegelcertError
    from siegelcert.report import render

    for name, workload in workloads.WORKLOADS.items():
        for item in workload.pool:
            workloads.clear_caches()
            try:
                doc = workloads.run_item(item)
                text, summary = render(doc), oracle.summarize(doc)
            except (SiegelcertError, ValueError) as exc:
                text = render({"error": {"stage": type(exc).__name__,
                                         "message": str(exc)}})
                summary = oracle.summarize(None, exc)
            digest = hashlib.sha256(text.encode()).hexdigest()
            yield name, item.key, digest, summary


def classify(base: dict, head: dict, added: str) -> tuple[list, int]:
    """The changed items of two --summaries files, written by this script
    over the same pools, as (verdict, kind, workload, key, diffs) rows, and
    how many of them fail: verdict is "named" or "unnamed", kind is
    oracle.compare's class."""
    rows, failed = [], 0
    for ident, h in sorted(head.items()):
        b = base[ident]
        if b["digest"] == h["digest"]:
            continue
        workload, key = ident.split("\t")
        kind, diffs = oracle.compare(b["summary"], h["summary"])
        naming = [line for line in added.splitlines() if f"`{key}`" in line]
        if kind == "mismatch":
            naming = [line for line in naming if "mismatch" in line]
        failed += not naming
        rows.append(("named" if naming else "unnamed", kind, workload, key,
                     diffs))
    return rows, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=pathlib.Path, default=ROOT / "src")
    ap.add_argument("--summaries", type=pathlib.Path)
    ap.add_argument("--compare", nargs=3, type=pathlib.Path,
                    metavar=("BASE", "HEAD", "ADDED"))
    args = ap.parse_args()
    if args.compare:
        base, head = (json.loads(p.read_text()) for p in args.compare[:2])
        rows, failed = classify(base, head, args.compare[2].read_text())
        for row in rows:
            print(*row[:4], "; ".join(row[4]), sep="\t")
        print(f"{len(rows)} of {len(head)} items changed, {failed} failing")
        return 1 if failed else 0
    summaries = {}
    for name, key, digest, summary in run_pools(args.src):
        print(f"{name}\t{key}\t{digest}", flush=True)
        summaries[f"{name}\t{key}"] = {"digest": digest, "summary": summary}
    print(f"{len(summaries)} items")
    if args.summaries:
        args.summaries.write_text(json.dumps(summaries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
