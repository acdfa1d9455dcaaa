"""Regenerate ``expected.json``: frozen report hashes and member verdicts.

    python3 perfbench/freeze.py

Only for a change meant to alter what the program reports (a behaviour
change, never an optimisation): rerun it, review the diff of
``expected.json`` and say why in the change.
"""

import json
import os
import sys
import time

import queries
import run


def main() -> int:
    deadline = time.monotonic() + 600
    cases = {}
    for workload, entries in run.CASES.items():
        for case_id, argv in entries:
            r = run.spawn({"task": "case", "argv": argv, "trace": "off"}, deadline)
            if r["rc"] != 0:
                print(f"error: {case_id} exited {r['rc']}", file=sys.stderr)
                return 1
            cases[case_id] = {k: r[k] for k in ("json_sha256", "tsv_sha256", "all_pass")}

    import worker  # imports coarsegroups; only needed for the member verdicts

    member = {}
    for bornology, text, depth in queries.member_catalogue():
        argv = ("member", "--bornology", bornology, "--set", text, "--depth", str(depth))
        rc, out, _ = worker.call_cli(argv)
        if rc != 0:
            print(f"error: {' '.join(argv)} exited {rc}", file=sys.stderr)
            return 1
        member[queries.member_key(bornology, text, depth)] = out.strip()

    path = os.path.join(run.HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"cases": cases, "member": member}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {len(cases)} cases, {len(member)} member verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
