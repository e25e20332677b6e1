"""Rewrite tests/golden.json from the current program's outputs.

    PYTHONPATH=src python tests/regen_golden.py [GROUP ...]

With group names, only those groups are regenerated; the others keep
their digests.  Run it only for a change that alters output on purpose,
and name the changed groups in CHANGES.md.
"""

import json
import sys

from test_golden import GOLDEN, GROUPS, digests

if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for group in sys.argv[1:] or GROUPS:
        if group not in GROUPS:
            sys.exit(f"unknown group {group!r}; groups: {', '.join(GROUPS)}")
        golden[group] = digests(group)
    golden = {group: golden[group] for group in GROUPS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    for group, values in golden.items():
        print(f"{group}: {len(values)} calls")
