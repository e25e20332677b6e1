"""Rewrite tests/golden.json from the current program's outputs.

    PYTHONPATH=src python tests/regen_golden.py [GROUP ...]

With group names, only those groups are regenerated; the others keep
their digests.  Run it only for a change that alters output on purpose,
and name the changed calls in CHANGES.md: for each regenerated group it
prints how many digests changed and the argv of each, abridged.
"""

import json
import shlex
import sys

from test_golden import GOLDEN, GROUPS, cases, digests


def abridged(argv, width=100):
    line = shlex.join(argv)
    return line if len(line) <= width else line[:width - 3] + "..."


if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for group in sys.argv[1:] or GROUPS:
        if group not in GROUPS:
            sys.exit(f"unknown group {group!r}; groups: {', '.join(GROUPS)}")
        old, golden[group] = golden.get(group, []), digests(group)
        changed = [argv for n, (argv, _) in enumerate(cases(group))
                   if n >= len(old) or old[n] != golden[group][n]]
        print(f"{group}: {len(golden[group])} calls (was {len(old)}), "
              f"{len(changed)} changed")
        for argv in changed:
            print(f"  {abridged(argv)}")
    golden = {group: golden[group] for group in GROUPS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
