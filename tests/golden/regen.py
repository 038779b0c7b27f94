"""Rewrite digests.json from the cases of cases.py, run against src/ of this checkout,
and print which cases it added, removed or changed against the file it replaces, with
the recorded fields that moved for each changed case.

    python tests/golden/regen.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import cases  # noqa: E402  (after src/ is on the path)

old = json.loads(cases.DIGESTS.read_text(encoding="utf-8")) if cases.DIGESTS.exists() else {}
records = {name: cases.run(name) for name in cases.CASES}
cases.DIGESTS.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8")
print(f"wrote {len(records)} records to {cases.DIGESTS}")
for name in sorted(records.keys() - old.keys()):
    print(f"added: {name}")
for name in sorted(old.keys() - records.keys()):
    print(f"removed: {name}")
for name in sorted(records.keys() & old.keys()):
    moved = [field for field in records[name] if records[name][field] != old[name].get(field)]
    if moved:
        print(f"changed: {name} ({', '.join(sorted(moved))})")
