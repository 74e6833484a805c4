"""Record the eigensolver reference used by the oracle checks.

    python3 bench/make_reference.py

Writes bench/oracle_reference.json: exact_splitting (dE and its error
estimate) at eta = 0.15 + 0.0005 i, i = 0..700, the range the float64
eigensolver resolves.  The committed file was recorded from the code as it
stood when the benchmark was defined; regenerate it only on purpose.
"""

from __future__ import annotations

import json

import common


def main() -> None:
    common.require_source()
    import doublewell

    rows = []
    for i in range(701):
        eta = 0.15 + 0.0005 * i
        splitting, estimate = doublewell.exact_splitting(doublewell.from_eta(eta))
        rows.append([eta, splitting, estimate])
    head = json.dumps({"machine": common.machine_record(), "columns": ["eta", "dE", "estimate"]})
    body = ",\n".join(json.dumps(row) for row in rows)
    path = common.ROOT / "bench" / "oracle_reference.json"
    path.write_text(f'{head[:-1]}, "rows": [\n{body}\n]}}\n')
    print(f"wrote {len(rows)} rows to {path}")


if __name__ == "__main__":
    main()
