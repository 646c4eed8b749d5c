"""Every text file the package reads or writes is UTF-8, whatever the locale.

A subprocess runs under ``-X warn_default_encoding -W
error::EncodingWarning``, so any ``open`` / ``read_text`` /
``write_text`` that leaves the encoding to the locale raises.  It
round-trips non-ASCII values through the CSV writer and reader, the
HTML report and a snapshot dump and open, reads a CSV whose header
starts with a byte-order mark against a schema, and writes a synthetic
CSV.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_ROUND_TRIPS = """
import sys
from pathlib import Path

from repro.cube.builder import build_cube
from repro.cube.cube import check_same_cells
from repro.data.synthetic import write_random_final_table_csv
from repro.etl import (
    CategoricalColumn, IntColumn, MultiValuedColumn, Schema, Table,
    stream_csv, write_table,
)
from repro.itemsets.transactions import TransactionDatabase
from repro.report.html import cube_to_html
from repro.store.snapshot import dump_snapshot, open_snapshot

root = Path(sys.argv[1])
n = 60
table = Table({
    "g": CategoricalColumn.from_values(
        ["Società" if i % 3 else "Tõnu" for i in range(n)]),
    "city": CategoricalColumn.from_values(
        ["Tallinn" if i % 2 else "Città" for i in range(n)]),
    "mv": MultiValuedColumn.from_values(
        [{"Società", "Tõnu"} if i % 4 else {"è"} for i in range(n)]),
    "unitID": IntColumn([i % 5 for i in range(n)]),
})
schema = Schema.build(segregation=["g"], context=["city", "mv"],
                      unit="unitID", multi_valued=["mv"])

write_table(table, root / "t.csv")
(back,) = stream_csv(root / "t.csv", schema=schema)
for name in table.names:
    assert back.column(name).values() == table.column(name).values(), name

cube = build_cube(back, schema, min_population=1, min_minority=1)
html = cube_to_html(cube, root / "cube.html").read_bytes().decode("utf-8")
assert "Società" in html and "Tõnu" in html

dump_snapshot(cube, root / "snap")
opened = open_snapshot(root / "snap")
assert check_same_cells(cube, opened, atol=0.0) == []
assert "Società" in {opened.dictionary.item(i).value
                     for i in range(len(opened.dictionary))}

bom = root / "bom.csv"
bom.write_bytes("\\ufeffg,city,mv,unitID\\nTõnu,Città,è|Società,0\\n"
                .encode("utf-8"))
(chunk,) = stream_csv(bom, schema=schema)
assert chunk.names == ["g", "city", "mv", "unitID"], chunk.names
assert chunk.multivalued("mv").values() == [frozenset({"è", "Società"})]
TransactionDatabase.from_chunks([chunk], schema)

synthetic = write_random_final_table_csv(root / "synthetic.csv", 20, 3)
assert len(next(stream_csv(root / "synthetic.csv", schema=synthetic))) == 20
print("ok")
"""


def test_text_files_are_utf8_under_any_locale(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-c", _ROUND_TRIPS, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
