"""A small census-style schools dataset for the quickstart.

Two cities, each with a handful of schools: city "Rivertown" is built
segregated (minority students concentrated in two schools), city
"Lakeside" integrated (even shares everywhere).  Small enough to eyeball,
deterministic given the seed, and shaped like the classical school
segregation studies the index literature comes from.
"""

from __future__ import annotations

import numpy as np

from repro.etl.schema import Schema
from repro.etl.table import Table

STUDENTS_PER_SCHOOL = 120
SCHOOLS_PER_CITY = 6
SEED = 3
MINORITY_SHARE = 0.3


def generate_schools() -> tuple[Table, Schema]:
    """Generate the two-city schools table.

    Returns a table with SA attributes ``ethnicity`` and ``sex``, the CA
    attribute ``city`` and the ``school`` unit column, plus its schema.
    """
    rng = np.random.default_rng(SEED)
    n_schools = SCHOOLS_PER_CITY
    share = MINORITY_SHARE

    # Rivertown: minority concentrated in the first two schools.
    concentrated = [0.0] * n_schools
    concentrated[0] = min(0.95, share * n_schools / 2)
    concentrated[1] = min(0.95, share * n_schools / 2)
    # Lakeside: even shares.
    even = [share] * n_schools

    ethnicity: list[str] = []
    sex: list[str] = []
    city: list[str] = []
    school: list[int] = []
    school_id = 0
    for city_name, shares in (("Rivertown", concentrated), ("Lakeside", even)):
        for local_share in shares:
            n_minority = int(round(STUDENTS_PER_SCHOOL * local_share))
            for k in range(STUDENTS_PER_SCHOOL):
                ethnicity.append("minority" if k < n_minority else "majority")
                sex.append("F" if rng.random() < 0.5 else "M")
                city.append(city_name)
                school.append(school_id)
            school_id += 1

    table = Table.from_dict(
        {
            "ethnicity": ethnicity,
            "sex": sex,
            "city": city,
            "school": school,
        }
    )
    schema = Schema.build(
        segregation=["ethnicity", "sex"],
        context=["city"],
        unit="school",
    )
    return table, schema
