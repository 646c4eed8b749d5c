"""Synthetic Estonian boards dataset with temporal membership.

Substitutes the paper's 20-year Estonian registry (440K directors, 340K
companies).  Beyond the Italian generator's structure, memberships carry
validity intervals over ``[start_year, end_year)`` and the planted
gender mix *drifts*: the female board-seat share rises over the years
while the sector bias softens, so the temporal benchmark (E9) shows the
declining segregation trend such registries exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data import vocab
from repro.data.italy import BoardsDataset, _age_bin, _sample_weighted
from repro.errors import ReproError
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.etl.temporal import Interval, MembershipEdge, TemporalMembership


#: Companies are founded in ``[FIRST_YEAR, LAST_YEAR)``.
FIRST_YEAR = 1995
LAST_YEAR = 2015
#: Mean extra board seats beyond the first (Poisson).
BOARD_EXTRA_MEAN = 1.2
#: Probability that a seat is filled by an existing same-county director.
REUSE_PROBABILITY = 0.25
#: Female share of new seats in the first and last year (linear drift).
FEMALE_RATE_START = 0.18
FEMALE_RATE_END = 0.35
#: Strength of the sector bias in the first and last year: 1 keeps the
#: full per-sector spread, 0 flattens all sectors to the base rate.
BIAS_START = 1.0
BIAS_END = 0.45
#: Mean membership duration in years (geometric).
MEAN_DURATION = 6.0


@dataclass
class EstoniaConfig:
    """Knobs of the Estonian temporal generator."""

    n_companies: int = 2500
    seed: int = 11


def _female_rate(sector: str, year: int) -> float:
    """Planted probability that a seat created in ``year`` is female."""
    progress = (year - FIRST_YEAR) / (LAST_YEAR - FIRST_YEAR)
    base = FEMALE_RATE_START + (FEMALE_RATE_END - FEMALE_RATE_START) * progress
    bias = BIAS_START + (BIAS_END - BIAS_START) * progress
    sector_offset = (
        vocab.SECTOR_FEMALE_RATE[sector]
        - float(np.mean(list(vocab.SECTOR_FEMALE_RATE.values())))
    )
    return float(min(0.95, max(0.02, base + bias * sector_offset)))


def generate_estonia(config: "EstoniaConfig | None" = None) -> BoardsDataset:
    """Generate the synthetic Estonian temporal boards dataset."""
    config = config or EstoniaConfig()
    rng = np.random.default_rng(config.seed)

    counties = list(vocab.ESTONIAN_COUNTIES)
    county_weights = {c: 1.0 for c in counties}
    county_weights["Harju"] = 8.0   # Tallinn
    county_weights["Tartu"] = 3.0

    sectors = _sample_weighted(
        rng, list(vocab.SECTORS), vocab.SECTOR_WEIGHTS, config.n_companies
    )
    company_counties = _sample_weighted(
        rng, counties, county_weights, config.n_companies
    )
    founded = rng.integers(FIRST_YEAR, LAST_YEAR, config.n_companies)
    board_sizes = 1 + rng.poisson(BOARD_EXTRA_MEAN, config.n_companies)

    genders: list[str] = []
    ages: list[str] = []
    birthplaces: list[str] = []
    pools: dict[str, list[int]] = {c: [] for c in counties}
    edges: list[MembershipEdge] = []

    for company in range(config.n_companies):
        sector = sectors[company]
        county = company_counties[company]
        start_year = int(founded[company])
        seated: set[int] = set()
        for _ in range(int(board_sizes[company])):
            pool = pools[county]
            reuse = pool and rng.random() < REUSE_PROBABILITY
            if reuse:
                director = int(pool[int(rng.integers(0, len(pool)))])
                if director in seated:
                    continue
            else:
                director = len(genders)
                rate = _female_rate(sector, start_year)
                genders.append("F" if rng.random() < rate else "M")
                ages.append(_age_bin(float(rng.normal(47.0, 12.0))))
                birthplaces.append(
                    county if rng.random() < 0.8 else "foreign"
                )
                pool.append(director)
            seated.add(director)
            begin = start_year + int(rng.integers(0, 3))
            duration = 1 + int(rng.geometric(1.0 / MEAN_DURATION))
            end = begin + duration
            if begin >= LAST_YEAR:
                begin = LAST_YEAR - 1
            if end > LAST_YEAR + 5:
                end = LAST_YEAR + 5
            edges.append(
                MembershipEdge(director, company, Interval(begin, end))
            )

    n_directors = len(genders)
    individuals = Table.from_dict(
        {
            "directorID": list(range(n_directors)),
            "gender": genders,
            "age": ages,
            "birthplace": birthplaces,
        }
    )
    individuals_schema = Schema.build(
        segregation=["gender", "age", "birthplace"], id_="directorID"
    )
    groups = Table.from_dict(
        {
            "companyID": list(range(config.n_companies)),
            "sector": sectors,
            "county": company_counties,
        }
    )
    groups_schema = Schema.build(context=["sector", "county"], id_="companyID")
    return BoardsDataset(
        individuals=individuals,
        individuals_schema=individuals_schema,
        groups=groups,
        groups_schema=groups_schema,
        membership=TemporalMembership(edges),
        name="estonia-synthetic",
        extra={"config": config},
    )


def estonia_snapshot_table(
    dataset: BoardsDataset, year: int
) -> tuple[Table, Schema]:
    """Scenario-1-style seat table for one snapshot year (sector = unit).

    One row per membership valid in ``year``: director SA attributes plus
    the company's sector (unit) and county (context).
    """
    pairs = dataset.membership.snapshot(year)
    if not pairs:
        raise ReproError(f"no membership is valid in year {year}")
    ind, grp = dataset.individuals, dataset.groups
    table = Table.from_dict(
        {
            "gender": [ind.categorical("gender")[d] for d, _ in pairs],
            "age": [ind.categorical("age")[d] for d, _ in pairs],
            "county": [grp.categorical("county")[c] for _, c in pairs],
            "sector": [grp.categorical("sector")[c] for _, c in pairs],
        }
    )
    schema = Schema.build(
        segregation=["gender", "age"],
        context=["county", "sector"],
    )
    return table, schema
