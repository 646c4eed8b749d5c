"""Synthetic Italian boards-of-directors dataset.

Substitutes the proprietary 2012 registry snapshot the paper demos on
(3.6M directors, 2.15M companies).  The generator reproduces, at a
configurable scale, the structural features the SCube pipeline exercises:

* companies with sector and province/region context attributes, sampled
  from calibrated weights (:mod:`repro.data.vocab`);
* directors with gender, age and birthplace SA attributes plus a
  residence CA attribute;
* board memberships with *interlocks*: a fraction of seats are filled by
  directors already active in the same province, producing the
  shared-director edges the bipartite projection and graph clustering
  feed on;
* planted occupational gender segregation: the probability that a seat
  is held by a woman depends on the company sector and region
  (construction-like sectors male-dominated, education/health mixed,
  a north/south gradient), so scenario 1 re-discovers the paper's
  qualitative findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data import vocab
from repro.errors import ReproError
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.etl.temporal import TemporalMembership
from repro.graph.bipartite import BipartiteGraph


#: Mean extra board seats beyond the first (Poisson).
BOARD_EXTRA_MEAN = 1.6
#: Probability that a seat is filled by an existing same-province
#: director (interlock rate).
REUSE_PROBABILITY = 0.30
#: Probability that a director resides in the company's region.
LOCAL_RESIDENCE = 0.85


@dataclass
class ItalyConfig:
    """Knobs of the Italian generator."""

    n_companies: int = 3000
    seed: int = 7


@dataclass
class BoardsDataset:
    """A generated boards dataset (shared by the Italy/Estonia generators)."""

    individuals: Table
    individuals_schema: Schema
    groups: Table
    groups_schema: Schema
    membership: TemporalMembership
    name: str = "boards"
    extra: dict = field(default_factory=dict)

    @property
    def n_individuals(self) -> int:
        return len(self.individuals)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def bipartite(self, date: "int | None" = None) -> BipartiteGraph:
        """The individuals×groups bipartite graph at ``date``."""
        return BipartiteGraph.from_edges(
            self.n_individuals, self.n_groups, self.membership.snapshot(date)
        )


def _sample_weighted(rng: np.random.Generator, values: "list[str]",
                     weights: "dict[str, float]", size: int) -> "list[str]":
    probs = np.array([weights[v] for v in values], dtype=float)
    probs /= probs.sum()
    picks = rng.choice(len(values), size=size, p=probs)
    return [values[i] for i in picks]


def _age_bin(age: float) -> str:
    if age < 39:
        return "15-38"
    if age < 47:
        return "39-46"
    if age < 55:
        return "47-54"
    if age < 66:
        return "55-65"
    return "66+"


def generate_italy(config: "ItalyConfig | None" = None) -> BoardsDataset:
    """Generate the synthetic Italian boards dataset."""
    config = config or ItalyConfig()
    if config.n_companies < 1:
        raise ReproError("n_companies must be positive")
    rng = np.random.default_rng(config.seed)

    provinces = [p for p, _ in vocab.PROVINCES]
    company_sectors = _sample_weighted(
        rng, list(vocab.SECTORS), vocab.SECTOR_WEIGHTS, config.n_companies
    )
    company_provinces = _sample_weighted(
        rng, provinces, vocab.PROVINCE_WEIGHTS, config.n_companies
    )
    company_regions = [vocab.province_region(p) for p in company_provinces]
    board_sizes = 1 + rng.poisson(BOARD_EXTRA_MEAN, config.n_companies)

    # Director state, grown while filling boards.
    genders: list[str] = []
    ages: list[str] = []
    birthplaces: list[str] = []
    residences: list[str] = []
    pools: dict[str, list[int]] = {p: [] for p in provinces}
    membership: list[tuple[int, int]] = []

    birthplace_values = list(vocab.BIRTHPLACES)
    birthplace_probs = np.array(
        [vocab.BIRTHPLACE_WEIGHTS[b] for b in birthplace_values], dtype=float
    )
    birthplace_probs /= birthplace_probs.sum()

    for company in range(config.n_companies):
        sector = company_sectors[company]
        province = company_provinces[company]
        region = company_regions[company]
        female_rate = min(
            0.95,
            vocab.SECTOR_FEMALE_RATE[sector]
            * vocab.REGION_FEMALE_MULTIPLIER[region],
        )
        seated: set[int] = set()
        for _ in range(int(board_sizes[company])):
            pool = pools[province]
            reuse = pool and rng.random() < REUSE_PROBABILITY
            if reuse:
                director = int(pool[int(rng.integers(0, len(pool)))])
                if director in seated:
                    continue
            else:
                director = len(genders)
                genders.append("F" if rng.random() < female_rate else "M")
                ages.append(_age_bin(float(rng.normal(52.0, 11.0))))
                if rng.random() < 0.7 and region in birthplace_values:
                    birthplaces.append(region)
                else:
                    birthplaces.append(
                        birthplace_values[
                            int(rng.choice(len(birthplace_values),
                                           p=birthplace_probs))
                        ]
                    )
                if rng.random() < LOCAL_RESIDENCE:
                    residences.append(region)
                else:
                    residences.append(
                        vocab.REGIONS[int(rng.integers(0, len(vocab.REGIONS)))]
                    )
                pool.append(director)
            seated.add(director)
            membership.append((director, company))

    n_directors = len(genders)
    individuals = Table.from_dict(
        {
            "directorID": list(range(n_directors)),
            "gender": genders,
            "age": ages,
            "birthplace": birthplaces,
            "residence": residences,
        }
    )
    individuals_schema = Schema.build(
        segregation=["gender", "age", "birthplace"],
        context=["residence"],
        id_="directorID",
    )
    groups = Table.from_dict(
        {
            "companyID": list(range(config.n_companies)),
            "sector": company_sectors,
            "province": company_provinces,
            "region": company_regions,
        }
    )
    groups_schema = Schema.build(
        context=["sector", "province", "region"], id_="companyID"
    )
    return BoardsDataset(
        individuals=individuals,
        individuals_schema=individuals_schema,
        groups=groups,
        groups_schema=groups_schema,
        membership=TemporalMembership.from_pairs(membership),
        name="italy-synthetic",
        extra={"config": config},
    )


def italy_tabular_individuals(dataset: BoardsDataset) -> tuple[Table, Schema]:
    """Scenario-1 input: one row per board seat with the company context.

    Joins each membership pair with the director's SA attributes and the
    company's sector/province/region; the caller picks which context
    attribute serves as ``unitID`` (the demo uses the sector).
    """
    pairs = dataset.membership.snapshot()
    director_rows = np.asarray([d for d, _ in pairs], dtype=np.int64)
    company_rows = np.asarray([c for _, c in pairs], dtype=np.int64)
    ind, grp = dataset.individuals, dataset.groups
    table = Table.from_dict(
        {
            "gender": [ind.categorical("gender")[int(i)] for i in director_rows],
            "age": [ind.categorical("age")[int(i)] for i in director_rows],
            "birthplace": [
                ind.categorical("birthplace")[int(i)] for i in director_rows
            ],
            "residence": [
                ind.categorical("residence")[int(i)] for i in director_rows
            ],
            "sector": [grp.categorical("sector")[int(c)] for c in company_rows],
            "province": [
                grp.categorical("province")[int(c)] for c in company_rows
            ],
            "region": [grp.categorical("region")[int(c)] for c in company_rows],
        }
    )
    schema = Schema.build(
        segregation=["gender", "age", "birthplace"],
        context=["residence", "sector", "province", "region"],
    )
    return table, schema
