"""Seeded inputs for every workload: the A/P/C graph and the query streams.

Everything here is a pure function of ``(seed, size)``; the program only
ever sees the generated keys and edges, through
``HeteroGraph.add_nodes`` / ``add_edges`` (never ``repro.datasets``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: (authors, papers, confs, writes per author, confs per paper).
SIZES: Dict[str, Tuple[int, int, int, float, float]] = {
    "reference": (1200, 2400, 200, 8.0, 3.0),
    "toy": (60, 120, 12, 4.0, 2.0),
}

#: The four HeteSim paths every workload queries.
PATHS = ("APC", "APCPA", "CPAPC", "APA")
#: Reads after each write-read ingest.
WRITE_READ_PATHS = ("APC", "APCPA", "APA")
#: Weighted multi-path spec of the batch mix's ``combined`` queries.
COMBINED_SPEC = "APC=0.7,APAPC=0.3"
#: Every path a warm engine has halves for (the combined spec adds APAPC).
WARM_PATHS = PATHS + ("APAPC",)
TOP_K = 10
BATCH_SIZE = 64
ZIPF_EXPONENT = 1.1

TYPES = (("author", "A"), ("paper", "P"), ("conf", "C"))
RELATIONS = (
    ("writes", "author", "paper"),
    ("published_in", "paper", "conf"),
)


@dataclass
class GraphInputs:
    """Node keys per type plus the two relations' edge lists (by index)."""

    keys: Dict[str, List[str]]
    writes: np.ndarray  # (n, 2) int64: author index, paper index
    published_in: np.ndarray  # (n, 2) int64: paper index, conf index

    @property
    def num_edges(self) -> int:
        return len(self.writes) + len(self.published_in)


def _bernoulli_cells(rng, n_rows: int, n_cols: int, p: float) -> np.ndarray:
    """Each (row, col) cell independently with probability ``p``, as
    sorted ``(row, col)`` pairs, without allocating the dense grid."""
    cells = n_rows * n_cols
    count = rng.binomial(cells, p)
    flat = np.sort(rng.choice(cells, size=count, replace=False))
    return np.stack([flat // n_cols, flat % n_cols], axis=1).astype(np.int64)


def make_graph(seed: int, size: str = "reference") -> GraphInputs:
    """The reference A/P/C graph for ``seed``."""
    n_a, n_p, n_c, per_author, per_paper = SIZES[size]
    rng = np.random.default_rng([seed, 0])
    return GraphInputs(
        keys={
            "author": [f"a{i:05d}" for i in range(n_a)],
            "paper": [f"p{i:05d}" for i in range(n_p)],
            "conf": [f"c{i:04d}" for i in range(n_c)],
        },
        writes=_bernoulli_cells(rng, n_a, n_p, per_author / n_p),
        published_in=_bernoulli_cells(rng, n_p, n_c, per_paper / n_c),
    )


def build_graph(repro, inputs: GraphInputs):
    """Hand the generated nodes and edges to the program's graph API."""
    schema = repro.NetworkSchema.from_spec(TYPES, RELATIONS)
    graph = repro.HeteroGraph(schema)
    for type_name, _ in TYPES:
        graph.add_nodes(type_name, inputs.keys[type_name])
    authors, papers, confs = (
        inputs.keys["author"], inputs.keys["paper"], inputs.keys["conf"]
    )
    graph.add_edges(
        "writes", [(authors[a], papers[p]) for a, p in inputs.writes.tolist()]
    )
    graph.add_edges(
        "published_in",
        [(papers[p], confs[c]) for p, c in inputs.published_in.tolist()],
    )
    return graph


class Popularity:
    """Zipf-like source popularity over a seeded permutation of a type's
    keys: a few hot objects, then a long tail."""

    def __init__(self, rng, keys: List[str]) -> None:
        self.keys = [keys[i] for i in rng.permutation(len(keys))]
        weights = 1.0 / np.arange(1, len(keys) + 1) ** ZIPF_EXPONENT
        self.p = weights / weights.sum()

    def draw(self, rng, n: int = 1) -> List[str]:
        return [self.keys[i] for i in rng.choice(len(self.keys), n, p=self.p)]


def _type_of(code: str) -> str:
    return {"A": "author", "P": "paper", "C": "conf"}[code]


@dataclass(frozen=True)
class QuerySpec:
    """One query of the batch mix (mirrors ``repro.serve.batch.Query``)."""

    source: str
    path: str
    measure: str = "hetesim"


def make_batches(
    seed: int, inputs: GraphInputs, count: int
) -> List[List[QuerySpec]]:
    """A fixed sequence of 64-query batches: 3/4 HeteSim over the four
    paths, the rest split between pathsim (APCPA), pcrw (APC) and
    combined (APC=0.7,APAPC=0.3)."""
    rng = np.random.default_rng([seed, 1])
    popular = {
        t: Popularity(rng, inputs.keys[t]) for t in ("author", "conf")
    }
    others = (
        ("APCPA", "pathsim"),
        ("APC", "pcrw"),
        (COMBINED_SPEC, "combined"),
    )
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(BATCH_SIZE):
            if rng.random() < 0.75:
                path, measure = PATHS[rng.integers(len(PATHS))], "hetesim"
            else:
                path, measure = others[rng.integers(len(others))]
            source = popular[_type_of(path[0])].draw(rng)[0]
            batch.append(QuerySpec(source, path, measure))
        batches.append(batch)
    return batches


@dataclass(frozen=True)
class WriteOp:
    """Ingest one new paper, then read top-k for ``reader``."""

    paper: str
    authors: Tuple[str, ...]
    conf: str

    @property
    def reader(self) -> str:
        return self.authors[0]


def make_writes(seed: int, inputs: GraphInputs, count: int) -> List[WriteOp]:
    """``count`` new papers, each with 1-3 popular authors and one venue."""
    rng = np.random.default_rng([seed, 2])
    authors = Popularity(rng, inputs.keys["author"])
    confs = Popularity(rng, inputs.keys["conf"])
    ops = []
    for n in range(count):
        chosen: List[str] = []
        want = int(rng.integers(1, 4))
        while len(chosen) < want:
            key = authors.draw(rng)[0]
            if key not in chosen:
                chosen.append(key)
        ops.append(WriteOp(f"w{n:05d}", tuple(chosen), confs.draw(rng)[0]))
    return ops


@dataclass(frozen=True)
class HttpRequestSpec:
    """One request of the HTTP mix: ``/topk`` when ``target`` is None,
    else ``/query``."""

    source: str
    path: str
    target: str = ""

    @property
    def endpoint(self) -> str:
        return "/query" if self.target else "/topk"

    def body(self) -> Dict[str, object]:
        if self.target:
            return {"source": self.source, "target": self.target,
                    "path": self.path}
        return {"source": self.source, "path": self.path, "k": TOP_K}


def make_http_requests(
    seed: int, inputs: GraphInputs, count: int
) -> List[HttpRequestSpec]:
    """80% ``/topk`` (HeteSim, k=10), 20% ``/query`` pair scores."""
    rng = np.random.default_rng([seed, 3])
    popular = {
        t: Popularity(rng, inputs.keys[t]) for t in ("author", "conf")
    }
    requests = []
    for _ in range(count):
        path = PATHS[rng.integers(len(PATHS))]
        source = popular[_type_of(path[0])].draw(rng)[0]
        target = ""
        if rng.random() < 0.2:
            targets = inputs.keys[_type_of(path[-1])]
            target = targets[rng.integers(len(targets))]
        requests.append(HttpRequestSpec(source, path, target))
    return requests
