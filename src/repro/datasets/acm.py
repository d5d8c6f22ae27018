"""Synthetic ACM-like bibliographic network (substitute for the ACM crawl).

The paper's ACM dataset (12K papers / 17K authors over 14 conferences,
crawled from the ACM digital library) is proprietary, so this module
generates a seeded synthetic network over the *same schema* (Fig. 3a) with
the *planted structure* every ACM-based experiment depends on:

* 14 conferences grouped into research areas, each with a home community
  of authors, area-specific term and subject vocabularies, and
  conference-specific affiliation preferences;
* cross-area author overlap concentrated inside the "data" area, so
  conference-similarity queries (CVPAPVC) surface KDD ~ {SIGMOD, VLDB,
  WWW, CIKM} as in Table 2;
* planted personas mirroring the structural roles of the paper's named
  researchers (see :data:`PERSONAS`):

  - one *star* per conference with a dominating publication record there
    (the "influential researcher" of Tables 1-3 and Fig. 6);
  - the KDD star is the *hub author* (C. Faloutsos analogue): heavily
    co-authored with a group of *students*, with signature terms and
    subjects for the profiling task (Table 1);
  - *broad* authors (P. Yu / J. Han analogues) with large but spread-out
    records -- they top path-instance counts (PathSim) but not
    distribution cosines (HeteSim) in Table 4;
  - *peer* authors (S. Parthasarathy / X. Yan analogues) whose conference
    distribution matches the hub's shape at smaller volume -- HeteSim's
    top similar authors in Table 4 / Fig. 7;
  - a *group* author (C. Aggarwal analogue) with a moderate own record but
    prolific co-authors -- top of the CVPAPA ranking in Table 7 and, via
    low-dilution solo counts of the broad authors, the mechanism behind
    PCRW's self-maximum violation in Table 4;
  - *young* authors (Luo Si / Yan Chen analogues) publishing exclusively
    in one conference -- PCRW's APVC score saturates at 1.0 for them
    while the CVPA direction is tiny (Table 3's conflict).

Because every evaluated claim is about this structure rather than ACM's
exact counts, the substitution preserves the behaviour the experiments
measure (see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hin.graph import HeteroGraph
from .schemas import acm_schema

__all__ = ["AcmNetwork", "make_acm_network", "CONFERENCES", "AREAS", "PERSONAS"]

#: The 14 ACM conferences of Section 5.1, grouped into research areas.
AREAS: Dict[str, Tuple[str, ...]] = {
    "data": ("KDD", "SIGMOD", "VLDB", "WWW", "CIKM", "SIGIR"),
    "theory": ("SODA", "STOC", "SPAA", "COLT"),
    "systems": ("SOSP", "SIGCOMM", "MobiCOMM"),
    "ml": ("ICML",),
}

CONFERENCES: Tuple[str, ...] = tuple(
    conf for confs in AREAS.values() for conf in confs
)

#: Persona key -> author node key.  The roles mirror the named researchers
#: of the paper's case studies (see module docstring).
PERSONAS: Dict[str, str] = {
    "hub_author": "KDD-star",
    "broad_author_1": "broad-author-1",
    "broad_author_2": "broad-author-2",
    "group_author": "group-author",
    "peer_author_1": "peer-author-1",
    "peer_author_2": "peer-author-2",
    "young_sigir": "SIGIR-young",
    "young_sigcomm": "SIGCOMM-young",
}

#: Signature terms planted on the hub author's papers (Table 1, APT).
HUB_TERMS: Tuple[str, ...] = ("mining", "patterns", "scalable", "graphs", "social")

#: ACM-category subject labels per area (Table 1/2, APS and CVPS).
_AREA_SUBJECTS: Dict[str, Tuple[str, ...]] = {
    "data": (
        "H.2 (database management)",
        "H.3 (information storage and retrieval)",
        "E.2 (data storage representations)",
        "G.3 (probability and statistics)",
        "H.1 (models and principles)",
    ),
    "theory": (
        "F.2 (analysis of algorithms)",
        "G.2 (discrete mathematics)",
        "G.3 (probability and statistics)",
    ),
    "systems": (
        "C.2 (computer-communication networks)",
        "D.4 (operating systems)",
    ),
    "ml": (
        "I.2 (artificial intelligence)",
        "I.5 (pattern recognition)",
        "G.3 (probability and statistics)",
    ),
}


@dataclass
class AcmNetwork:
    """A generated ACM-like network plus the ground truth for evaluation.

    Attributes
    ----------
    graph:
        The :class:`~repro.hin.graph.HeteroGraph` (schema of Fig. 3a).
    conferences:
        The 14 conference keys, in canonical order.
    area_of:
        Conference key -> research-area name.
    personas:
        Persona role -> author key (see :data:`PERSONAS`).
    publication_counts:
        ``author -> conference -> number of papers`` ground truth used by
        the Fig. 6 rank-difference study.
    home_conference:
        Author key -> the conference whose community the author was
        created in (the planted "home" used as a clustering/label
        ground truth).
    """

    graph: HeteroGraph
    conferences: Tuple[str, ...]
    area_of: Dict[str, str]
    personas: Dict[str, str]
    publication_counts: Dict[str, Dict[str, int]] = field(repr=False)
    home_conference: Dict[str, str] = field(repr=False, default_factory=dict)

    def author_area(self, author: str) -> str:
        """Research area of an author's home community."""
        return self.area_of[self.home_conference[author]]

    def ground_truth_ranking(self, conference: str, top_n: int = 200) -> List[str]:
        """Authors ranked by publication count in ``conference`` (desc).

        Ties break by author key; this is the Fig. 6 ground truth.
        """
        entries = [
            (author, counts.get(conference, 0))
            for author, counts in self.publication_counts.items()
            if counts.get(conference, 0) > 0
        ]
        entries.sort(key=lambda item: (-item[1], item[0]))
        return [author for author, _ in entries[:top_n]]


class _AcmBuilder:
    """Stateful generator; one instance per :func:`make_acm_network` call."""

    def __init__(
        self,
        seed: int,
        venues_per_conference: int,
        papers_per_venue: int,
        authors_per_community: int,
        with_citations: bool = False,
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.with_citations = with_citations
        self.graph = HeteroGraph(acm_schema(with_citations=with_citations))
        self.venues_per_conference = venues_per_conference
        self.papers_per_venue = papers_per_venue
        self.authors_per_community = authors_per_community
        self.area_of: Dict[str, str] = {
            conf: area for area, confs in AREAS.items() for conf in confs
        }
        self.community: Dict[str, List[str]] = {}
        self.area_terms: Dict[str, List[str]] = {}
        self.shared_terms: List[str] = []
        self.affiliations: List[str] = []
        self.favored_affiliation: Dict[str, str] = {}
        self.publication_counts: Dict[str, Dict[str, int]] = {}
        self.home_conference: Dict[str, str] = {}
        self.papers_by_conference: Dict[str, List[str]] = {
            conf: [] for conf in CONFERENCES
        }
        self._paper_serial = 0

    # -- scaffolding ---------------------------------------------------
    def build_world(self) -> None:
        for conf in CONFERENCES:
            self.graph.add_node("conference", conf)
            for year in range(self.venues_per_conference):
                venue = f"{conf}'{year + 5:02d}"
                self.graph.add_edge("belongs_to", venue, conf)
        for area in AREAS:
            self.area_terms[area] = [f"{area}-term-{i:02d}" for i in range(30)]
        self.shared_terms = [f"common-term-{i:02d}" for i in range(40)]
        self.shared_terms.extend(HUB_TERMS)
        self.affiliations = [f"affil-{i:02d}" for i in range(30)]
        for idx, conf in enumerate(CONFERENCES):
            self.favored_affiliation[conf] = self.affiliations[idx % len(self.affiliations)]
        for conf in CONFERENCES:
            members = [
                f"{conf}.auth{i:02d}" for i in range(self.authors_per_community)
            ]
            self.community[conf] = members
            for author in members:
                self._register_author(author, conf)

    def _register_author(self, author: str, home_conf: str) -> None:
        self.graph.add_node("author", author)
        self.publication_counts.setdefault(author, {})
        self.home_conference.setdefault(author, home_conf)
        if self.rng.random() < 0.7:
            affiliation = self.favored_affiliation[home_conf]
        else:
            affiliation = self.affiliations[self.rng.integers(len(self.affiliations))]
        self.graph.add_edge("affiliated_with", author, affiliation)

    # -- paper creation ------------------------------------------------
    def add_paper(
        self,
        conference: str,
        authors: Sequence[str],
        terms: Optional[Sequence[str]] = None,
        subjects: Optional[Sequence[str]] = None,
        venue: Optional[str] = None,
    ) -> str:
        """Create one paper with all its edges; returns the paper key."""
        self._paper_serial += 1
        paper = f"paper-{self._paper_serial:05d}"
        if venue is None:
            year = int(self.rng.integers(self.venues_per_conference))
            venue = f"{conference}'{year + 5:02d}"
        self.graph.add_edge("published_in", paper, venue)
        self.papers_by_conference[conference].append(paper)
        for author in authors:
            self.graph.add_edge("writes", author, paper)
            counts = self.publication_counts.setdefault(author, {})
            counts[conference] = counts.get(conference, 0) + 1
        area = self.area_of[conference]
        if terms is None:
            terms = self._sample_terms(area)
        for term in terms:
            self.graph.add_edge("contains", paper, term)
        if subjects is None:
            subjects = self._sample_subjects(area)
        for subject in subjects:
            self.graph.add_edge("has_subject", paper, subject)
        return paper

    def _sample_terms(self, area: str, count: int = 5) -> List[str]:
        terms: List[str] = []
        vocab = self.area_terms[area]
        for _ in range(count):
            if self.rng.random() < 0.7:
                terms.append(vocab[self.rng.integers(len(vocab))])
            else:
                terms.append(
                    self.shared_terms[self.rng.integers(len(self.shared_terms))]
                )
        return list(dict.fromkeys(terms))  # dedupe, keep order

    def _sample_subjects(self, area: str) -> List[str]:
        pool = _AREA_SUBJECTS[area]
        count = 1 + int(self.rng.random() < 0.4)
        picks = self.rng.choice(len(pool), size=min(count, len(pool)), replace=False)
        return [pool[int(i)] for i in picks]

    def _sample_background_authors(self, conference: str) -> List[str]:
        """1-3 authors, mostly from the home community (area overlap for
        'data' keeps CVPAPVC conference similarity realistic)."""
        count = 1 + int(self.rng.integers(3))
        area = self.area_of[conference]
        area_confs = [c for c in AREAS[area] if c != conference]
        chosen: List[str] = []
        for _ in range(count):
            roll = self.rng.random()
            if roll < 0.75 or not area_confs:
                pool = self.community[conference]
            elif roll < 0.95:
                other = area_confs[self.rng.integers(len(area_confs))]
                pool = self.community[other]
            else:
                any_conf = CONFERENCES[self.rng.integers(len(CONFERENCES))]
                pool = self.community[any_conf]
            chosen.append(pool[self.rng.integers(len(pool))])
        return list(dict.fromkeys(chosen))

    def build_background_papers(self) -> None:
        for conf in CONFERENCES:
            for year in range(self.venues_per_conference):
                venue = f"{conf}'{year + 5:02d}"
                for _ in range(self.papers_per_venue):
                    self.add_paper(
                        conf,
                        self._sample_background_authors(conf),
                        venue=venue,
                    )

    # -- personas --------------------------------------------------------
    def build_personas(self) -> Dict[str, str]:
        personas = dict(PERSONAS)
        self._build_stars()
        self._build_hub_and_students()
        self._build_broad_authors()
        self._build_peer_authors()
        self._build_kdd_seniors()
        self._build_group_author()
        self._build_young_authors()
        return personas

    def _build_stars(self) -> None:
        """One dominant author per conference (Fig. 6 / Table 3 anchors).

        Distinct counts (30, 29, 28, ...) keep ground-truth ranks unique.
        The KDD star's papers are created in :meth:`_build_hub_and_students`.
        """
        for rank, conf in enumerate(CONFERENCES):
            star = f"{conf}-star"
            self._register_author(star, conf)
            if conf == "KDD":
                continue
            for _ in range(30 - rank % 5):
                coauthors = [star]
                if self.rng.random() < 0.5:
                    pool = self.community[conf]
                    coauthors.append(pool[self.rng.integers(len(pool))])
                self.add_paper(conf, coauthors)
            # A couple of same-area appearances for realism.
            area_confs = [c for c in AREAS[self.area_of[conf]] if c != conf]
            for other in area_confs[:2]:
                self.add_paper(other, [star])

    def _build_hub_and_students(self) -> None:
        """The C. Faloutsos analogue: 32 KDD papers, signature terms and
        subjects, a student group co-authoring most of them."""
        hub = "KDD-star"
        students = [f"student-{i}" for i in range(1, 6)]
        for student in students:
            self._register_author(student, "KDD")
        hub_subjects = [
            "H.2 (database management)",
            "E.2 (data storage representations)",
        ]
        for paper_idx in range(34):
            coauthors = [hub]
            # 2-3 students on most papers: the heavy-co-authorship pattern
            # that dilutes PCRW's backward probability (Table 4).
            n_students = 2 + int(self.rng.random() < 0.5)
            picks = self.rng.choice(len(students), size=n_students, replace=False)
            coauthors.extend(students[int(i)] for i in picks)
            terms = list(
                self.rng.choice(HUB_TERMS, size=3, replace=False)
            ) + self._sample_terms("data", count=2)
            subjects = hub_subjects if paper_idx % 2 == 0 else [hub_subjects[0]]
            self.add_paper("KDD", coauthors, terms=terms, subjects=subjects)
        # Spillover into the neighbouring data conferences (Table 1 APVC:
        # KDD first, then SIGMOD / VLDB / CIKM / WWW).
        for conf, count in (("SIGMOD", 5), ("VLDB", 4), ("CIKM", 2), ("WWW", 2)):
            for _ in range(count):
                terms = list(
                    self.rng.choice(HUB_TERMS, size=2, replace=False)
                ) + self._sample_terms("data", count=3)
                self.add_paper(conf, [hub], terms=terms, subjects=[hub_subjects[0]])

    def _build_broad_authors(self) -> None:
        """P. Yu / J. Han analogues: big, spread-out, low-co-authorship
        records.  Solo papers keep their PCRW backward probability high,
        reproducing the Table 4 self-maximum violation."""
        spread = {
            "KDD": 20, "SIGMOD": 12, "VLDB": 12, "WWW": 8,
            "CIKM": 8, "SIGIR": 6, "ICML": 6,
        }
        for name in ("broad-author-1", "broad-author-2"):
            self._register_author(name, "KDD")
            for conf, count in spread.items():
                for _ in range(count):
                    self.add_paper(conf, [name])

    def _build_peer_authors(self) -> None:
        """Parthasarathy / Xifeng Yan analogues: the hub's conference
        distribution in miniature (Fig. 7's 'closest distribution')."""
        for name in ("peer-author-1", "peer-author-2"):
            self._register_author(name, "KDD")
            for conf, count in (("KDD", 10), ("SIGMOD", 1), ("VLDB", 1)):
                for _ in range(count):
                    self.add_paper(conf, [name])

    def _build_group_author(self) -> None:
        """C. Aggarwal analogue: moderate own record, prolific co-author
        group (tops CVPAPA in Table 7)."""
        name = "group-author"
        self._register_author(name, "KDD")
        heavy_coauthors = [
            "broad-author-1", "broad-author-2", "KDD-star",
            "kdd-senior-1", "kdd-senior-2", "kdd-senior-3", "kdd-senior-4",
        ]
        for idx in range(13):
            # Two prolific co-authors per paper: the wide, active co-author
            # group is what lifts the CVPAPA ranking (Table 7).
            first = heavy_coauthors[idx % len(heavy_coauthors)]
            second = heavy_coauthors[(idx + 3) % len(heavy_coauthors)]
            self.add_paper("KDD", [name, first, second])
        for conf in ("SIGMOD", "CIKM"):
            self.add_paper(conf, [name, "broad-author-1"])

    def _build_young_authors(self) -> None:
        """Luo Si / Yan Chen analogues: everything in one conference, so
        PCRW's forward score saturates at 1.0 (Table 3)."""
        for conf in ("SIGIR", "SIGCOMM"):
            name = f"{conf}-young"
            self._register_author(name, conf)
            for _ in range(8):
                coauthors = [name]
                if self.rng.random() < 0.4:
                    pool = self.community[conf]
                    coauthors.append(pool[self.rng.integers(len(pool))])
                self.add_paper(conf, coauthors)

    def build_citations(self, citations_per_paper: float) -> None:
        """Add the ``cites`` relation: each paper references earlier
        papers, mostly from its own research area."""
        all_papers: List[Tuple[str, str]] = [
            (paper, conf)
            for conf in CONFERENCES
            for paper in self.papers_by_conference[conf]
        ]
        by_area: Dict[str, List[str]] = {area: [] for area in AREAS}
        for paper, conf in all_papers:
            by_area[self.area_of[conf]].append(paper)
        every_paper = [paper for paper, _ in all_papers]
        for paper, conf in all_papers:
            area = self.area_of[conf]
            n_refs = int(self.rng.poisson(citations_per_paper))
            for _ in range(n_refs):
                if self.rng.random() < 0.8:
                    pool = by_area[area]
                else:
                    pool = every_paper
                cited = pool[int(self.rng.integers(len(pool)))]
                if cited != paper:
                    self.graph.add_edge("cites", paper, cited)

    def _build_kdd_seniors(self) -> None:
        """Extra high-record KDD authors (Mannila / Smyth / Kumar
        analogues) so Tables 2 and 7 have a populated top-10."""
        for idx, count in enumerate((20, 18, 17, 16), start=1):
            name = f"kdd-senior-{idx}"
            self._register_author(name, "KDD")
            for _ in range(count):
                coauthors = [name]
                if self.rng.random() < 0.3:
                    pool = self.community["KDD"]
                    coauthors.append(pool[self.rng.integers(len(pool))])
                self.add_paper("KDD", coauthors)
            self.add_paper("SIGMOD", [name])
            self.add_paper("ICML", [name])


def make_acm_network(
    seed: int = 0,
    venues_per_conference: int = 5,
    papers_per_venue: int = 30,
    authors_per_community: int = 25,
    with_citations: bool = False,
    citations_per_paper: float = 3.0,
) -> AcmNetwork:
    """Generate the synthetic ACM-like network (see module docstring).

    Deterministic for a fixed ``seed``.  Default sizes: 14 conferences,
    70 venues, ~2600 papers, ~370 authors -- laptop-scale while preserving
    every planted structure the experiments rely on.

    ``with_citations=True`` adds a paper-to-paper ``cites`` relation
    (~``citations_per_paper`` references each, ~80% inside the citing
    paper's own research area) enabling citation-based relevance paths
    such as ``["writes", "cites", "writes^-1"]`` (authors citing
    authors).  The paper's own experiments do not use citations, so the
    default stays off and the experiment shapes are unaffected.
    """
    builder = _AcmBuilder(
        seed=seed,
        venues_per_conference=venues_per_conference,
        papers_per_venue=papers_per_venue,
        authors_per_community=authors_per_community,
        with_citations=with_citations,
    )
    builder.build_world()
    builder.build_background_papers()
    personas = builder.build_personas()
    if with_citations:
        builder.build_citations(citations_per_paper)
    return AcmNetwork(
        graph=builder.graph,
        conferences=CONFERENCES,
        area_of=dict(builder.area_of),
        personas=personas,
        publication_counts=builder.publication_counts,
        home_conference=builder.home_conference,
    )
