"""A DBLP-shaped synthetic bibliographic dataset.

The paper's DBLP dump (26M triples) is neither redistributable nor
laptop-sized; this generator reproduces the *structural regime* the paper's
algorithms are sensitive to (docs/architecture.md "Documented
deviations"):

* very few classes and relations → tiny summary graph;
* very many V-vertices (titles, names, years) → large keyword index;
* publications connected to people and venues → multi-hop interpretations.

Schema::

    Article ⊑ Publication,  InProceedings ⊑ Publication
    author(Publication → Person)           cites(Publication → Publication)
    publishedIn(Article → Journal)         presentedAt(InProceedings → Conference)
    title/year on Publication, name on Person/Journal/Conference

Anchors (fixed at every scale): the authors and venues listed in
:mod:`repro.datasets.vocab`, plus one "X-Media" project linked to anchor
publications — the workloads rely on them.

Ambiguity sources (the regime Fig. 4 differentiates the cost functions on):

* a sparse ``editor`` relation with the *same shape* as ``author`` — under
  pure path length (C1) the two interpretations tie, while popularity (C2)
  prefers the far more frequent ``author``;
* decoy entities whose labels *contain* an anchor term but are longer
  ("Ana Cimiano Rivera", "Annual ICDE Workshops") — structurally identical
  interpretations that only the matching score ``sm(n)`` (C3) can demote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.datasets import vocab
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import Namespace, RDF, RDFS
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple

#: Vocabulary namespace of the DBLP-shaped dataset.
DBLP = Namespace("http://example.org/dblp/")


@dataclass(frozen=True)
class DblpConfig:
    """Scale knobs; defaults produce ≈25k triples in well under a second."""

    publications: int = 3000
    seed: int = 2009
    authors_per_publication: int = 3  # upper bound, ≥1
    persons_ratio: float = 0.55  # persons ≈ ratio × publications
    conferences: int = 12
    journals: int = 6
    year_range: range = range(1995, 2009)
    citation_rate: float = 0.8  # expected cites per publication
    editor_rate: float = 0.02  # expected fraction of publications with editor
    decoys: bool = True  # plant the ambiguity decoys (see module docstring)


#: Decoy person names: same anchor surname, longer label, sorts before the
#: anchor — a structurally identical but worse-matching interpretation.
DECOY_PERSON_NAMES = (
    "Ana Cimiano Rivera",
    "Ana Tran Diaz",
    "Ana Rudolph Mora",
    "Ana Wang Ortiz",
    "Ana Turing Reyes",
    "Ana Codd Silva",
)

#: Decoy venues: contain the anchor acronym but are three-term labels.
DECOY_CONFERENCE_NAMES = (
    "Annual ICDE Workshops",
    "Annual SIGMOD Workshops",
    "Annual VLDB Workshops",
)


def dblp_triples(config: DblpConfig = DblpConfig()) -> List[Triple]:
    """The dataset's triples, deterministic for a given config."""
    rng = random.Random(config.seed)
    triples: List[Triple] = []
    t = RDF.type

    # Class hierarchy.
    triples.append(Triple(DBLP.Article, RDFS.subClassOf, DBLP.Publication))
    triples.append(Triple(DBLP.InProceedings, RDFS.subClassOf, DBLP.Publication))

    # Venues: anchors first, then pool names, then numbered fillers.
    conference_names = list(vocab.CONFERENCE_ANCHORS) + list(vocab.CONFERENCE_POOL)
    conferences = []
    for i in range(config.conferences):
        uri = DBLP[f"conf{i}"]
        name = (
            conference_names[i]
            if i < len(conference_names)
            else f"Conference {i}"
        )
        conferences.append(uri)
        triples.append(Triple(uri, t, DBLP.Conference))
        triples.append(Triple(uri, DBLP.name, Literal(name)))

    decoy_conferences = []
    if config.decoys:
        for i, name in enumerate(DECOY_CONFERENCE_NAMES):
            uri = DBLP[f"decoyconf{i}"]
            decoy_conferences.append(uri)
            triples.append(Triple(uri, t, DBLP.Conference))
            triples.append(Triple(uri, DBLP.name, Literal(name)))

    journal_names = list(vocab.JOURNAL_ANCHORS) + list(vocab.JOURNAL_POOL)
    journals = []
    for i in range(config.journals):
        uri = DBLP[f"journal{i}"]
        name = journal_names[i] if i < len(journal_names) else f"Journal {i}"
        journals.append(uri)
        triples.append(Triple(uri, t, DBLP.Journal))
        triples.append(Triple(uri, DBLP.name, Literal(name)))

    # Persons: anchors first.
    used_names: set = set()
    person_count = max(
        len(vocab.AUTHOR_ANCHORS), int(config.publications * config.persons_ratio)
    )
    persons = []
    for i in range(person_count):
        uri = DBLP[f"person{i}"]
        if i < len(vocab.AUTHOR_ANCHORS):
            name = vocab.AUTHOR_ANCHORS[i]
            used_names.add(name)
        else:
            name = vocab.person_name(rng, used_names)
        persons.append(uri)
        triples.append(Triple(uri, t, DBLP.Person))
        triples.append(Triple(uri, DBLP.name, Literal(name)))

    decoy_persons = []
    if config.decoys:
        for i, name in enumerate(DECOY_PERSON_NAMES):
            uri = DBLP[f"decoyperson{i}"]
            decoy_persons.append(uri)
            triples.append(Triple(uri, t, DBLP.Person))
            triples.append(Triple(uri, DBLP.name, Literal(name)))

    # One project anchor, as in the paper's running example.
    project = DBLP.project0
    triples.append(Triple(project, t, DBLP.Project))
    triples.append(Triple(project, DBLP.name, Literal("X-Media")))

    # Titles are drawn from a shared pool (≈ publications/5 distinct
    # strings): like author names in real DBLP, the same literal then
    # belongs to several publications, so computed queries that pin a title
    # constant still retrieve multiple answers.
    title_pool = [
        vocab.publication_title(rng)
        for _ in range(max(50, config.publications // 5))
    ]

    # Publications.  The very first publication gets an `editor` triple
    # *before* any `author` triple so the rarer relation registers first in
    # the summary graph's adjacency — under C1 (pure path length) the two
    # same-shaped interpretations tie and discovery order decides, which is
    # exactly the ambiguity C2's popularity cost resolves.
    publications = []
    years = list(config.year_range)
    all_persons = persons + decoy_persons
    for i in range(config.publications):
        uri = DBLP[f"pub{i}"]
        publications.append(uri)
        is_article = rng.random() < 0.4
        cls = DBLP.Article if is_article else DBLP.InProceedings
        triples.append(Triple(uri, t, cls))
        triples.append(Triple(uri, DBLP.title, Literal(rng.choice(title_pool))))
        triples.append(Triple(uri, DBLP.year, Literal(str(rng.choice(years)))))
        if config.decoys and (i == 0 or rng.random() < config.editor_rate):
            triples.append(Triple(uri, DBLP.editor, rng.choice(all_persons)))
        author_count = rng.randrange(1, config.authors_per_publication + 1)
        for author in rng.sample(persons, min(author_count, len(persons))):
            triples.append(Triple(uri, DBLP.author, author))
        if is_article:
            triples.append(Triple(uri, DBLP.publishedIn, rng.choice(journals)))
        else:
            triples.append(Triple(uri, DBLP.presentedAt, rng.choice(conferences)))

    # Give every decoy entity the same local structure as its anchor twin
    # (authored publications / hosted presentations), so decoy queries are
    # satisfiable too — the interpretations differ only in which literal
    # the keyword is mapped to.
    if config.decoys:
        for i, person in enumerate(decoy_persons):
            for j in range(3):
                pub = publications[(i * 11 + j * 17 + 5) % len(publications)]
                triples.append(Triple(pub, DBLP.author, person))
        for i, venue in enumerate(decoy_conferences):
            for j in range(4):
                pub = publications[(i * 13 + j * 19 + 3) % len(publications)]
                triples.append(Triple(pub, DBLP.presentedAt, venue))

    # Dedicated anchor publications with deterministic years, venues, and
    # co-authorship, so the workload queries ("cimiano 2006", "tran icde",
    # "cimiano tran", "x-media cimiano publications") all have answers at
    # every scale.
    # Every anchor gets one publication per (year, venue) slot below, so
    # "<anchor> 2006", "<anchor> icde" etc. are all satisfiable.
    anchor_slots = (("2006", 0), ("2000", 1), ("1998", 2))  # (year, conf idx)
    for i, _anchor in enumerate(vocab.AUTHOR_ANCHORS):
        author = persons[i]
        coauthor = persons[(i + 1) % len(vocab.AUTHOR_ANCHORS)]
        for j, (year, conf_index) in enumerate(anchor_slots):
            pub = DBLP[f"anchorpub{i}_{j}"]
            publications.append(pub)
            triples.append(Triple(pub, t, DBLP.InProceedings))
            triples.append(Triple(pub, DBLP.title, Literal(rng.choice(title_pool))))
            triples.append(Triple(pub, DBLP.year, Literal(year)))
            triples.append(Triple(pub, DBLP.author, author))
            triples.append(Triple(pub, DBLP.presentedAt, conferences[conf_index]))
            if j == 0:
                triples.append(Triple(pub, DBLP.author, coauthor))
                triples.append(Triple(pub, DBLP.hasProject, project))

    # Citations.
    if len(publications) >= 2:
        expected = int(config.citation_rate * len(publications))
        for _ in range(expected):
            citing = rng.choice(publications)
            cited = rng.choice(publications)
            if citing != cited:
                triples.append(Triple(citing, DBLP.cites, cited))

    return triples


def generate_dblp(config: DblpConfig = DblpConfig()) -> DataGraph:
    """Generate the dataset deterministically for a given config."""
    return DataGraph(dblp_triples(config))
