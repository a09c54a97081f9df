"""A TAP-style broad, shallow multi-domain ontology.

TAP (Stanford's 220k-triple knowledge base) matters to the paper's Fig. 6b
through one property: **many classes across many domains**, which makes the
graph index (summary graph) large relative to the keyword index.  This
generator reproduces that: ~10 domains, each with a small class hierarchy,
typed relations inside and across domains, and only a few instances per
class (shallow instance data).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.rdf.graph import DataGraph
from repro.rdf.namespace import Namespace, RDF, RDFS
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple

#: Vocabulary namespace of the TAP-style dataset.
TAP = Namespace("http://example.org/tap/")


@dataclass(frozen=True)
class TapConfig:
    instances_per_class: int = 8
    seed: int = 220


#: domain -> list of (class, parent) pairs; parents declared first.
_DOMAINS: Dict[str, Sequence[Tuple[str, str]]] = {
    "sports": (
        ("Sport", "Activity"),
        ("TeamSport", "Sport"),
        ("Basketball", "TeamSport"),
        ("Football", "TeamSport"),
        ("Tennis", "Sport"),
        ("Team", "Organization"),
        ("Athlete", "Person"),
        ("Stadium", "Place"),
    ),
    "music": (
        ("Musician", "Person"),
        ("Band", "Organization"),
        ("Album", "Artwork"),
        ("Song", "Artwork"),
        ("Genre", "Category"),
    ),
    "movies": (
        ("Movie", "Artwork"),
        ("Actor", "Person"),
        ("Director", "Person"),
        ("Studio", "Organization"),
    ),
    "geography": (
        ("Country", "Place"),
        ("City", "Place"),
        ("River", "NaturalFeature"),
        ("Mountain", "NaturalFeature"),
        ("NaturalFeature", "Place"),
    ),
    "books": (
        ("Book", "Artwork"),
        ("Writer", "Person"),
        ("Publisher", "Organization"),
    ),
    "companies": (
        ("Company", "Organization"),
        ("TechCompany", "Company"),
        ("Product", "Artifact"),
    ),
    "science": (
        ("Scientist", "Person"),
        ("Theory", "Abstraction"),
        ("Instrument", "Artifact"),
    ),
    "food": (
        ("Dish", "Artifact"),
        ("Cuisine", "Category"),
        ("Restaurant", "Organization"),
    ),
}

#: Top-level classes every domain hangs off.
_ROOTS: Sequence[Tuple[str, str]] = (
    ("Person", "Entity"),
    ("Organization", "Entity"),
    ("Place", "Entity"),
    ("Artwork", "Entity"),
    ("Artifact", "Entity"),
    ("Activity", "Entity"),
    ("Category", "Entity"),
    ("Abstraction", "Entity"),
)

#: (label, source class, target class) relations, instance-level.
_RELATIONS: Sequence[Tuple[str, str, str]] = (
    ("playsFor", "Athlete", "Team"),
    ("plays", "Athlete", "Sport"),
    ("homeStadium", "Team", "Stadium"),
    ("locatedIn", "Stadium", "City"),
    ("locatedIn", "City", "Country"),
    ("locatedIn", "Restaurant", "City"),
    ("flowsThrough", "River", "Country"),
    ("memberOf", "Musician", "Band"),
    ("recorded", "Band", "Album"),
    ("contains", "Album", "Song"),
    ("hasGenre", "Album", "Genre"),
    ("actsIn", "Actor", "Movie"),
    ("directedBy", "Movie", "Director"),
    ("producedBy", "Movie", "Studio"),
    ("wrote", "Writer", "Book"),
    ("publishedBy", "Book", "Publisher"),
    ("makes", "Company", "Product"),
    ("headquarteredIn", "Company", "City"),
    ("proposed", "Scientist", "Theory"),
    ("serves", "Restaurant", "Dish"),
    ("partOf", "Dish", "Cuisine"),
    ("bornIn", "Athlete", "City"),
    ("bornIn", "Musician", "City"),
    ("bornIn", "Scientist", "City"),
)


def tap_triples(config: TapConfig = TapConfig()) -> List[Triple]:
    """The TAP-style graph's triples, deterministic for a given config."""
    rng = random.Random(config.seed)
    triples: List[Triple] = []
    t = RDF.type
    sub = RDFS.subClassOf

    for child, parent in _ROOTS:
        triples.append(Triple(TAP[child], sub, TAP[parent]))
    for pairs in _DOMAINS.values():
        for child, parent in pairs:
            triples.append(Triple(TAP[child], sub, TAP[parent]))

    # Instances: a few per leaf-ish class, with readable names.
    instances: Dict[str, List[URI]] = {}
    instantiable = sorted({child for pairs in _DOMAINS.values() for child, _ in pairs})
    for cls in instantiable:
        entities = []
        for i in range(config.instances_per_class):
            uri = TAP[f"{cls.lower()}{i}"]
            entities.append(uri)
            triples.append(Triple(uri, t, TAP[cls]))
            triples.append(Triple(uri, TAP.name, Literal(f"{cls} {i}")))
        instances[cls] = entities

    # A few memorable anchor instances for the workloads.
    anchors = (
        ("Athlete", "Michael Jordan"),
        ("Team", "Chicago Bulls"),
        ("City", "Karlsruhe"),
        ("Country", "Germany"),
        ("Musician", "Johann Bach"),
        ("Movie", "Metropolis"),
        ("Writer", "Franz Kafka"),
        ("Company", "Example Corp"),
    )
    for cls, name in anchors:
        uri = TAP[name.replace(" ", "_")]
        triples.append(Triple(uri, t, TAP[cls]))
        triples.append(Triple(uri, TAP.name, Literal(name)))
        instances[cls].append(uri)

    # Relations between instances.
    for label, source_cls, target_cls in _RELATIONS:
        sources = instances.get(source_cls, ())
        targets = instances.get(target_cls, ())
        if not sources or not targets:
            continue
        for source in sources:
            for target in rng.sample(targets, min(len(targets), rng.randint(1, 2))):
                triples.append(Triple(source, TAP[label], target))

    # Make the anchors' relations deterministic for the workloads.
    jordan = TAP["Michael_Jordan"]
    bulls = TAP["Chicago_Bulls"]
    karlsruhe = TAP["Karlsruhe"]
    germany = TAP["Germany"]
    triples.append(Triple(jordan, TAP.playsFor, bulls))
    triples.append(Triple(jordan, TAP.plays, instances["Basketball"][0]))
    triples.append(Triple(karlsruhe, TAP.locatedIn, germany))
    triples.append(Triple(TAP["Franz_Kafka"], TAP.wrote, instances["Book"][0]))

    return triples


def generate_tap(config: TapConfig = TapConfig()) -> DataGraph:
    """Generate the TAP-style graph deterministically."""
    return DataGraph(tap_triples(config))
