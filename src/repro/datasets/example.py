"""The paper's running example: the RDF graph of Fig. 1a.

Publications, researchers, projects, and institutes — the 20-triple graph
the paper uses throughout Sections II-III, including the class hierarchy
(Institute ⊑ Agent, Researcher ⊑ Person ⊑ Agent ⊑ Thing).  The keyword
query ``"2006 cimiano aifb"`` over this graph should produce the
conjunctive query of Fig. 1c.
"""

from __future__ import annotations

from typing import List

from repro.rdf.graph import DataGraph
from repro.rdf.namespace import Namespace, RDF, RDFS
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple

#: Namespace of the running example's entities and vocabulary.
EX = Namespace("http://example.org/aifb/")


def running_example_triples() -> List[Triple]:
    """The triples of the Fig. 1a data graph."""
    t = RDF.type
    sub = RDFS.subClassOf
    return [
        Triple(EX.pro2URI, t, EX.Project),
        Triple(EX.pro1URI, t, EX.Project),
        Triple(EX.pro1URI, EX.name, Literal("X-Media")),
        Triple(EX.pub1URI, t, EX.Publication),
        Triple(EX.pub1URI, EX.author, EX.re1URI),
        Triple(EX.pub1URI, EX.author, EX.re2URI),
        Triple(EX.pub1URI, EX.year, Literal("2006")),
        Triple(EX.pub2URI, t, EX.Publication),
        Triple(EX.re1URI, t, EX.Researcher),
        Triple(EX.re1URI, EX.name, Literal("Thanh Tran")),
        Triple(EX.re1URI, EX.worksAt, EX.inst1URI),
        Triple(EX.re2URI, t, EX.Researcher),
        Triple(EX.re2URI, EX.name, Literal("P. Cimiano")),
        Triple(EX.re2URI, EX.worksAt, EX.inst1URI),
        Triple(EX.inst1URI, t, EX.Institute),
        Triple(EX.inst1URI, EX.name, Literal("AIFB")),
        Triple(EX.inst2URI, t, EX.Institute),
        Triple(EX.Institute, sub, EX.Agent),
        Triple(EX.Researcher, sub, EX.Person),
        Triple(EX.Person, sub, EX.Agent),
        # Connections the paper's intro discusses for the X-Media query.
        Triple(EX.pub1URI, EX.hasProject, EX.pro1URI),
    ]


def running_example_graph() -> DataGraph:
    """Build the Fig. 1a data graph."""
    return DataGraph(running_example_triples())
