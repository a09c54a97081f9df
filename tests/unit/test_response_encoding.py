"""The bytes-level response path: every encoder against its dict oracle.

``result_to_json`` / ``candidate_to_json`` / ``answers_to_json`` build a
payload as dicts; ``encode_result`` / ``encode_execution`` build the same
payload as bytes from fragments each candidate encodes once.  The
contract is ``encoder(x) == json.dumps(oracle(x)).encode()``, byte for
byte — the benchmark's load generator digests response bodies.

The frozen signature table pins ``query_signature``'s output to literal
strings produced by the implementation the committed goldens were seeded
with, so a faster normaliser cannot drift from them.  The frozen fragment
table does the same for whole candidates: literal ``json_fragment()``
bytes from the commit before ``str(query)`` / ``to_sparql`` / ``verbalize``
/ ``query_signature`` became readers of one presentation pass.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from test_query_mapping import (
    build_graph,
    chain_graph,
    chain_subgraph,
    single_path_subgraph,
)

from repro.core.engine import KeywordSearchEngine, QueryCandidate
from repro.core.query_mapping import map_to_query
from repro.datasets.workloads import (
    dblp_performance_queries,
    tap_effectiveness_workload,
)
from repro.quality.signatures import query_signature
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.evaluator import AnswerRows
from repro.query.nlg import verbalize
from repro.query.sparql import to_sparql
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import BNode, URI, Literal, Variable
from repro.service.http import (
    _encode_outcome,
    answers_to_json,
    candidate_to_json,
    encode_execution,
    encode_result,
    result_to_json,
)
from repro.service.service import BatchOutcome
from repro.store.triple_store import TripleStore

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
P, T, C = URI("u:p"), URI("u:t"), URI("u:C")

FROZEN_SIGNATURES = [
    (
        [Atom(T, X, C)],
        "cq:('u:t', ('var', (('u:t', 0, ('const', '<u:C>')),)), ('con"
        "st', ('term', '<u:C>')))",
    ),
    (
        [Atom(T, X, C), Atom(P, X, Y), Atom(P, X, Literal("v"))],
        'cq:(\'u:p\', (\'var\', ((\'u:p\', 0, (\'const\', \'"v"\')), (\'u:p\', 0,'
        " ('var',)), ('u:t', 0, ('const', '<u:C>')))), ('const', ('te"
        'rm\', \'"v"\')));(\'u:p\', (\'var\', ((\'u:p\', 0, (\'const\', \'"v"\')),'
        " ('u:p', 0, ('var',)), ('u:t', 0, ('const', '<u:C>')))), ('v"
        "ar', (('u:p', 1, ('var',)),)));('u:t', ('var', (('u:p', 0, ("
        '\'const\', \'"v"\')), (\'u:p\', 0, (\'var\',)), (\'u:t\', 0, (\'const\','
        " '<u:C>')))), ('const', ('term', '<u:C>')))",
    ),
    (
        [Atom(P, X, Y), Atom(P, Y, X), Atom(P, Z, Z)],
        "cq:('u:p', ('var', (('u:p', 0, ('var',)), ('u:p', 1, ('var',"
        ")))), ('var', (('u:p', 0, ('var',)), ('u:p', 1, ('var',)))))",
    ),
    (
        [Atom(P, X, Literal('a "b"\n', language="en")),
         Atom(P, X, Literal("7", datatype=URI("u:int")))],
        'cq:(\'u:p\', (\'var\', ((\'u:p\', 0, (\'const\', \'"7"^^<u:int>\')), ('
        '\'u:p\', 0, (\'const\', \'"a \\\\"b\\\\"\\\\n"@en\')))), (\'const\', (\'ter'
        'm\', \'"7"^^<u:int>\')));(\'u:p\', (\'var\', ((\'u:p\', 0, (\'const\', '
        '\'"7"^^<u:int>\')), (\'u:p\', 0, (\'const\', \'"a \\\\"b\\\\"\\\\n"@en\'))'
        ')), (\'const\', (\'term\', \'"a \\\\"b\\\\"\\\\n"@en\')))',
    ),
    (
        [Atom(P, C, Literal("v"))],
        "cq:('u:p', ('const', ('term', '<u:C>')), ('const', ('term', "
        '\'"v"\')))',
    ),
]

AIFB_TOP_SIGNATURE = (
    "cq:('http://example.org/aifb/name', ('var', (('http://exampl"
    'e.org/aifb/name\', 0, (\'const\', \'"AIFB"\')), (\'http://www.w3.o'
    "rg/1999/02/22-rdf-syntax-ns#type', 0, ('const', '<http://exa"
    'mple.org/aifb/Institute>\')))), (\'const\', (\'term\', \'"AIFB"\'))'
    ");('http://www.w3.org/1999/02/22-rdf-syntax-ns#type', ('var'"
    ', ((\'http://example.org/aifb/name\', 0, (\'const\', \'"AIFB"\')),'
    " ('http://www.w3.org/1999/02/22-rdf-syntax-ns#type', 0, ('co"
    "nst', '<http://example.org/aifb/Institute>')))), ('const', ("
    "'term', '<http://example.org/aifb/Institute>')))"
)


EX = Namespace("http://example.org/aifb/")
XSD_INT = URI("http://www.w3.org/2001/XMLSchema#int")


def _fragment_candidates():
    """One candidate per rendering rule worth pinning, by name: literals
    the JSON and N3 escapers disagree about, every literal flavour, and
    the query shapes only the mapper produces."""
    graph, k = build_graph()
    chain, vertices, edges = chain_graph(7)

    def mapped(elements):
        return map_to_query(single_path_subgraph(elements), graph)

    queries = [
        ("quote-backslash-newline",
         ConjunctiveQuery([Atom(P, X, Literal('say "hi" \\ back\nnext\ttab'))]), 1.0),
        ("non-ascii-and-u2028",
         ConjunctiveQuery([Atom(P, X, Literal("M\u00fcller \u2028 d\u00e9j\u00e0 \u65e5\u672c \U0001f600"))]),
         0.1 + 0.2),
        ("language-and-datatype",
         ConjunctiveQuery([Atom(T, X, C), Atom(P, X, Literal("chat", language="fr")),
                           Atom(P, X, Literal("7", datatype=XSD_INT))]), 1e-07),
        ("self-loop", mapped([k["pub"], k["loop"]]), 2.5),
        ("constant-subject",
         ConjunctiveQuery([Atom(EX.worksAt, EX.cimiano, Y), Atom(T, Y, C)]), 1e16),
        ("existential",
         ConjunctiveQuery([Atom(T, X, C), Atom(EX.hasProject, X, Y),
                           Atom(EX.project_name, Y, Literal("X-Media"))],
                          distinguished=[X]), 12345678.9),
        ("seven-variables",
         map_to_query(chain_subgraph(vertices, edges), chain, type_predicate=T), 7.0),
        ("thing-endpoint", mapped([k["res"], k["thing_rel"], k["thing"]]), 3.0),
        ("subclass-beside-variables",
         mapped([k["pub"], k["author"], k["res"], k["subclass"], k["person"]]), 4.0),
        ("isolated-value", mapped([k["value"]]), 0.5),
    ]
    return {
        name: QueryCandidate(query, cost, None, rank=rank)
        for rank, (name, query, cost) in enumerate(queries, start=1)
    }


FROZEN_FRAGMENTS = {
    'quote-backslash-newline': (
        b'{"rank": 1, "cost": 1.0, "query": "(?x). p(?x, \'say \\"hi\\" \\'
        b'\\\\\\ back\\\\nnext\\\\ttab\')", "signature": "cq:(\'u:p\', (\'var\', ('
        b'(\'u:p\', 0, (\'const\', \'\\"say \\\\\\\\\\"hi\\\\\\\\\\" \\\\\\\\\\\\\\\\ back\\\\\\\\'
        b'nnext\\\\\\\\ttab\\"\')),)), (\'const\', (\'term\', \'\\"say \\\\\\\\\\"hi\\\\\\'
        b'\\\\" \\\\\\\\\\\\\\\\ back\\\\\\\\nnext\\\\\\\\ttab\\"\')))", "sparql": "SELECT'
        b' ?x WHERE {\\n  ?x <u:p> \\"say \\\\\\"hi\\\\\\" \\\\\\\\ back\\\\nnext\\\\t'
        b'tab\\" .\\n}", "text": "Find ?x, whose p is \'say \\"hi\\" \\\\ bac'
        b'k\\nnext\\ttab\'."}'
    ),
    'non-ascii-and-u2028': (
        b'{"rank": 2, "cost": 0.30000000000000004, "query": "(?x). p(?'
        b"x, 'M\\u00fcller \\\\u2028 d\\u00e9j\\u00e0 \\u65e5\\u672c \\ud83d\\u"
        b'de00\')", "signature": "cq:(\'u:p\', (\'var\', ((\'u:p\', 0, (\'cons'
        b't\', \'\\"M\\u00fcller \\\\\\\\u2028 d\\u00e9j\\u00e0 \\u65e5\\u672c \\ud'
        b'83d\\ude00\\"\')),)), (\'const\', (\'term\', \'\\"M\\u00fcller \\\\\\\\u20'
        b'28 d\\u00e9j\\u00e0 \\u65e5\\u672c \\ud83d\\ude00\\"\')))", "sparql"'
        b': "SELECT ?x WHERE {\\n  ?x <u:p> \\"M\\u00fcller \\\\u2028 d\\u00'
        b'e9j\\u00e0 \\u65e5\\u672c \\ud83d\\ude00\\" .\\n}", "text": "Find ?'
        b"x, whose p is 'M\\u00fcller \\u2028 d\\u00e9j\\u00e0 \\u65e5\\u672"
        b'c \\ud83d\\ude00\'."}'
    ),
    'language-and-datatype': (
        b'{"rank": 3, "cost": 1e-07, "query": "(?x). t(?x, C) \\u2227 p'
        b'(?x, \'chat\') \\u2227 p(?x, \'7\')", "signature": "cq:(\'u:p\', (\''
        b'var\', ((\'u:p\', 0, (\'const\', \'\\"7\\"^^<http://www.w3.org/2001/'
        b'XMLSchema#int>\')), (\'u:p\', 0, (\'const\', \'\\"chat\\"@fr\')), (\'u'
        b':t\', 0, (\'const\', \'<u:C>\')))), (\'const\', (\'term\', \'\\"7\\"^^<h'
        b"ttp://www.w3.org/2001/XMLSchema#int>')));('u:p', ('var', (('"
        b'u:p\', 0, (\'const\', \'\\"7\\"^^<http://www.w3.org/2001/XMLSchema'
        b'#int>\')), (\'u:p\', 0, (\'const\', \'\\"chat\\"@fr\')), (\'u:t\', 0, ('
        b'\'const\', \'<u:C>\')))), (\'const\', (\'term\', \'\\"chat\\"@fr\')));(\''
        b'u:t\', (\'var\', ((\'u:p\', 0, (\'const\', \'\\"7\\"^^<http://www.w3.o'
        b'rg/2001/XMLSchema#int>\')), (\'u:p\', 0, (\'const\', \'\\"chat\\"@fr'
        b"')), ('u:t', 0, ('const', '<u:C>')))), ('const', ('term', '<"
        b'u:C>\')))", "sparql": "SELECT ?x WHERE {\\n  ?x <u:t> <u:C> .\\'
        b'n  ?x <u:p> \\"chat\\"@fr .\\n  ?x <u:p> \\"7\\"^^<http://www.w3.'
        b'org/2001/XMLSchema#int> .\\n}", "text": "Find ?x, whose t is '
        b'C, whose p is \'chat\', whose p is \'7\'."}'
    ),
    'self-loop': (
        b'{"rank": 4, "cost": 2.5, "query": "(?x, ?y). type(?x, Public'
        b'ation) \\u2227 type(?y, Publication) \\u2227 cites(?x, ?y)", "'
        b'signature": "cq:(\'http://example.org/aifb/cites\', (\'var\', (('
        b"'http://example.org/aifb/cites', 0, ('var',)), ('http://www."
        b"w3.org/1999/02/22-rdf-syntax-ns#type', 0, ('const', '<http:/"
        b"/example.org/aifb/Publication>')))), ('var', (('http://examp"
        b"le.org/aifb/cites', 1, ('var',)), ('http://www.w3.org/1999/0"
        b"2/22-rdf-syntax-ns#type', 0, ('const', '<http://example.org/"
        b"aifb/Publication>')))));('http://www.w3.org/1999/02/22-rdf-s"
        b"yntax-ns#type', ('var', (('http://example.org/aifb/cites', 0"
        b", ('var',)), ('http://www.w3.org/1999/02/22-rdf-syntax-ns#ty"
        b"pe', 0, ('const', '<http://example.org/aifb/Publication>')))"
        b"), ('const', ('term', '<http://example.org/aifb/Publication>"
        b"')));('http://www.w3.org/1999/02/22-rdf-syntax-ns#type', ('v"
        b"ar', (('http://example.org/aifb/cites', 1, ('var',)), ('http"
        b"://www.w3.org/1999/02/22-rdf-syntax-ns#type', 0, ('const', '"
        b"<http://example.org/aifb/Publication>')))), ('const', ('term"
        b'\', \'<http://example.org/aifb/Publication>\')))", "sparql": "S'
        b'ELECT ?x ?y WHERE {\\n  ?x <http://www.w3.org/1999/02/22-rdf-'
        b'syntax-ns#type> <http://example.org/aifb/Publication> .\\n  ?'
        b'y <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://'
        b'example.org/aifb/Publication> .\\n  ?x <http://example.org/ai'
        b'fb/cites> ?y .\\n}", "text": "Find ?x, a Publication, whose c'
        b'ites is something (?y). Find ?y, a Publication."}'
    ),
    'constant-subject': (
        b'{"rank": 5, "cost": 1e+16, "query": "(?y). worksAt(cimiano, '
        b'?y) \\u2227 t(?y, C)", "signature": "cq:(\'http://example.org/'
        b"aifb/worksAt', ('const', ('term', '<http://example.org/aifb/"
        b"cimiano>')), ('var', (('http://example.org/aifb/worksAt', 1,"
        b" ('const', '<http://example.org/aifb/cimiano>')), ('u:t', 0,"
        b" ('const', '<u:C>')))));('u:t', ('var', (('http://example.or"
        b"g/aifb/worksAt', 1, ('const', '<http://example.org/aifb/cimi"
        b"ano>')), ('u:t', 0, ('const', '<u:C>')))), ('const', ('term'"
        b', \'<u:C>\')))", "sparql": "SELECT ?y WHERE {\\n  <http://examp'
        b'le.org/aifb/cimiano> <http://example.org/aifb/worksAt> ?y .\\'
        b'n  ?y <u:t> <u:C> .\\n}", "text": "Find ?y, is the works at o'
        b'f cimiano, whose t is C."}'
    ),
    'existential': (
        b'{"rank": 6, "cost": 12345678.9, "query": "(?x). \\u2203?y. t('
        b"?x, C) \\u2227 hasProject(?x, ?y) \\u2227 project_name(?y, 'X-"
        b'Media\')", "signature": "cq:(\'http://example.org/aifb/hasProj'
        b"ect', ('var', (('http://example.org/aifb/hasProject', 0, ('v"
        b"ar',)), ('u:t', 0, ('const', '<u:C>')))), ('var', (('http://"
        b"example.org/aifb/hasProject', 1, ('var',)), ('http://example"
        b'.org/aifb/project_name\', 0, (\'const\', \'\\"X-Media\\"\')))));(\'h'
        b"ttp://example.org/aifb/project_name', ('var', (('http://exam"
        b"ple.org/aifb/hasProject', 1, ('var',)), ('http://example.org"
        b'/aifb/project_name\', 0, (\'const\', \'\\"X-Media\\"\')))), (\'const'
        b'\', (\'term\', \'\\"X-Media\\"\')));(\'u:t\', (\'var\', ((\'http://examp'
        b"le.org/aifb/hasProject', 0, ('var',)), ('u:t', 0, ('const', "
        b'\'<u:C>\')))), (\'const\', (\'term\', \'<u:C>\')))", "sparql": "SELE'
        b'CT ?x WHERE {\\n  ?x <u:t> <u:C> .\\n  ?x <http://example.org/'
        b'aifb/hasProject> ?y .\\n  ?y <http://example.org/aifb/project'
        b'_name> \\"X-Media\\" .\\n}", "text": "Find ?x, whose t is C, wh'
        b'ose has project is something (?y). where ?y is, whose projec'
        b't name is \'X-Media\'."}'
    ),
    'seven-variables': (
        b'{"rank": 7, "cost": 7.0, "query": "(?x, ?y, ?z, ?u, ?v, ?w, '
        b'?x7). t(?x, C0) \\u2227 t(?y, C1) \\u2227 r0(?x, ?y) \\u2227 t('
        b'?z, C2) \\u2227 r1(?y, ?z) \\u2227 t(?u, C3) \\u2227 r2(?z, ?u)'
        b' \\u2227 t(?v, C4) \\u2227 r3(?u, ?v) \\u2227 t(?w, C5) \\u2227 '
        b'r4(?v, ?w) \\u2227 t(?x7, C6) \\u2227 r5(?w, ?x7)", "signature'
        b'": "cq:(\'u:r0\', (\'var\', ((\'u:r0\', 0, (\'var\',)), (\'u:t\', 0, ('
        b"'const', '<u:C0>')))), ('var', (('u:r0', 1, ('var',)), ('u:r"
        b"1', 0, ('var',)), ('u:t', 0, ('const', '<u:C1>')))));('u:r1'"
        b", ('var', (('u:r0', 1, ('var',)), ('u:r1', 0, ('var',)), ('u"
        b":t', 0, ('const', '<u:C1>')))), ('var', (('u:r1', 1, ('var',"
        b")), ('u:r2', 0, ('var',)), ('u:t', 0, ('const', '<u:C2>'))))"
        b");('u:r2', ('var', (('u:r1', 1, ('var',)), ('u:r2', 0, ('var"
        b"',)), ('u:t', 0, ('const', '<u:C2>')))), ('var', (('u:r2', 1"
        b", ('var',)), ('u:r3', 0, ('var',)), ('u:t', 0, ('const', '<u"
        b":C3>')))));('u:r3', ('var', (('u:r2', 1, ('var',)), ('u:r3',"
        b" 0, ('var',)), ('u:t', 0, ('const', '<u:C3>')))), ('var', (("
        b"'u:r3', 1, ('var',)), ('u:r4', 0, ('var',)), ('u:t', 0, ('co"
        b"nst', '<u:C4>')))));('u:r4', ('var', (('u:r3', 1, ('var',)),"
        b" ('u:r4', 0, ('var',)), ('u:t', 0, ('const', '<u:C4>')))), ("
        b"'var', (('u:r4', 1, ('var',)), ('u:r5', 0, ('var',)), ('u:t'"
        b", 0, ('const', '<u:C5>')))));('u:r5', ('var', (('u:r4', 1, ("
        b"'var',)), ('u:r5', 0, ('var',)), ('u:t', 0, ('const', '<u:C5"
        b">')))), ('var', (('u:r5', 1, ('var',)), ('u:t', 0, ('const',"
        b" '<u:C6>')))));('u:t', ('var', (('u:r0', 0, ('var',)), ('u:t"
        b"', 0, ('const', '<u:C0>')))), ('const', ('term', '<u:C0>')))"
        b";('u:t', ('var', (('u:r0', 1, ('var',)), ('u:r1', 0, ('var',"
        b")), ('u:t', 0, ('const', '<u:C1>')))), ('const', ('term', '<"
        b"u:C1>')));('u:t', ('var', (('u:r1', 1, ('var',)), ('u:r2', 0"
        b", ('var',)), ('u:t', 0, ('const', '<u:C2>')))), ('const', ('"
        b"term', '<u:C2>')));('u:t', ('var', (('u:r2', 1, ('var',)), ("
        b"'u:r3', 0, ('var',)), ('u:t', 0, ('const', '<u:C3>')))), ('c"
        b"onst', ('term', '<u:C3>')));('u:t', ('var', (('u:r3', 1, ('v"
        b"ar',)), ('u:r4', 0, ('var',)), ('u:t', 0, ('const', '<u:C4>'"
        b")))), ('const', ('term', '<u:C4>')));('u:t', ('var', (('u:r4"
        b"', 1, ('var',)), ('u:r5', 0, ('var',)), ('u:t', 0, ('const',"
        b" '<u:C5>')))), ('const', ('term', '<u:C5>')));('u:t', ('var'"
        b", (('u:r5', 1, ('var',)), ('u:t', 0, ('const', '<u:C6>')))),"
        b' (\'const\', (\'term\', \'<u:C6>\')))", "sparql": "SELECT ?x ?y ?z'
        b' ?u ?v ?w ?x7 WHERE {\\n  ?x <u:t> <u:C0> .\\n  ?y <u:t> <u:C1'
        b'> .\\n  ?x <u:r0> ?y .\\n  ?z <u:t> <u:C2> .\\n  ?y <u:r1> ?z .'
        b'\\n  ?u <u:t> <u:C3> .\\n  ?z <u:r2> ?u .\\n  ?v <u:t> <u:C4> .'
        b'\\n  ?u <u:r3> ?v .\\n  ?w <u:t> <u:C5> .\\n  ?v <u:r4> ?w .\\n '
        b' ?x7 <u:t> <u:C6> .\\n  ?w <u:r5> ?x7 .\\n}", "text": "Find ?x'
        b', whose t is C0, whose r0 is something (?y). Find ?y, whose '
        b't is C1, whose r1 is something (?z). Find ?z, whose t is C2,'
        b' whose r2 is something (?u). Find ?u, whose t is C3, whose r'
        b'3 is something (?v). Find ?v, whose t is C4, whose r4 is som'
        b'ething (?w). Find ?w, whose t is C5, whose r5 is something ('
        b'?x7). Find ?x7, whose t is C6."}'
    ),
    'thing-endpoint': (
        b'{"rank": 8, "cost": 3.0, "query": "(?x, ?y). type(?x, Resear'
        b'cher) \\u2227 knows(?x, ?y)", "signature": "cq:(\'http://examp'
        b"le.org/aifb/knows', ('var', (('http://example.org/aifb/knows"
        b"', 0, ('var',)), ('http://www.w3.org/1999/02/22-rdf-syntax-n"
        b"s#type', 0, ('const', '<http://example.org/aifb/Researcher>'"
        b")))), ('var', (('http://example.org/aifb/knows', 1, ('var',)"
        b"),)));('http://www.w3.org/1999/02/22-rdf-syntax-ns#type', ('"
        b"var', (('http://example.org/aifb/knows', 0, ('var',)), ('htt"
        b"p://www.w3.org/1999/02/22-rdf-syntax-ns#type', 0, ('const', "
        b"'<http://example.org/aifb/Researcher>')))), ('const', ('term"
        b'\', \'<http://example.org/aifb/Researcher>\')))", "sparql": "SE'
        b'LECT ?x ?y WHERE {\\n  ?x <http://www.w3.org/1999/02/22-rdf-s'
        b'yntax-ns#type> <http://example.org/aifb/Researcher> .\\n  ?x '
        b'<http://example.org/aifb/knows> ?y .\\n}", "text": "Find ?x, '
        b'a Researcher, whose knows is something (?y)."}'
    ),
    'subclass-beside-variables': (
        b'{"rank": 9, "cost": 4.0, "query": "(?x, ?y). type(?x, Public'
        b'ation) \\u2227 type(?y, Researcher) \\u2227 author(?x, ?y) \\u2'
        b'227 subClassOf(Researcher, Person)", "signature": "cq:(\'http'
        b"://example.org/aifb/author', ('var', (('http://example.org/a"
        b"ifb/author', 0, ('var',)), ('http://www.w3.org/1999/02/22-rd"
        b"f-syntax-ns#type', 0, ('const', '<http://example.org/aifb/Pu"
        b"blication>')))), ('var', (('http://example.org/aifb/author',"
        b" 1, ('var',)), ('http://www.w3.org/1999/02/22-rdf-syntax-ns#"
        b"type', 0, ('const', '<http://example.org/aifb/Researcher>'))"
        b")));('http://www.w3.org/1999/02/22-rdf-syntax-ns#type', ('va"
        b"r', (('http://example.org/aifb/author', 0, ('var',)), ('http"
        b"://www.w3.org/1999/02/22-rdf-syntax-ns#type', 0, ('const', '"
        b"<http://example.org/aifb/Publication>')))), ('const', ('term"
        b"', '<http://example.org/aifb/Publication>')));('http://www.w"
        b"3.org/1999/02/22-rdf-syntax-ns#type', ('var', (('http://exam"
        b"ple.org/aifb/author', 1, ('var',)), ('http://www.w3.org/1999"
        b"/02/22-rdf-syntax-ns#type', 0, ('const', '<http://example.or"
        b"g/aifb/Researcher>')))), ('const', ('term', '<http://example"
        b".org/aifb/Researcher>')));('http://www.w3.org/2000/01/rdf-sc"
        b"hema#subClassOf', ('const', ('term', '<http://example.org/ai"
        b"fb/Researcher>')), ('const', ('term', '<http://example.org/a"
        b'ifb/Person>\')))", "sparql": "SELECT ?x ?y WHERE {\\n  ?x <htt'
        b'p://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://exampl'
        b'e.org/aifb/Publication> .\\n  ?y <http://www.w3.org/1999/02/2'
        b'2-rdf-syntax-ns#type> <http://example.org/aifb/Researcher> .'
        b'\\n  ?x <http://example.org/aifb/author> ?y .\\n  <http://exam'
        b'ple.org/aifb/Researcher> <http://www.w3.org/2000/01/rdf-sche'
        b'ma#subClassOf> <http://example.org/aifb/Person> .\\n}", "text'
        b'": "Find ?x, a Publication, whose author is something (?y). '
        b'Find ?y, a Researcher."}'
    ),
    'isolated-value': (
        b'{"rank": 10, "cost": 0.5, "query": "(?x). type(?x, Publicati'
        b'on) \\u2227 year(?x, \'2006\')", "signature": "cq:(\'http://exam'
        b"ple.org/aifb/year', ('var', (('http://example.org/aifb/year'"
        b', 0, (\'const\', \'\\"2006\\"\')), (\'http://www.w3.org/1999/02/22-'
        b"rdf-syntax-ns#type', 0, ('const', '<http://example.org/aifb/"
        b'Publication>\')))), (\'const\', (\'term\', \'\\"2006\\"\')));(\'http:/'
        b"/www.w3.org/1999/02/22-rdf-syntax-ns#type', ('var', (('http:"
        b'//example.org/aifb/year\', 0, (\'const\', \'\\"2006\\"\')), (\'http:'
        b"//www.w3.org/1999/02/22-rdf-syntax-ns#type', 0, ('const', '<"
        b"http://example.org/aifb/Publication>')))), ('const', ('term'"
        b', \'<http://example.org/aifb/Publication>\')))", "sparql": "SE'
        b'LECT ?x WHERE {\\n  ?x <http://www.w3.org/1999/02/22-rdf-synt'
        b'ax-ns#type> <http://example.org/aifb/Publication> .\\n  ?x <h'
        b'ttp://example.org/aifb/year> \\"2006\\" .\\n}", "text": "Find ?'
        b'x, a Publication, whose year is \'2006\'."}'
    ),
}


def _oracle(result) -> bytes:
    return json.dumps(result_to_json(result)).encode("utf-8")


def _workload(name, graphs):
    if name == "example":
        return graphs[name], ["2006 cimiano aifb", "cimiano 2006", "aifb", "zzznomatch"]
    if name == "dblp":
        return graphs[name], [" ".join(q.keywords) for q in dblp_performance_queries()]
    return graphs[name], [" ".join(q.keywords) for q in tap_effectiveness_workload()]


@pytest.fixture(scope="module")
def graphs(example_graph, dblp_small, tap_small):
    return {"example": example_graph, "dblp": dblp_small, "tap": tap_small}


@pytest.mark.parametrize("dataset", ["example", "dblp", "tap"])
def test_encoded_result_is_the_json_dump_of_the_dict(dataset, graphs):
    graph, queries = _workload(dataset, graphs)
    engine = KeywordSearchEngine(DataGraph(graph.triples), k=10)
    candidates = 0
    for query in queries:
        result = engine.search(query)
        candidates += len(result.candidates)
        assert encode_result(result) == _oracle(result)
        # Once more, now that every fragment is cached.
        assert encode_result(result) == _oracle(result)
    assert candidates, f"the {dataset} workload must yield interpretations"


def test_memo_hit_body_equals_memo_miss_body(example_graph):
    engine = KeywordSearchEngine(
        DataGraph(example_graph.triples), k=5, search_cache_size=8
    )
    miss = engine.search("2006 cimiano aifb")
    hit = engine.search("2006 cimiano aifb")
    assert engine.cache_stats()["search_results"]["hits"] == 1
    assert hit is not miss
    # A hit reports the original computation's timings, so not even the
    # timing values differ.
    assert encode_result(hit) == encode_result(miss) == _oracle(miss)


def test_memo_copy_mutated_in_place_cannot_serve_stale_bytes(example_graph):
    """The fragments live on the (never mutated) candidates, not on the
    result: trimming or reordering one caller's copy changes that copy's
    body and nobody else's."""
    engine = KeywordSearchEngine(
        DataGraph(example_graph.triples), k=5, search_cache_size=8
    )
    first = engine.search("cimiano 2006")
    pristine = encode_result(first)
    assert len(first.candidates) > 1
    first.candidates.reverse()
    del first.candidates[1:]
    first.keywords.append("tampered")
    assert encode_result(first) == _oracle(first) != pristine
    again = engine.search("cimiano 2006")
    assert encode_result(again) == pristine


def test_execution_and_batch_outcomes_use_the_same_fragments(example_graph):
    engine = KeywordSearchEngine(DataGraph(example_graph.triples), k=5)
    result = engine.search("2006 cimiano aifb")
    best = result.best()
    answers = engine.execute(best, limit=5)
    assert answers
    timings = {"keyword_mapping": 0.00025, "total": 0.0015, "execute": 0.002}
    assert encode_execution(best, answers, timings) == json.dumps(
        {"candidate": candidate_to_json(best), "answers": answers_to_json(answers),
         "timings_ms": {stage: 1000 * s for stage, s in timings.items()}}
    ).encode("utf-8")

    ok = BatchOutcome(0, "q", "ok", result=result, latency_seconds=0.00125)
    assert _encode_outcome(ok) == json.dumps(
        {"index": 0, "status": "ok", "latency_ms": 1000 * 0.00125,
         "result": result_to_json(result)}
    ).encode("utf-8")
    failed = BatchOutcome(1, " ", "error", error=ValueError("empty"))
    assert json.loads(_encode_outcome(failed)) == {
        "index": 1, "status": "error", "latency_ms": 0.0, "error": "empty",
    }
    expired = BatchOutcome(2, "q", "timeout")
    assert json.loads(_encode_outcome(expired)) == {
        "index": 2, "status": "timeout", "latency_ms": 0.0,
    }


# ----------------------------------------------------------------------
# /execute answers: written straight to bytes, against the dict reference
# ----------------------------------------------------------------------


class _Candidate:
    """All ``encode_execution`` reads of a candidate."""

    def json_fragment(self):
        return b'{"rank": 1}'


def _assert_answer_bytes(answers):
    timings = {"total": 0.0015, "execute": 0.002}
    expected = json.dumps(
        {"candidate": {"rank": 1}, "answers": answers_to_json(answers),
         "timings_ms": {stage: 1000 * s for stage, s in timings.items()}}
    ).encode("ascii")
    assert encode_execution(_Candidate(), answers, timings) == expected
    return expected


def _answers(variables, *rows):
    """Key rows over a ``TripleStore``, where a key is its term: the
    evaluator's output, as ``encode_execution`` reads it."""
    return AnswerRows(tuple(variables), tuple(map(tuple, rows)), TripleStore())


A, B = URI("u:a"), URI("u:b")

ANSWER_CASES = {
    "no answers": _answers((X,)),
    # A naive "{" + ", ".join(...) + "}" per answer gets this one wrong
    # first: a query that distinguishes nothing answers with one `{}`.
    "no distinguished variable": _answers((), ()),
    "one variable": _answers((X,), (B,), (A,)),
    "distinguished order is not name order": _answers(
        (Y, X), (A, B), (B, A), (A, A)
    ),
    "values with the signature's own separators": _answers(
        (X, Y), (URI("u:a|?y=<u:b>"), A), (A, URI("u:b=|")), (URI("u:a|"), URI("=")),
    ),
    "signatures that differ only after a |": _answers(
        (X, Y), (A, URI("u:z")), (A, URI("u:b")), (A, URI("u:b|"))
    ),
    "a | sorts after what a shorter value ends with": _answers(
        (X, Y), (URI("u:a}"), A), (URI("u:a"), B), (URI("u:a!"), A)
    ),
    "text JSON must escape": _answers(
        (X,), (Literal('say "hi" \\ back\\slash'),), (Literal("line\nbreak\ttab"),),
        (Literal("caf\u00e9 \u4e2d\u6587 \U0001f600"),), (Literal("\x00\x1f\x7f\u2028"),),
    ),
    "language-tagged and datatyped literals": _answers(
        (X, Y),
        (Literal("chat", language="fr"), Literal("7", datatype=URI("u:int"))),
        (Literal("chat"), Literal("7")),
        (Literal("chat", language="en"), Literal("7", datatype=URI("u:long"))),
    ),
    "blank nodes": _answers((X, Y), (BNode("b1"), A), (BNode("b0"), BNode("b1"))),
    "a variable name JSON must escape": _answers(
        (Variable('q"uote'), Variable("caf\u00e9")), (A, B), (B, A)
    ),
    "dict answers pass through the reference": [
        {"?y": "<u:b>", "?x": "<u:a>"}, {"?x": "<u:a>", "?y": "<u:a>"},
    ],
}


@pytest.mark.parametrize("name", ANSWER_CASES)
def test_answer_bytes_equal_the_dict_reference(name):
    _assert_answer_bytes(ANSWER_CASES[name])


def test_an_answer_with_no_variables_is_an_empty_object():
    assert b'"answers": [{}]' in _assert_answer_bytes(_answers((), ()))
    assert b'"answers": []' in _assert_answer_bytes(_answers((X,)))


_names = st.text(min_size=1).filter(lambda name: not name.startswith("?"))
_terms = st.one_of(
    st.builds(URI, st.text(min_size=1)),
    st.builds(BNode, st.text(min_size=1)),
    st.builds(Literal, st.text()),
    st.builds(Literal, st.text(), language=st.sampled_from(["en", "de-CH"])),
    st.builds(Literal, st.text(), datatype=st.builds(URI, st.text(min_size=1))),
)


@st.composite
def _answer_lists(draw):
    variables = tuple(map(Variable, draw(st.lists(_names, unique=True, max_size=4))))
    row = st.tuples(*[_terms] * len(variables))
    # Distinct rows, as the evaluator emits them.
    return _answers(variables, *draw(st.lists(row, unique=True, max_size=8)))


@given(_answer_lists())
@settings(max_examples=200, deadline=None)
def test_answer_bytes_equal_the_dict_reference_on_any_terms(answers):
    _assert_answer_bytes(answers)


def test_encoded_bytes_pass_through_the_tier_seam():
    body = b'{"already": "encoded by a worker"}'
    assert encode_result(body) is body
    assert encode_execution(body, None, None) is body


@pytest.mark.parametrize("atoms, expected", FROZEN_SIGNATURES)
def test_query_signature_matches_the_frozen_table(atoms, expected):
    assert query_signature(ConjunctiveQuery(atoms)) == expected
    # Renaming and atom order leave it alone.
    renamed = {X: Variable("b"), Y: Variable("c"), Z: Variable("a")}
    shuffled = [
        Atom(a.predicate, renamed.get(a.arg1, a.arg1), renamed.get(a.arg2, a.arg2))
        for a in reversed(atoms)
    ]
    assert query_signature(ConjunctiveQuery(shuffled)) == expected


@pytest.mark.parametrize("name", sorted(FROZEN_FRAGMENTS))
def test_json_fragment_matches_the_frozen_bytes(name):
    """The table holds what the four independent renderers + ``json.dumps``
    produced before they became one presentation pass."""
    candidate = _fragment_candidates()[name]
    assert candidate.json_fragment() == FROZEN_FRAGMENTS[name]
    assert json.dumps(candidate.to_json()).encode("ascii") == FROZEN_FRAGMENTS[name]


def test_every_frozen_case_is_built():
    assert set(_fragment_candidates()) == set(FROZEN_FRAGMENTS)


@pytest.mark.parametrize("name", sorted(FROZEN_FRAGMENTS))
def test_the_thin_readers_read_what_the_candidate_sends(name):
    candidate = _fragment_candidates()[name]
    query = candidate.query
    assert candidate.to_json() == {
        "rank": candidate.rank,
        "cost": candidate.cost,
        "query": str(query),
        "signature": query_signature(query),
        "sparql": to_sparql(query),
        "text": verbalize(query),
    }
    assert list(candidate.to_json()) == [
        "rank", "cost", "query", "signature", "sparql", "text",
    ]
    body = " ∧ ".join(str(atom) for atom in query.atoms)
    assert str(query).endswith(". " + body)
    pretty, compact = to_sparql(query), to_sparql(query, pretty=False)
    assert " ".join(pretty.split()) == " ".join(compact.split())


@pytest.mark.parametrize(
    "rank, cost",
    [(1, 2), (True, 0.5), (3, float("inf")), (4, float("nan")), (5, -0.0), (6, 1e-320)],
)
def test_fragment_numbers_are_what_json_dumps_writes(rank, cost):
    query = ConjunctiveQuery([Atom(P, X, Literal("v"))])
    candidate = QueryCandidate(query, cost, None, rank=rank)
    assert candidate.json_fragment() == json.dumps(candidate.to_json()).encode("ascii")


def test_candidate_signature_with_and_without_the_held_form(example_graph):
    engine = KeywordSearchEngine(DataGraph(example_graph.triples), k=3)
    top = engine.search("aifb").best()
    # From query mapping's canonical form ...
    assert top.signature == AIFB_TOP_SIGNATURE == query_signature(top.query)
    # ... and computed on demand when the caller holds none.
    bare = QueryCandidate(top.query, top.cost, top.subgraph, rank=1)
    assert bare.signature == AIFB_TOP_SIGNATURE
    assert bare.json_fragment() == top.json_fragment()
