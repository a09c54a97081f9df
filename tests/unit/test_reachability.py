"""What only tests reach: every ``def`` / ``class`` of ``src/`` that no
entry point and no line of ``src/`` names is on a reasoned allowlist.

An entry point is the CLI (``src/``), ``perf/``, ``benchmarks/``,
``scripts/`` or ``examples/``.  The sweep collects every name,
attribute, keyword argument and import those trees use — walking the
``ast``, so f-string expressions count and comments and strings do not —
and lists each ``def`` / ``class`` name of ``src/`` that none of them
uses.  A name a test alone keeps alive must say why it is kept; one that
turns up here without a reason is dead code to delete, and one that
leaves the list (something now calls it, or it is gone) leaves the
allowlist with it.

The sweep matches names, not objects, so it misses what a name match
hides: a parameter no caller passes, a method shadowed by a same-named
one elsewhere, a function reached only through another unreached one.
Follow a candidate up with ``grep -rnw NAME src perf benchmarks scripts
examples``.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
TREES = ("src", "perf", "benchmarks", "scripts", "examples")

#: name -> why a definition no entry point reaches stays.
ALLOWED = {
    "constants": "public ConjunctiveQuery API beside variables/predicates, "
    "tested (test_conjunctive.py)",
    "evaluate_self_join": "oracle: SingleTableStore's brute-force join is what "
    "test_evaluator_props.py holds the evaluator to",
    "is_bnode": "public Term API beside is_literal, tested (test_terms.py)",
    "is_connected": "invariant: test_query_mapping.py holds every mapped query "
    "to Definition 6's connectedness",
    "is_current": "public EngineSnapshot API: a pin used outside a read hold "
    "detects a later version (test_service.py)",
    "is_uri": "public Term API beside is_literal, tested (test_terms.py)",
    "is_variable": "public Term API beside is_literal, tested (test_terms.py)",
    "should_terminate": "oracle: reference_exploration calls it (Alg 2 line 11)",
    "to_table_patterns": "oracle: feeds SingleTableStore in "
    "test_evaluator_props.py and test_running_example.py",
    "untyped_entities": "oracle: test_summary_props.py checks the Thing "
    "aggregation against it",
}


def unreached_names():
    """Every non-dunder ``def`` / ``class`` name of ``src/`` that no name,
    attribute, keyword argument or import in :data:`TREES` uses."""
    uses, defs = collections.Counter(), collections.Counter()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    if tree == "src":
                        defs[node.name] += 1
                elif isinstance(node, ast.Name):
                    uses[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    uses[node.attr] += 1
                elif isinstance(node, ast.keyword) and node.arg:
                    uses[node.arg] += 1
                elif isinstance(node, ast.alias):
                    uses.update(node.name.split(".") + [node.asname or ""])
    return sorted(n for n in defs if not n.startswith("__") and not uses[n])


def test_only_allowlisted_names_are_unreached():
    assert unreached_names() == sorted(ALLOWED)


def test_every_allowlisted_name_is_one_a_test_uses():
    """A reason names the test that keeps a name alive: the name must
    appear in ``tests/``, or nothing keeps it at all."""
    tests = "\n".join(
        path.read_text() for path in (ROOT / "tests").rglob("*.py")
        if path.name != "test_reachability.py"
    )
    assert [name for name in ALLOWED if name not in tests] == []
