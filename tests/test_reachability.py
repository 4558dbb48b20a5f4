"""Every public name in src/pstlab has a caller in the package or is kept
on purpose in the README, every name the README keeps is still defined,
only spectral lists the matrix kinds, and the replay and numeric routes
name nothing of the decider they check.

A public function, class or method counts as reached when its name
appears as a Name or an Attribute somewhere in src/pstlab outside its own
definition; __init__.py re-exports do not count.  Otherwise the README
must name it in backticks (a method as `Class.method`), with the reason it
is kept.  A helper that only tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

import pstlab
from pstlab import spectral

PACKAGE = Path(pstlab.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"


def _public_definitions(tree):
    """(qualified name, bare name, node) of each public top-level function
    and class and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name, sub


def _used_names(nodes):
    names = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _readme_names():
    """Every dotted suffix of each identifier that opens a backtick span,
    so `pstlab.decide` names decide and `Graph.relabel` names the method."""
    names = set()
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        head = re.match(r"[A-Za-z_][\w.]*", span)
        if head:
            parts = head.group(0).strip(".").split(".")
            names.update(".".join(parts[i:]) for i in range(len(parts)))
    return names


def test_every_public_name_is_reached_or_kept_in_readme():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    uses = {name: _used_names(ast.walk(tree)) for name, tree in trees.items()}
    kept = _readme_names()
    unreached = []
    checked = 0
    for module, tree in trees.items():
        for qualified, bare, node in _public_definitions(tree):
            checked += 1
            own = _used_names(ast.walk(node)).count(bare)
            total = sum(names.count(bare) for names in uses.values())
            if total > own or qualified in kept:
                continue
            unreached.append(f"{module}: {qualified}")
    assert checked > 100
    assert not unreached, ("public names with no caller in src/pstlab and no "
                           f"README entry: {unreached}")


def _names_a_kind(node, constants) -> bool:
    if isinstance(node, ast.Name):
        return node.id in constants
    if isinstance(node, ast.Attribute):
        return node.attr in constants
    return isinstance(node, ast.Constant) and node.value in spectral.KINDS


def test_only_spectral_lists_the_matrix_kinds():
    """spectral.KINDS is the one list of matrix kinds: outside spectral.py
    no `in` or `not in` tests membership of a literal tuple, list or set
    holding a kind constant or a kind's name."""
    constants = {name for name, value in vars(spectral).items()
                 if name.isupper() and isinstance(value, str) and value in spectral.KINDS}
    assert constants == {"LAPLACIAN", "ADJACENCY", "SIGNLESS_LAPLACIAN"}
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            for op, right in zip(node.ops, node.comparators):
                if (isinstance(op, (ast.In, ast.NotIn))
                        and isinstance(right, (ast.Tuple, ast.List, ast.Set))
                        and any(_names_a_kind(e, constants) for e in right.elts)):
                    copies.append(f"{path.name}:{node.lineno}")
    assert not copies, f"membership tests against a second list of kinds: {copies}"


# the replay and numeric routes: each body must stay clear of the decider
CHECKERS = {
    "harness.py": {"replay_certificate", "_parity_data", "_cached_profile",
                   "verify_positive_report", "_report_fault", "_witness_fault",
                   "_graph_facts", "_residual_fault"},
    "pst.py": {"numeric_fidelity"},
    "spectral.py": {"support_profile", "cospectrality_profile", "classify_by_minpolys",
                    "projection_sign", "walks_differ_at", "_factored_support"},
}
DECIDER = {"decide", "laplacian_pst", "adjacency_pst", "all_pair_reports", "pst_search",
           "_context", "_SpectralContext", "_ids_of", "_is_root", "_cospectrality_gate",
           "modular_minpolys"}


def test_checkers_reference_no_decider_code():
    """Simplifying must not merge the checker into the checked: no body of
    the replay or numeric route names the decider or its cached spectral
    context."""
    pst_tree = ast.parse((PACKAGE / "pst.py").read_text(encoding="utf-8"))
    defined = {node.name for node in pst_tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {alias.name for node in pst_tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert DECIDER <= defined, f"decider names no longer in pst.py: {DECIDER - defined}"
    found, leaks = set(), []
    for module, names in CHECKERS.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                found.add(node.name)
                used = set(_used_names(ast.walk(node))) & DECIDER
                leaks += [f"{module}: {node.name} uses {name}" for name in sorted(used)]
    assert found == set().union(*CHECKERS.values())
    assert not leaks, f"the replay route reaches into the decider: {leaks}"


def _readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_readme_keep_bullets_name_defined_functions():
    """The reverse of the first test: each `name(...)` that heads a bullet
    of the README's theorem-check section (before the bullet's colon) is a
    function, class or `Class.method` still defined in src/pstlab, so no
    bullet outlives the code it keeps."""
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                if isinstance(node, ast.ClassDef):
                    defined.update(f"{node.name}.{sub.name}" for sub in node.body
                                   if isinstance(sub, ast.FunctionDef))
    named = []
    for line in _readme_section("Theorem checks and screens").splitlines():
        if line.startswith("* "):
            head = line.split("`:")[0]
            named += re.findall(r"`([A-Za-z_][\w.]*)\(", head)
    assert len(named) >= 15
    missing = sorted(set(named) - defined)
    assert not missing, f"README keeps names that src/pstlab no longer defines: {missing}"
