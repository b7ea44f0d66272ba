"""Every public name of the package has a caller in the package.

An AST scan of ``src/iqpverify``: each name in a module's ``__all__`` must be
read somewhere in the package source.  Its own definition, its ``__all__``
entry and its re-export from ``__init__`` do not count, nor do docstrings.
What only tests call belongs with the tests; the names below are the public
entry points kept for callers outside the package.  The comparison is exact:
a listed name that gains a caller leaves the list.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "iqpverify"

ALLOWED = {
    "dot": "the GF(2) inner product of two vectors, imported by the acceptance tests",
    "nullspace_basis": "the reference that padding rows are the XORs of, for the attack suite",
    "mc_sample_count": "the Hoeffding sample budget that the benchmark and acceptance tests use",
    "prover_honest": "the one-shot honest prover that the pooled server's replies must equal",
    "random_2local": "the two-local ensemble as programs, which the anticoncentration draw equals",
}


def modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def readers(tree, packages):
    """(name, top-level definition it is read in, or None) for every name read in the module.

    A name is read bare, or as an attribute of a package module (``experiments.exp_fig1a``).
    """
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in packages:
                found.add((node.attr, owner))
    return found


def uncalled():
    trees = modules()
    read = {
        (name, module, owner)
        for module, tree in trees.items()
        if module != "__init__"  # its imports are the re-exports
        for name, owner in readers(tree, trees)
    }
    return sorted(
        name
        for module, tree in trees.items()
        for name in exported(tree)
        if not any(n == name and (m, o) != (module, name) for n, m, o in read)
    )


def test_every_public_name_has_a_caller_in_the_package():
    assert uncalled() == sorted(ALLOWED)
