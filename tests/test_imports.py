"""Every name a ``bgtriplex`` module or a test file imports is read there,
and the reference network in ``tests/reference.py`` uses no model code.

The first is a stdlib stand-in for a linter's unused-import rule (F401):
an import statement marked ``# noqa: F401`` is exempt, and a name listed
in the module's ``__all__`` counts as read.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "bgtriplex"


def dotted(node):
    """``a.b.c`` for a Name or an Attribute chain rooted at a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source):
    """(line, name) of each imported name the source never reads.

    ``import a.b`` counts as read only where ``a.b`` itself is.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if isinstance(node, ast.Import) and alias.asname is None:
                imported.append((node.lineno, alias.name))
            else:
                imported.append((node.lineno, alias.asname or alias.name))
    read = set()
    for node in ast.walk(tree):
        name = dotted(node)
        if name is not None:
            parts = name.split(".")
            read.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
        if (isinstance(node, ast.Assign) and any(dotted(t) == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os\nos.getcwd()\n", []),
    ("from a import b, c\nb()\n", [(1, "c")]),
    ("from a import b as c\nc()\n", []),
    ("import click\nimport click.exceptions\nclick.echo()\n", [(2, "click.exceptions")]),
    ("import click.exceptions\nclick.exceptions.Exit\n", []),
    ("from a import (b,  # noqa: F401\n    c)\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from a import b\n    return 1\n", [(2, "b")]),
])
def test_the_check_itself(source, unused):
    assert unused_imports(source) == unused


# What the reference must not use: the model module, and the model's or
# autodiff's attention and the stages built on it.
MODEL_CODE = {"bgtriplex.model", "attention", "guided_attention", "guided_branch", "fuse",
              "forward_batch"}


def model_code_reads(source):
    """(line, name) of each use of ``MODEL_CODE`` in the source: an import
    of ``bgtriplex.model``, or a name, attribute, imported name or string
    constant that is one of the others."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module]
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        else:
            modules, names = [dotted(node)], [getattr(node, "attr", getattr(node, "id", None))]
            if isinstance(node, ast.Constant):
                names.append(node.value)
        if any(m and (m + ".").startswith("bgtriplex.model.") for m in modules):
            found.append((node.lineno, "bgtriplex.model"))
        found += [(node.lineno, name) for name in names
                  if isinstance(name, str) and name in MODEL_CODE]
    return sorted(set(found))


def test_reference_uses_no_model_code():
    assert model_code_reads((TESTS / "reference.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("from bgtriplex.model import ModelParams\n", [(1, "bgtriplex.model")]),
    ("from bgtriplex import model\n", [(1, "bgtriplex.model")]),
    ("from bgtriplex import model as m\n", [(1, "bgtriplex.model")]),
    ("import bgtriplex.model\n", [(1, "bgtriplex.model")]),
    ("import bgtriplex\nbgtriplex.model.ModelConfig\n", [(2, "bgtriplex.model")]),
    ("from bgtriplex import autodiff as ad\nad.attention(q, k, v, 1)\n", [(2, "attention")]),
    ("from bgtriplex.autodiff import attention as a\n", [(1, "attention")]),
    ("x = guided_attention\n", [(1, "guided_attention")]),
    ("getattr(m, 'guided_branch')\n", [(1, "guided_branch")]),
    ("m.fuse(a)\nforward_batch(ds)\n", [(1, "fuse"), (2, "forward_batch")]),
    ("from bgtriplex import autodiff as ad\nad.matmul(a, b)\nmodel_free = 1\n", []),
    ("from bgtriplex.modelling import x\n", []),
])
def test_the_reference_check_itself(source, found):
    assert model_code_reads(source) == found
