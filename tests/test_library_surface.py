"""Every public function, class and method in ``src/usteen/`` is read by
other code in ``src/``, or ``README.md`` names it as library surface.

A definition counts as read when some ``src/`` code outside its own body
reads its name: a top-level name as a name or an attribute, a method as an
attribute.  The match is by name, so a method that shares its name with
another attribute read counts as read.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "usteen"


def read_status(sources: dict) -> dict:
    """For each public top-level function or class and each public method in
    ``sources`` (module name -> source text), keyed ``module.name`` or
    ``module.Class.method``: whether code in ``sources`` reads it outside its
    own body."""
    defs, reads = [], defaultdict(list)  # name -> (read as an attribute, enclosing defs)

    def visit(node, module, owner, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if not child.name.startswith("_") and (node is owner or not enclosing):
                    prefix = f"{module}.{owner.name}." if node is owner else f"{module}."
                    defs.append((prefix + child.name, child.name, owner is not None, child))
                is_class = isinstance(child, ast.ClassDef) and not enclosing
                visit(child, module, child if is_class else None, enclosing + (child,))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                reads[child.id].append((False, enclosing))
            elif isinstance(child, ast.Attribute):
                reads[child.attr].append((True, enclosing))
            visit(child, module, owner, enclosing)

    for module, source in sources.items():
        visit(ast.parse(source), module, None, ())
    return {
        qualname: any((attr or not is_method) and node not in enclosing
                      for attr, enclosing in reads[name])
        for qualname, name, is_method, node in defs
    }


def library_surface() -> set:
    """The dotted names listed under README's "Library surface" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `([\w.]+)`", section, flags=re.M))


def test_the_scan_sees_unread_definitions():
    sources = {
        "a": "def f():\n    return f()\n\ndef g():\n    pass\n\n"
             "class C:\n    def m(self):\n        return self.n\n\n    def n(self):\n        pass\n",
        "b": "from .a import g\nx = g\ny = m\n\ndef _private():\n    pass\n",
    }
    # f reads only itself; m is read as a name, not as an attribute
    assert read_status(sources) == {
        "a.f": False, "a.g": True, "a.C": False, "a.C.m": False, "a.C.n": True}


def test_every_public_definition_is_read_or_named_in_the_readme():
    status = read_status({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))})
    surface = library_surface()
    assert sorted(q for q, read in status.items() if not read and q not in surface) == []
    assert sorted(surface - set(status)) == [], "README names a definition that does not exist"
