"""Every public function, class and method in ``src/usteen/`` is read by
other code in ``src/``, and every parameter with a default is passed by some
call, or ``README.md`` names the definition as library surface.

A definition counts as read when some ``src/`` code outside its own body
reads its name: a top-level name as a name or an attribute, a method as an
attribute.  The match is by name, so a method that shares its name with
another attribute read counts as read.  A parameter counts as passed when a
call in ``src/``, ``tests/`` or ``perfbench/`` passes it; calls match by
name too.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "usteen"
CALLERS = (SRC, ROOT / "tests", ROOT / "perfbench")


def read_status(sources: dict) -> dict:
    """For each public top-level function or class and each public method in
    ``sources`` (module name -> source text), keyed ``module.name`` or
    ``module.Class.method``: whether code in ``sources`` reads it outside its
    own body.

    ``self.m`` or ``cls.m`` inside class C, where C defines the method m,
    reads only C.m and its overrides in subclasses of C; any other
    attribute read matches every method of its name."""
    defs, reads = [], defaultdict(list)  # name -> (read as an attribute, enclosing defs)
    own_reads = defaultdict(list)  # (class, method) -> enclosing defs of its self. reads
    methods, bases = {}, {}  # class name -> the names of its methods, of its bases

    def visit(node, module, owner, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if not child.name.startswith("_") and (node is owner or not enclosing):
                    prefix = f"{module}.{owner.name}." if node is owner else f"{module}."
                    defs.append((prefix + child.name, child.name,
                                 owner.name if node is owner else None, child))
                is_class = isinstance(child, ast.ClassDef) and not enclosing
                if isinstance(child, ast.ClassDef):
                    methods[child.name] = {f.name for f in child.body
                                           if isinstance(f, ast.FunctionDef)}
                    bases[child.name] = [getattr(b, "id", getattr(b, "attr", None))
                                         for b in child.bases]
                visit(child, module, child if is_class else None, enclosing + (child,))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                reads[child.id].append((False, enclosing))
            elif isinstance(child, ast.Attribute):
                cls = next((n.name for n in reversed(enclosing) if isinstance(n, ast.ClassDef)),
                           None)
                if (cls and isinstance(child.value, ast.Name) and child.value.id in ("self", "cls")
                        and child.attr in methods[cls]):
                    own_reads[(cls, child.attr)].append(enclosing)
                else:
                    reads[child.attr].append((True, enclosing))
            visit(child, module, owner, enclosing)

    for module, source in sources.items():
        visit(ast.parse(source), module, None, ())

    def lineage(cls):
        """cls and every class it derives from, by name."""
        out, todo = set(), [cls]
        while todo:
            c = todo.pop()
            if c not in out:
                out.add(c)
                todo.extend(b for b in bases.get(c, ()) if b)
        return out

    return {
        qualname: any((attr or owner is None) and node not in enclosing
                      for attr, enclosing in reads[name])
        or (owner is not None and any(node not in enclosing for c in lineage(owner)
                                      for enclosing in own_reads[(c, name)]))
        for qualname, name, owner, node in defs
    }


def unset_defaults(sources: dict, callers) -> list:
    """The defaulted parameters of the public functions and methods in
    ``sources`` (module name -> source text) that no call in ``callers``
    (source texts) passes, as ``module.name(param)`` or
    ``module.Class.method(param)``.

    A call matches a function or method by name, and ``__init__`` by the
    name of its class.  It passes a parameter by keyword, by position, or
    by spreading ``*args`` or ``**kwargs``.
    """
    calls = defaultdict(list)  # callee name -> (positional count, keywords, spreads)
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                spreads = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls[name].append((len(node.args), {k.arg for k in node.keywords}, spreads))
    unset = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node, None)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [(fn, node) for fn in node.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for fn, cls in members:
                if fn.name.startswith("_") and fn.name != "__init__":
                    continue
                args = fn.args.posonlyargs + fn.args.args
                # the position of a method's parameter in a call skips self or cls
                bound = cls is not None and "staticmethod" not in [
                    getattr(d, "id", None) for d in fn.decorator_list]
                first = len(args) - len(fn.args.defaults)
                params = [(a.arg, k - bound) for k, a in enumerate(args) if k >= first]
                params += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                           if d is not None]
                key = cls.name if fn.name == "__init__" else fn.name
                qualname = f"{module}.{cls.name}.{fn.name}" if cls else f"{module}.{fn.name}"
                for param, pos in params:
                    if not any(spreads or param in keywords or (pos is not None and npos > pos)
                               for npos, keywords, spreads in calls[key]):
                        unset.append(f"{qualname}({param})")
    return unset


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


def test_the_scan_resolves_self_reads_to_the_class():
    sources = {
        "a": "class A:\n    def m(self):\n        pass\n\n    def k(self):\n        pass\n\n"
             "class B:\n    def m(self):\n        pass\n\n    def run(self):\n"
             "        return self.m(), self.k()\n\n"
             "class C(A):\n    def m(self):\n        pass\n\n"
             "class D(A):\n    def go(self):\n        return self.m()\n",
        "b": "x = A, B().run, C, D().go\n",
    }
    # B defines no k, so its self.k reads every k; D's self.m reads the m it
    # inherits from A and A's overrides, C.m among them
    assert all(read_status(sources).values())
    # without D, B's self.m reads B.m only, so A.m and C.m are unread
    sources["a"] = sources["a"].split("class D")[0]
    sources["b"] = "x = A, B().run, C\n"
    assert [q for q, read in read_status(sources).items() if not read] == ["a.A.m", "a.C.m"]


def test_every_public_definition_is_read_or_named_in_the_readme():
    status = read_status({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))})
    surface = library_surface()
    assert sorted(q for q, read in status.items() if not read and q not in surface) == []
    assert sorted(surface - set(status)) == [], "README names a definition that does not exist"


def test_the_scan_sees_unset_defaults():
    sources = {
        "a": "def f(x, y=1, *, z=2):\n    pass\n\ndef g(w=0):\n    pass\n\n"
             "def _h(v=0):\n    pass\n\n"
             "class C:\n    def __init__(self, p=0):\n        pass\n\n"
             "    def m(self, q=0, r=0):\n        pass\n",
    }
    callers = ["f(1, 2)\nC(5)\nobj.m(**options)\n"]
    # y and p are passed by position, q and r by the spread; z and w by nothing
    assert unset_defaults(sources, callers) == ["a.f(z)", "a.g(w)"]


def test_every_defaulted_parameter_is_passed_or_named_in_the_readme():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = [p.read_text() for d in CALLERS for p in sorted(d.glob("*.py"))]
    surface = library_surface()
    assert [q for q in unset_defaults(sources, callers) if q.split("(")[0] not in surface] == []
