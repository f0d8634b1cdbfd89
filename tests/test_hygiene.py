import ast
import functools
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC = sorted((_ROOT / "src" / "balines").glob("*.py"))


@pytest.mark.parametrize("path", _SRC, ids=lambda p: p.name)
def test_every_import_is_used(path):
    """Each name a module imports is read somewhere in it, or re-exported
    through its __all__."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _names_read(path):
    """The names a module reads, bare or as attributes."""
    tree = ast.parse(path.read_text())
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


_READ = set().union(*map(_names_read, _SRC))


@pytest.mark.parametrize("path", _SRC, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    """Each module-level private function and class is read somewhere in
    src/balines."""
    private = {node.name: node.lineno for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    unread = {name: line for name, line in private.items() if name not in _READ}
    assert not unread, f"{path.name}: unreferenced private definitions {unread}"


def _names_spelled(path):
    """The names a bench module reads, plus each part of a string literal
    that is a dotted name, so that the tracer's "Configuration.load" counts
    as naming Configuration and load."""
    tree = ast.parse(path.read_text())
    return _names_read(path).union(*(
        n.value.split(".") for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
        and re.fullmatch(r"\w+(\.\w+)*", n.value)))


# What the program runs: names read in src/balines outside __init__.py, whose
# re-exports alone do not make a definition used, or named by the bench.
_USED = set().union(*(_names_read(p) for p in _SRC if p.name != "__init__.py"),
                    *map(_names_spelled, sorted((_ROOT / "bench").glob("*.py"))))


@pytest.mark.parametrize("path", _SRC, ids=lambda p: p.name)
def test_every_public_definition_is_used(path):
    """Each public module-level function and class, and each public method,
    is read in src/balines or named in bench/*.py.  What only the tests
    read belongs under tests/ (the paper's closed forms in tests/paper.py)."""
    defs = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            defs.update({f"{node.name}.{f.name}": f.lineno for f in node.body
                         if isinstance(f, ast.FunctionDef)})
    unused = {name: line for name, line in defs.items()
              if not name.split(".")[-1].startswith("_")
              and name.split(".")[-1] not in _USED}
    assert not unused, f"{path.name}: public definitions nothing runs {unused}"


def _imported_from_balines(path):
    """The names a module imports with ``from balines import ...``."""
    return {a.name for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.ImportFrom) and n.module == "balines" for a in n.names}


def test_every_exported_name_is_used():
    """Each name in balines.__all__ is read in src/balines outside
    __init__.py or imported from balines by a bench module; a reference
    only the tests use is imported from its own module."""
    import balines

    read = set().union(*(_names_read(p) for p in _SRC if p.name != "__init__.py"),
                       *map(_imported_from_balines, sorted((_ROOT / "bench").glob("*.py"))))
    unused = sorted(set(balines.__all__) - read)
    assert not unused, f"balines.__all__ exports names nothing runs: {unused}"


def test_every_traced_name_resolves():
    """bench/tracer.py wraps each name in TRACED with getattr, so a name the
    package no longer defines would crash every traced bench run."""
    spec = importlib.util.spec_from_file_location("tracer", _ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod, attrs in tracer.TRACED.items():
        module = importlib.import_module(f"balines.{mod}")
        for attr in attrs:
            try:
                functools.reduce(getattr, attr.split("."), module)
            except AttributeError:
                missing.append(f"{mod}.{attr}")
    assert not missing, f"traced names the package does not define: {missing}"


def _coeffs_reads(path):
    """Line numbers where a module reads an attribute named coeffs, other than
    HilbertSeries reading its own self.coeffs."""
    tree = ast.parse(path.read_text())
    own = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
           and c.name == "HilbertSeries" for n in ast.walk(c)
           if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
           and n.value.id == "self"}
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and n.attr == "coeffs" and id(n) not in own]


@pytest.mark.parametrize("path", [p for p in _SRC if p.name != "poly.py"], ids=lambda p: p.name)
def test_only_poly_reads_coeffs(path):
    """DensePoly's Fraction view stays inside poly.py: every other module reads
    nums and den, so no denominator clearing comes back outside it."""
    lines = _coeffs_reads(path)
    assert not lines, f"{path.name} reads .coeffs at lines {lines}"


def _indented_json_calls(path):
    """Line numbers where a module calls json.dump, or json.dumps with an
    indent."""
    return [n.lineno for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and (n.func.attr == "dump"
                 or n.func.attr == "dumps" and any(k.arg == "indent" for k in n.keywords))]


@pytest.mark.parametrize("path", _SRC, ids=lambda p: p.name)
def test_only_the_writer_indents_json(path):
    """Every indented JSON output is jsontext.to_json_text's text, so its
    format is decided in one function."""
    lines = _indented_json_calls(path)
    assert not lines, f"{path.name} writes indented JSON itself at lines {lines}"


def _mpf_angle_sorts(path):
    """Line numbers where a module sorts by an angle: a key= lambda that
    reads .phi, or sorted() or .sort() over an expression that reads .phi."""
    def reads_phi(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "phi" for n in ast.walk(node))

    lines = []
    for n in ast.walk(ast.parse(path.read_text())):
        if not isinstance(n, ast.Call):
            continue
        if any(k.arg == "key" and isinstance(k.value, ast.Lambda) and reads_phi(k.value.body)
               for k in n.keywords):
            lines.append(n.lineno)
        sorts = (isinstance(n.func, ast.Name) and n.func.id == "sorted"
                 or isinstance(n.func, ast.Attribute) and n.func.attr == "sort")
        if sorts and n.args and reads_phi(n.args[0]):
            lines.append(n.lineno)
    return lines


@pytest.mark.parametrize("path", _SRC, ids=lambda p: p.name)
def test_no_sort_by_an_mpf_angle(path):
    """Lines and angles are ordered on exact ints (numeric.order_keys) or
    checked on them (numeric.angle_gap), not by mpf comparisons."""
    lines = _mpf_angle_sorts(path)
    assert not lines, f"{path.name} sorts by an mpf angle at lines {lines}"


def _mp_cot_calls(path):
    """Line numbers where a module calls mp.cot or mpmath.cot."""
    return [n.lineno for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "cot" and isinstance(n.func.value, ast.Name)
            and n.func.value.id in ("mp", "mpmath")]


@pytest.mark.parametrize("path", _SRC, ids=lambda p: p.name)
def test_no_mp_cot(path):
    """Numeric slopes come from the fixed-point cos and sin of a line's
    angle, not from an mpf cotangent."""
    lines = _mp_cot_calls(path)
    assert not lines, f"{path.name} calls mp.cot at lines {lines}"
