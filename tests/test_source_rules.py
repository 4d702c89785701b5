"""Rules about the package source itself, checked on its syntax tree."""

import ast
import importlib.util
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "simorx"
ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list:
    """``(line, text)`` of every read of the process environment in ``source``:
    ``os.environ``, ``os.getenv`` and their bytes forms, however ``os`` or
    the name is imported."""
    tree = ast.parse(source)
    os_names = {"os"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(a.asname or a.name for a in node.names if a.name == "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {a.name}") for a in node.names if a.name in ENV_READS]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_READS
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_rule_sees_every_form_of_environment_read():
    source = (
        "import os\nimport os as o\nfrom os import getenv\n"
        "a = os.environ['X']\nb = o.getenv('Y')\nc = os.environb\nd = os.path.join('p')\n"
    )
    assert environment_reads(source) == [
        (3, "from os import getenv"), (4, "os.environ"), (5, "o.getenv"), (6, "os.environb"),
    ]


def test_the_package_reads_no_environment_variables():
    # Configuration lives in the config objects and the manifest; an
    # environment variable would change results that no file records.
    files = sorted(PACKAGE_DIR.rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {text}"
        for path in files
        for line, text in environment_reads(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def _roots_at_self(node) -> bool:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
        if isinstance(node, ast.Name) and node.id == "self":
            return True
    return False


def self_writes_in_passes(source: str) -> list:
    """``(line, method)`` of every write to ``self`` state inside a
    ``forward`` or ``backward`` method in ``source``: an assignment or
    augmented assignment to ``self.x`` (or ``self.x[...]``, ``self.x.y``,
    or inside a tuple target), and ``setattr(self, ...)``."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name not in ("forward", "backward"):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
            ):
                found.append((node.lineno, func.name))
                continue
            else:
                continue
            for target in targets:
                elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
                if any(_roots_at_self(t) for t in elts):
                    found.append((node.lineno, func.name))
    return sorted(found)


def test_the_rule_sees_every_form_of_self_write():
    source = (
        "class A:\n"
        "    def forward(self, x, tape=None):\n"
        "        self.cache = x\n"
        "        y, self.mask = x, x\n"
        "        self.count += 1\n"
        "        self.buf[0] = x\n"
        "        setattr(self, 'z', x)\n"
        "        tape[self] = x\n"
        "        other.cache = x\n"
        "        return x\n"
        "    def backward(self, grad_out, tape):\n"
        "        self.grad: int = 0\n"
        "        return tape.pop(self)\n"
        "    def astype(self, dtype):\n"
        "        self.w = dtype\n"
    )
    assert self_writes_in_passes(source) == [
        (3, "forward"), (4, "forward"), (5, "forward"), (6, "forward"), (7, "forward"),
        (12, "backward"),
    ]


def test_layers_keep_no_per_call_state():
    # What a backward pass reads goes on the caller's tape, so that one
    # model can serve several forwards at once.
    offenders = [
        f"{name}:{line}: {method}"
        for name in ("numerics/layers.py", "receiver.py")
        for line, method in self_writes_in_passes((PACKAGE_DIR / name).read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_every_benchmark_wrap_point_resolves(monkeypatch):
    # The benchmark tracer replaces these functions and methods by name; a
    # rename or removal in the package would break its traced runs.
    path = PACKAGE_DIR.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    points = tracer._wrap_points()
    assert points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in points
        if not callable((owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr))
    ]
    assert missing == []
