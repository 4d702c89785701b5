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
