"""Rules about the package source itself, checked on its syntax tree."""

import ast
import importlib.util
import os
import subprocess
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


def package_imports(source: str, module: str) -> list:
    """``(line, target, name)`` for every import of a ``simorx`` module in
    ``source``, the text of module ``module`` (dotted, ``__init__`` for a
    package's own file): ``from target import name``, with relative targets
    resolved, and ``import target`` with ``name`` None."""
    package = module.split(".")[:-1]
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name, None) for a in node.names if a.name.split(".")[0] == "simorx"]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module
            if target.split(".")[0] == "simorx":
                found += [(node.lineno, target, a.name) for a in node.names]
    return sorted(found, key=lambda f: f[0])


def private_imports(source: str, module: str) -> list:
    """``(line, "target.name")`` for every ``_``-prefixed name that
    ``source`` imports from another ``simorx`` module; dunders such as
    ``__version__`` are public."""
    return [
        (line, f"{target}.{name}")
        for line, target, name in package_imports(source, module)
        if name and name.startswith("_") and not name.endswith("__") and target != module
    ]


def imports_of(source: str, module: str, wanted: str) -> list:
    """The lines on which ``source`` imports ``wanted`` or a name from it."""
    return [
        line
        for line, target, name in package_imports(source, module)
        if wanted in (target, f"{target}.{name}")
    ]


def test_the_rules_see_every_form_of_package_import():
    source = (
        "from __future__ import annotations\n"
        "from ..training import TrainConfig, _pool\n"
        "from .. import training, __version__\n"
        "from . import _private\n"
        "from simorx.chain import _openblas\n"
        "import simorx.training as t\n"
        "from numpy import _core\n"
        "from .bler import _own_helper\n"
    )
    module = "simorx.harness.bler"
    assert package_imports(source, module) == [
        (2, "simorx.training", "TrainConfig"), (2, "simorx.training", "_pool"),
        (3, "simorx", "training"), (3, "simorx", "__version__"),
        (4, "simorx.harness", "_private"),
        (5, "simorx.chain", "_openblas"),
        (6, "simorx.training", None),
        (8, "simorx.harness.bler", "_own_helper"),
    ]
    assert private_imports(source, module) == [
        (2, "simorx.training._pool"), (4, "simorx.harness._private"), (5, "simorx.chain._openblas"),
    ]
    assert imports_of(source, module, "simorx.training") == [2, 2, 3, 6]
    init = "from .bler import _helper\nfrom . import _x\n"
    assert private_imports(init, "simorx.harness.__init__") == [
        (1, "simorx.harness.bler._helper"), (2, "simorx.harness._x"),
    ]


def module_name(path: Path) -> str:
    return ".".join(("simorx",) + path.relative_to(PACKAGE_DIR).with_suffix("").parts)


def test_no_module_imports_another_modules_private_names():
    # A private name is one module's business; a name that two modules
    # share belongs, public, in the module that owns it.
    files = sorted(PACKAGE_DIR.rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
        for path in files
        for line, name in private_imports(path.read_text(encoding="utf-8"), module_name(path))
    ]
    assert offenders == []


def test_evaluation_imports_nothing_from_training():
    # Evaluation shares the shard code with training through chain.py.
    offenders = [
        f"{name}:{line}"
        for name in ("harness/bler.py", "harness/genie.py")
        for line in imports_of(
            (PACKAGE_DIR / name).read_text(encoding="utf-8"), module_name(PACKAGE_DIR / name), "simorx.training"
        )
    ]
    assert offenders == []


def fresh_python(code: str) -> list:
    """The words ``code`` prints, run in a new interpreter that imports the package from ``src``."""
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.split()


def test_importing_the_package_loads_no_thread_pool_or_blas_handle():
    # Training and evaluation load both only when a run shards its batches
    # over threads, so that importing the package stays as cheap as it was.
    assert fresh_python(
        "import sys, simorx.training, simorx.transfer, simorx.harness.bler, simorx.harness.sweep, simorx.harness.cli\n"
        "print('concurrent.futures' in sys.modules, simorx.chain._openblas.cache_info().currsize)"
    ) == ["False", "0"]


def test_set_up_loads_no_masked_arrays():
    # numpy's set routines (np.unique, np.setdiff1d, ...) import numpy.ma,
    # about 20 ms of every process's set-up that nothing in the package uses.
    assert fresh_python(
        "import sys, simorx.config, simorx.training, simorx.harness.bler\n"
        "from simorx.chain import code_for_grid\n"
        "cfg = simorx.config.make_train_config('desk', modulation='qpsk')\n"
        "code_for_grid(cfg.grid, cfg.scheme(), cfg.ldpc_seed)\n"
        "print('numpy.ma' in sys.modules)"
    ) == ["False"]


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
