"""Rules about the package source itself, checked on its syntax tree."""

import ast
import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _root_name(node):
    """The name an expression reads through attributes, subscripts and
    method calls (``x``, ``x[0]``, ``x.reshape(-1)``, ``x.T[1:]``), or None."""
    while True:
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            node = node.func.value
        else:
            return node.id if isinstance(node, ast.Name) else None


def input_writes_in_forwards(source: str) -> list:
    """``(line, name)`` of every write into a ``forward`` method's input in
    ``source``: an augmented assignment to the input, a subscript assignment
    into it, or ``out=`` naming it.  Names bound to a view of the input
    (``x2 = x.reshape(...)``, ``v = x[1:]``) count as the input."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name != "forward" or len(func.args.args) < 2:
            continue
        aliases = {func.args.args[1].arg}
        body = list(ast.walk(func))
        for node in body:
            if isinstance(node, ast.Assign) and _root_name(node.value) in aliases:
                aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in body:
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
            elif isinstance(node, ast.Call):
                targets = [k.value for k in node.keywords if k.arg == "out"]
            else:
                continue
            found += [(node.lineno, _root_name(t)) for t in targets if _root_name(t) in aliases]
    return sorted(found)


def test_the_rule_sees_every_form_of_input_write():
    source = (
        "class A:\n"
        "    def forward(self, x, tape=None):\n"
        "        x += 1\n"
        "        x[0] = 1\n"
        "        np.maximum(x, 0, out=x)\n"
        "        v = x.reshape(-1)\n"
        "        v *= 2\n"
        "        x.T[1:] = 0\n"
        "        y = x * 2\n"
        "        y += x\n"
        "        y[0] = x[0]\n"
        "        np.add(y, x, out=y)\n"
        "        tape[self] = x\n"
        "        return y\n"
        "    def backward(self, grad_out, tape):\n"
        "        grad_out *= 2\n"
        "class B:\n"
        "    def forward(self, inputs):\n"
        "        np.multiply(inputs, 2, out=inputs[1:])\n"
    )
    assert input_writes_in_forwards(source) == [
        (3, "x"), (4, "x"), (5, "x"), (7, "v"), (8, "x"), (19, "inputs"),
    ]


def test_no_forward_writes_into_its_input():
    # A tape holds layer inputs by reference, not copies: a forward that
    # wrote into its input would change what an earlier layer's backward reads.
    offenders = [
        f"{name}:{line}: {target}"
        for name in ("numerics/layers.py", "receiver.py")
        for line, target in input_writes_in_forwards((PACKAGE_DIR / name).read_text(encoding="utf-8"))
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


def imports_in(source: str) -> list:
    """``(line, module)`` of every import statement in ``source``, at any
    depth; ``module`` is dotted as written, with the leading dots of a
    relative import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
    return sorted(found)


def test_the_rule_sees_every_form_of_import():
    source = (
        '"""A package."""\n'
        "from .bler import run_bler\n"
        "from . import sweep\n"
        "import yaml\n"
        "if True:\n"
        "    import simorx.chain as c\n"
        "def f():\n"
        "    from ..config import load_yaml\n"
        "x = 'import os'\n"
    )
    assert imports_in(source) == [
        (2, ".bler"), (3, "."), (4, "yaml"), (6, "simorx.chain"), (8, "..config"),
    ]
    assert imports_in('"""Docstring only."""\n') == []


def test_subpackage_inits_import_nothing():
    # A subpackage that re-exported its modules' names would make every
    # job that imports one module of it import them all; each name has
    # one import path, the module that defines it.
    inits = sorted(PACKAGE_DIR.glob("*/__init__.py"))
    assert {p.parent.name for p in inits} >= {"channel", "harness", "numerics", "phy"}
    offenders = [
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {module}"
        for path in inits
        for line, module in imports_in(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


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


def test_the_rule_sees_every_form_of_layer_import():
    source = (
        "from .numerics.layers import Conv2D, LayerNorm\n"
        "from .numerics import layers\n"
        "import simorx.numerics.layers as L\n"
        "from .numerics.gradcheck import finite_diff_check\n"
        "from .receiver import ReceiverModel\n"
    )
    assert imports_of(source, "simorx.checkpoint", "simorx.numerics.layers") == [1, 1, 2, 3]


def test_checkpoint_imports_nothing_from_the_layers():
    # What a record holds is checkpoint.ARRAYS, looked up by a layer's
    # ``kind``; a layer class named in checkpoint.py would be a second place.
    path = PACKAGE_DIR / "checkpoint.py"
    source = path.read_text(encoding="utf-8")
    assert imports_of(source, module_name(path), "simorx.numerics.layers") == []


def layer_constructor_params(source: str) -> list:
    """``(line, class, parameter)`` of every parameter of ``__init__`` in
    each class of ``source`` that also defines ``forward``: every layer,
    block and model."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
        if "forward" in methods and "__init__" in methods:
            a = methods["__init__"].args
            params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
            found += [(p.lineno, cls.name, p.arg) for p in params if p is not None]
    return sorted(found)


def test_the_rule_sees_every_layer_constructor_parameter():
    source = (
        "class Conv:\n"
        "    def __init__(self, c, /, k, *args, rng, dtype=None, **kw):\n"
        "        pass\n"
        "    def forward(self, x):\n"
        "        pass\n"
        "class Spec:\n"
        "    def __init__(self, dtype):\n"
        "        pass\n"
    )
    assert layer_constructor_params(source) == [
        (2, "Conv", name) for name in sorted(("self", "c", "k", "args", "rng", "dtype", "kw"))
    ]


def test_no_layer_constructor_takes_a_precision():
    # Layers are built in float32, and ``astype`` is the one way to change
    # their precision.
    offenders = [
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {cls}({name})"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for line, cls, name in layer_constructor_params(path.read_text(encoding="utf-8"))
        if name == "dtype"
    ]
    assert offenders == []
    assert ("Conv2D", "rng") in {
        (cls, name) for _, cls, name in layer_constructor_params((PACKAGE_DIR / "numerics" / "layers.py").read_text(encoding="utf-8"))
    }


def test_the_scale_presets_are_the_only_copy_of_their_values(monkeypatch):
    # For every scale, make_train_config and make_eval_config fill exactly
    # the config fields that have no dataclass default, so no default can
    # disagree with a preset.
    import simorx.config as config
    from simorx.harness.bler import EvalConfig
    from simorx.harness.sweep import SweepConfig
    from simorx.training import TrainConfig

    assert len({frozenset(preset) for preset in config.SCALES.values()}) == 1
    for make, cls in ((config.make_train_config, TrainConfig), (config.make_eval_config, EvalConfig)):
        required = {
            f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        }
        filled = []
        monkeypatch.setattr(config, cls.__name__, lambda **kwargs: filled.append(set(kwargs)))
        for scale in config.SCALES:
            make(scale)
        assert filled == [required] * len(config.SCALES), cls.__name__
    assert SweepConfig().ebno_grid_db == config.EBNO_GRID_DB


def fields_with_one_value(*instances) -> list:
    """Names of the dataclass fields that hold an equal value in every one
    of ``instances``."""
    first, *rest = instances
    return [
        f.name for f in dataclasses.fields(first)
        if all(getattr(other, f.name) == getattr(first, f.name) for other in rest)
    ]


def test_the_rule_sees_every_field_with_one_value():
    @dataclasses.dataclass(frozen=True)
    class Grid:
        size: int = 8
        pilots: tuple = (2, 11)
        guard: int = 1

    assert fields_with_one_value(Grid(), Grid(guard=2)) == ["size", "pilots"]
    assert fields_with_one_value(Grid(), Grid(guard=2), Grid(pilots=(3,), guard=2)) == ["size"]
    assert fields_with_one_value(Grid(), Grid(size=4, pilots=(2,), guard=0)) == []


def test_every_grid_field_differs_between_the_scale_presets():
    # A GridConfig field that takes one value at every scale is not a
    # setting: it is a constant of phy/grid.py.
    from simorx.config import DESK_GRID, FULL_GRID

    assert fields_with_one_value(FULL_GRID, DESK_GRID) == []


def conv_kernels(source: str, default) -> list:
    """``(line, kernel)`` of every ``Conv2D(...)`` call in ``source``: its
    literal ``kernel`` argument, by keyword or third in place, or
    ``default`` when the call passes none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", getattr(node.func, "attr", None)) != "Conv2D":
            continue
        given = {k.arg: k.value for k in node.keywords}.get("kernel")
        if given is None and len(node.args) > 2:
            given = node.args[2]
        found.append((node.lineno, default if given is None else ast.literal_eval(given)))
    return sorted(found)


def test_the_rule_sees_every_conv_kernel():
    source = (
        "from .numerics import layers\n"
        "a = Conv2D(2, 3, rng=rng)\n"
        "b = Conv2D(2, 3, kernel=(1, 1), rng=rng)\n"
        "c = layers.Conv2D(2, 3, (5, 5), rng=rng)\n"
        "d = Conv(2, 3, (7, 7))\n"
    )
    assert conv_kernels(source, (3, 3)) == [(2, (3, 3)), (3, (1, 1)), (4, (5, 5))]


def test_conv_builds_only_the_kernels_the_package_uses():
    # KERNELS is what the package's Conv2D calls build, no more and no
    # less, and Conv2D rejects every other shape.
    import inspect

    import numpy as np

    from simorx.errors import ConfigError
    from simorx.numerics.layers import KERNELS, Conv2D

    default = inspect.signature(Conv2D).parameters["kernel"].default
    built = {
        kernel
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for _, kernel in conv_kernels(path.read_text(encoding="utf-8"), default)
    }
    assert built == set(KERNELS)
    for kernel in [(2, 3), (5, 5)]:
        with pytest.raises(ConfigError, match="kernel must be one of"):
            Conv2D(2, 2, kernel=kernel, rng=np.random.default_rng(0))


def fresh_python(code: str) -> list:
    """The words ``code`` prints, run in a new interpreter that imports the package from ``src``."""
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_importing_the_package_loads_no_thread_pool_or_blas_handle():
    # Training and evaluation load both only when a run shards its batches
    # over threads, so that importing the package stays as cheap as it was.
    assert fresh_python(
        "import sys, simorx.training, simorx.transfer, simorx.harness.bler, simorx.harness.sweep, simorx.harness.cli\n"
        "print('concurrent.futures' in sys.modules, simorx.chain._openblas.cache_info().currsize)"
    ) == ["False", "0"]


def test_set_up_imports_only_the_code_a_job_runs():
    # Training and evaluation set-up at desk scale.  Result files, sweeps,
    # the command line, transfer learning and the gradient checker are
    # other jobs' code, and YAML is read and written only with result
    # files.  numpy's set routines (np.unique, np.setdiff1d, ...) import
    # numpy.ma, about 20 ms of every process's set-up that nothing uses.
    unused = (
        "yaml", "simorx.harness.results", "simorx.harness.sweep", "simorx.harness.cli",
        "simorx.transfer", "simorx.numerics.gradcheck", "numpy.ma",
    )
    assert fresh_python(
        "import sys, simorx.config, simorx.training, simorx.harness.bler, simorx.checkpoint\n"
        "from simorx.chain import code_for_grid\n"
        "cfg = simorx.config.make_train_config('desk', modulation='qpsk')\n"
        "code_for_grid(cfg.grid, cfg.scheme(), cfg.ldpc_seed)\n"
        f"print('loaded:', *[m for m in {unused!r} if m in sys.modules])"
    ) == ["loaded:"]


@pytest.mark.parametrize(
    "argv, code, unused",
    [
        (["eval", "--checkpoint", "missing.ckpt"], 2, ("simorx.harness.sweep", "simorx.transfer")),
        (["params", "--scale", "desk"], 0, ("yaml", "simorx.harness.results", "simorx.harness.sweep")),
    ],
    ids=["eval", "params"],
)
def test_a_verb_imports_only_the_code_it_runs(argv, code, unused):
    # The command line imports each verb's modules when that verb runs; a
    # missing checkpoint makes ``eval`` exit 2 after its imports.
    assert fresh_python(
        "import contextlib, io, sys\n"
        "from simorx.harness.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(code, 'loaded:', *[m for m in {unused!r} if m in sys.modules])"
    ) == [str(code), "loaded:"]


def test_every_module_imports_first_without_a_cycle():
    # Each module is imported into an interpreter that holds no other
    # simorx module, so an import cycle shows whichever module starts it.
    # ``__main__`` runs the command line when imported and is left out.
    modules = sorted(
        module_name(path).removesuffix(".__init__")
        for path in PACKAGE_DIR.rglob("*.py")
        if path.name != "__main__.py"
    )
    assert "simorx.harness.results" in modules and "simorx.config" in modules
    assert fresh_python(
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    for key in [k for k in sys.modules if k == 'simorx' or k.startswith('simorx.')]:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module(name)\n"
        "    print(name)"
    ) == modules


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


def uses_of(source: str, names) -> list:
    """``(line, scope, name)`` of every use of one of ``names`` in
    ``source``, as a bare name or as an attribute (``m.name``), called or
    passed on; ``scope`` is the dotted path of the enclosing classes and
    functions, ``""`` at module level.  Definitions and imports are not uses."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Name) and child.id in names:
                found.append((child.lineno, scope, child.id))
            elif isinstance(child, ast.Attribute) and child.attr in names:
                found.append((child.lineno, scope, child.attr))
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_the_rule_sees_every_form_of_use():
    source = (
        "from .checkpoint import save_checkpoint\n"
        "import simorx.checkpoint as c\n"
        "def save_checkpoint(ck, path):\n"
        "    pass\n"
        "save_checkpoint(ck, 'a')\n"
        "class TrainResult:\n"
        "    def save(self, out_dir, name):\n"
        "        save_checkpoint(self.checkpoint, name)\n"
        "        def later():\n"
        "            c.save_checkpoint(ck, name)\n"
        "writer = save_checkpoint\n"
        "_write_manifest({}, 'out')\n"
    )
    assert uses_of(source, {"save_checkpoint", "_write_manifest"}) == [
        (5, "", "save_checkpoint"),
        (8, "TrainResult.save", "save_checkpoint"),
        (10, "TrainResult.save.later", "save_checkpoint"),
        (11, "", "save_checkpoint"),
        (12, "", "_write_manifest"),
    ]


def test_one_writer_for_checkpoints_and_manifests():
    # A run's checkpoint and log are written by TrainResult.save, and a
    # manifest only through emit_results, so that the file layout and the
    # list of files a manifest names are decided in one place each.  Output
    # directories are made only by make_out_dir, which turns a path that
    # cannot be one into a ConfigError.
    allowed = {
        "save_checkpoint": {("training.py", "TrainResult.save")},
        "write_manifest": set(),
        "_write_manifest": {("harness/results.py", "emit_results")},
        "makedirs": {("harness/results.py", "make_out_dir")},
    }
    files = sorted(PACKAGE_DIR.rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {name} in {scope or 'module'}"
        for path in files
        for line, scope, name in uses_of(path.read_text(encoding="utf-8"), set(allowed))
        if (path.relative_to(PACKAGE_DIR).as_posix(), scope) not in allowed[name]
    ]
    assert offenders == []


def seed_sequences(source: str) -> list:
    """``(line, scope)`` of every use of numpy's ``SeedSequence`` in
    ``source``, as ``np.random.SeedSequence``, ``numpy.random.SeedSequence``
    or a name imported from ``numpy.random``, under any alias; ``scope`` as
    in ``uses_of``."""
    names = {"SeedSequence"} | {
        a.asname
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random"
        for a in node.names
        if a.name == "SeedSequence" and a.asname
    }
    return [(line, scope) for line, scope, _ in uses_of(source, names)]


def test_the_rule_sees_every_form_of_seed_sequence():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "from numpy.random import SeedSequence\n"
        "from numpy.random import SeedSequence as Seeds\n"
        "a = np.random.SeedSequence(1)\n"
        "def spawn(seed):\n"
        "    return numpy.random.SeedSequence(seed, spawn_key=(0,))\n"
        "class Model:\n"
        "    def rng(self):\n"
        "        return SeedSequence(2)\n"
        "b = Seeds(3)\n"
        "c = np.random.default_rng(4)\n"
    )
    assert seed_sequences(source) == [(5, ""), (7, "spawn"), (10, "Model.rng"), (11, "")]


def test_only_spawn_rng_builds_a_seed_sequence():
    # The chain docstring lists the key of every random stream; a
    # SeedSequence built anywhere else is a stream that list does not name,
    # free to collide with one that it does.
    builds = [
        (path.relative_to(PACKAGE_DIR).as_posix(), line, scope)
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for line, scope in seed_sequences(path.read_text(encoding="utf-8"))
    ]
    assert [(name, scope) for name, _, scope in builds if name == "chain.py"] == [("chain.py", "spawn_rng")]
    assert [f"{name}:{line}: {scope or 'module'}" for name, line, scope in builds if name != "chain.py"] == []


def public_definitions(source: str) -> list:
    """``(line, name)`` of every public function and class that ``source``
    defines at module level, and of every public method of those classes
    (at any class depth).  A function defined inside a function is local."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not child.name.startswith("_"):
                    found.append((child.lineno, child.name))
                if isinstance(child, ast.ClassDef):
                    visit(child)
            elif not isinstance(child, ast.expr):
                visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_the_rule_sees_every_public_definition():
    source = (
        "def run(x):\n"
        "    def helper():\n"
        "        pass\n"
        "def _private():\n"
        "    pass\n"
        "class Curve:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    @property\n"
        "    def bler(self):\n"
        "        pass\n"
        "    class Row:\n"
        "        def parse(self):\n"
        "            pass\n"
        "if True:\n"
        "    def gated():\n"
        "        pass\n"
    )
    assert public_definitions(source) == [
        (1, "run"), (6, "Curve"), (10, "bler"), (12, "Row"), (13, "parse"), (16, "gated"),
    ]


# Public names that only the tests use, each with its reason.
TEST_ONLY_NAMES = {
    "finite_diff_check": "criterion 01's gradient checker; only the tests run it",
}


def test_every_public_name_is_used_outside_the_tests():
    # A public function, class or method that nothing in the package, the
    # benchmark or the demos uses is a wrapper for the tests alone.  Uses
    # are matched by name, so a name also used for something else counts.
    repo = PACKAGE_DIR.parents[1]
    users = [
        *sorted(PACKAGE_DIR.rglob("*.py")),
        *sorted(p for p in (repo / "perfbench").rglob("*.py") if "tests" not in p.relative_to(repo).parts),
        *sorted((repo / "demos").rglob("*.py")),
    ]
    defined = {
        name: f"{path.relative_to(PACKAGE_DIR)}:{line}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for line, name in public_definitions(path.read_text(encoding="utf-8"))
    }
    used = {name for path in users for _, _, name in uses_of(path.read_text(encoding="utf-8"), set(defined))}
    unused = set(defined) - used
    assert sorted(f"{defined[name]}: {name}" for name in unused - set(TEST_ONLY_NAMES)) == []
    assert unused >= set(TEST_ONLY_NAMES), "an allowlisted name is used or gone: take it off the list"
