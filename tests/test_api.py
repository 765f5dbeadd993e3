"""The public export list names exactly what the package provides, every
module uses what it imports, and every name the benchmark calls exists."""

import ast
import importlib
from pathlib import Path

import sturmgas
from sturmgas.errors import (
    LIMIT_ERRORS,
    FieldMismatchError,
    HorizonExceededError,
    InconclusiveError,
    InsufficientProfileError,
    InternalConsistencyError,
    InvalidRotationError,
    SturmgasError,
)

SRC = Path(sturmgas.__file__).parent

#: exact-angle wrappers removed in favour of the methods sign(), floor(), frac()
REMOVED = ("qi_compare", "qi_floor", "qi_frac")


def test_every_export_resolves():
    for name in sturmgas.__all__:
        assert hasattr(sturmgas, name), name
    assert len(set(sturmgas.__all__)) == len(sturmgas.__all__)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_has_one_kind():
    # a new error class must be placed on purpose: a computation limit
    # (exit 2), the invariant failure (exit 3) or a usage error (exit 1)
    limits = {c for c in _subclasses(SturmgasError) if c in LIMIT_ERRORS}
    usage = {c for c in _subclasses(SturmgasError) if c not in limits and issubclass(c, ValueError)}
    assert limits == {HorizonExceededError, InconclusiveError, InsufficientProfileError}
    assert usage == {FieldMismatchError, InvalidRotationError}
    assert set(_subclasses(SturmgasError)) == limits | usage | {InternalConsistencyError}
    assert not issubclass(InternalConsistencyError, (ValueError, *LIMIT_ERRORS))


def test_removed_names_not_exported():
    for name in REMOVED:
        assert name not in sturmgas.__all__
        assert not hasattr(sturmgas, name)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    # a deletion that leaves an import behind fails here
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = [name for name in _imported_names(tree) if name not in used]
        assert not unused, f"{path.name} imports unused {unused}"


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_energy_route_never_reads_pattern_bits():
    # the energy route reads profile.forbidden; forbidden_bits belongs to
    # the pattern route, and sharing it would make the routes one
    tree = ast.parse((SRC / "lattice_gas.py").read_text(encoding="utf-8"))
    assert "forbidden_bits" not in set(_identifiers(tree))


#: numpy's floating-point scalar types and dtype codes
NUMPY_FLOATS = {"half", "single", "double", "longdouble", "floating", "float_", "f2", "f4", "f8", "f16"}


def test_generate_decides_in_integers():
    # symbol_at is the independent oracle generate is tested against, and
    # every coding decision is exact: no float, no numpy float type
    tree = ast.parse((SRC / "sturmian_gen.py").read_text(encoding="utf-8"))
    gen = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "generate")
    names = set(_identifiers(gen))
    assert "symbol_at" not in names
    floats = {n for n in names if n.startswith("float") or n in NUMPY_FLOATS}
    assert not floats, floats


def test_periodic_exclusion_walks_its_own_route():
    # verify's periodic_exclusion check reads the closed form through rotate,
    # so the walk shares neither it nor the coding oracles
    tree = ast.parse((SRC / "characterization.py").read_text(encoding="utf-8"))
    fn = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "periodic_exclusion"
    )
    assert not {"rotate", "symbol_at", "generate"} & set(_identifiers(fn))


def _function(module, name):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def test_one_walk_computes_partial_quotients():
    # the lazy expansion owns every floor and reciprocal of the walk; its
    # readers take terms from it, and the CLI leaves d1 and the certificate's
    # cap to profile_for and the certificate
    for module, name in (
        ("exact_angle", "recurrence_length"),
        ("exact_angle", "continued_fraction"),
        ("exact_angle", "convergents"),
        ("sturmian_gen", "from_convergents"),
    ):
        assert not {"floor", "reciprocal"} & set(_identifiers(_function(module, name))), name
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert not {"first_distance", "ENCLOSING_CAP"} & set(_identifiers(cli))


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if isinstance(node, ast.Name) else ()


def test_benchmark_workloads_call_exported_names():
    # perfbench is read, never imported: a rename or deletion that would
    # break the benchmark run fails here first
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    called = {_dotted(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    called = {path for path in called if path[:1] == ("sturmgas",)}
    assert ("sturmgas", "enumerate_legal_stable") in called
    for path in called:
        if len(path) == 2:
            assert path[1] in sturmgas.__all__, path
        else:
            module = importlib.import_module(".".join(path[:-1]))
            assert callable(getattr(module, path[-1], None)), path


def test_benchmark_traced_names_exist():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANNED", "AGGREGATED")
    }
    assert set(tables) == {"SPANNED", "AGGREGATED"}
    for table in tables.values():
        for layer, names in table.items():
            module = importlib.import_module(f"sturmgas.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"


#: every function parameter in the package that has a default; a new knob
#: fails the test below until it is added here on purpose
DEFAULTED_PARAMETERS = {
    "characterization.enumerate_legal_stable.rotation",
    "cli.main.argv",
    "discrepancy.strict_boundary_check.trials",
    "exact_angle._floor_surd.shift",
    "lattice_gas.build_interaction.decay_base",
    "lattice_gas.build_interaction.penalty",
    "sturmian_gen.from_convergents.min_q",
    "verify.suite_characterize.profile",
    "verify.suite_energy.profile",
    "verify.run_suites.profile",
}


def test_defaulted_parameters_are_pinned():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults) :]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found |= {f"{path.stem}.{node.name}.{name}" for name in names}
    assert found == DEFAULTED_PARAMETERS
