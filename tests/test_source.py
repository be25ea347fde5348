"""Properties of the library source itself."""

import ast
import inspect
import operator
import re
from pathlib import Path

import tightbell

SOURCES = sorted(Path(tightbell.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "annotations":
                    bound[name] = node.lineno
    # a Name covers a bare use and the base of an attribute chain
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    # leftovers of deleted code; __init__ imports only to re-export
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text("utf-8")))
    ]
    assert len(SOURCES) > 1
    assert found == []


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level functions, classes and constants, with their lines."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (n.id, node.lineno)
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name)
            ]
    return [(name, line) for name, line in found if not (name.startswith("__") and name.endswith("__"))]


def _read_names(trees) -> set[str]:
    """Every name loaded, and every attribute taken, in ``trees``."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_no_unread_private_definitions():
    # helpers that a deletion leaves behind; private names (and CLI handlers)
    # are read only in the package
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in SOURCES}
    read = _read_names(trees.values())
    defined = [
        (module, name, line)
        for module, tree in trees.items()
        for name, line in _definitions(tree)
        if name.startswith("_")
    ]
    # a CLI handler is public only for argparse to call: build_parser must read it
    defined += [
        ("cli.py", node.name, node.lineno)
        for node in trees["cli.py"].body
        if isinstance(node, ast.FunctionDef) and node.name != "main"
        and not node.name.startswith("_")
    ]
    found = [f"{module}: {name} (line {line})" for module, name, line in defined if name not in read]
    assert len(defined) > 10
    assert found == []


# the documented API, the acceptance contract and the benchmark call public
# names from outside the package; the unit tests of a name do not
_ROOT = Path(__file__).resolve().parent.parent
CALLER_FILES = [_ROOT / "README.md", _ROOT / "tests" / "test_acceptance.py", *sorted(_ROOT.glob("bench/*.py"))]


def test_every_public_definition_is_read():
    # a public name lands with its first caller, as a private one must;
    # __init__ only re-exports, so it calls nothing
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in SOURCES if path.name != "__init__.py"}
    read = _read_names(trees.values())
    for path in CALLER_FILES:
        read |= set(re.findall(r"\w+", path.read_text("utf-8")))
    defined = [
        (module, name, line)
        for module, tree in trees.items()
        for name, line in _definitions(tree)
        if not name.startswith("_")
    ]
    found = [f"{module}: {name} (line {line})" for module, name, line in defined if name not in read]
    assert len(CALLER_FILES) > 2 and len(defined) > 50
    assert found == []


def _defaulted_parameters(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """Each parameter of ``fn`` with a default, and its position in a call.

    The position counts a call's positional arguments, so ``self`` and
    ``cls`` are skipped; it is None for a keyword-only parameter.
    """
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    found = [(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
    return found + [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _binds(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether ``call`` may set the parameter ``name`` at ``index``; ``*`` and ``**`` set any."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    )


def test_every_default_parameter_is_set():
    # a setting no caller sets is dead configuration: every parameter with a
    # default is bound by a call in the package, the acceptance suite or the
    # benchmark, or shown as name= in the README; unit tests do not count
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in SOURCES}
    callers = [*trees.values()] + [
        ast.parse(path.read_text("utf-8")) for path in CALLER_FILES if path.suffix == ".py"
    ]
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    shown = set(re.findall(r"(\w+)=", (_ROOT / "README.md").read_text("utf-8")))
    defaulted = [
        (module, fn.name, name, index)
        for module, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name, index in _defaulted_parameters(fn)
    ]
    found = [
        f"{module}: {fn}({name})"
        for module, fn, name, index in defaulted
        if name not in shown and not any(_binds(c, name, index) for c in calls.get(fn, ()))
    ]
    assert len(defaulted) > 10
    assert found == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _public_functions(body: list[ast.stmt]):
    """Functions and methods reachable by a caller: in a public class, with a public name."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_private(node.name):
            yield node
        elif isinstance(node, ast.ClassDef) and not _is_private(node.name):
            yield from _public_functions(node.body)


def test_no_public_function_takes_a_tolerance():
    # a Boolean claim has one fixed threshold: a caller who could set it
    # could loosen it until the claim passes; private helpers that tests
    # drive, such as qsdp._sweeps(change_tol), are exempt
    found = [
        f"{path.name}: {fn.name}({p.arg})"
        for path in SOURCES
        for fn in _public_functions(ast.parse(path.read_text("utf-8")).body)
        for p in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
        if p.arg == "tol" or p.arg.endswith("_tol")
    ]
    assert len(SOURCES) > 1
    assert found == []


def test_no_warnings_or_prints():
    # the CLI writes stdout and stderr itself: a library warning or print
    # would add lines there in another format
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [node.func.id + "()"]
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in ("warnings", "print()")]
    assert len(SOURCES) > 1
    assert found == []


LAYERS = ("errors", "game", "exact", "classical", "qsdp", "facegeom", "nlc", "cli")


def _package_imports(tree: ast.Module) -> set[str]:
    """Modules of the package that a module imports, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .game import x" and "from . import game" both name game
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_modules_import_only_lower_layers():
    # errors < game < exact < classical < qsdp < facegeom < nlc < cli: no cycle, and
    # no deferred import reaching up from inside a function
    found = [
        f"{path.stem} imports {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for name in sorted(_package_imports(ast.parse(path.read_text("utf-8"))))
        if LAYERS.index(name) >= LAYERS.index(path.stem)
    ]
    assert {path.stem for path in SOURCES} == {"__init__", *LAYERS}
    assert found == []


def test_private_names_are_imported_only_from_exact():
    # exact is the one module whose private helpers others share; any other
    # private name stays in the module that defines it
    found = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_") and node.module != "exact"
    ]
    assert found == []


_CONSTANT_OPS = {ast.LShift: operator.lshift, ast.Pow: operator.pow}


def test_float_exact_bound_is_defined_once():
    # one name for "float64 sums of integers below 2^53 are exact", read
    # wherever a float path is bounded
    found = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.BinOp) and type(node.op) in _CONSTANT_OPS
        and isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)
        and _CONSTANT_OPS[type(node.op)](node.left.value, node.right.value) == 1 << 53
    ]
    assert found == ["exact.py"]


def test_float32_exact_bound_is_defined_once():
    # one name for "float32 sums of integers below 2^24 are exact", in
    # exact.py; the enumeration cap is the same number, for another reason
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"))
        names = {
            id(node.value): target.id
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        }
        found += [
            (path.name, names.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and type(node.op) in _CONSTANT_OPS
            and isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)
            and _CONSTANT_OPS[type(node.op)](node.left.value, node.right.value) == 1 << 24
        ]
    assert sorted(found) == [("classical.py", "DEFAULT_ENUM_CAP"), ("exact.py", "_FLOAT32_EXACT")]


def _matches(tree: ast.Module, match) -> list[tuple[ast.AST, str | None]]:
    """Every node that ``match`` accepts, in order, with its innermost enclosing function."""
    found = []

    def visit(node: ast.AST, where: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                found.append((child, where))
            visit(child, where)

    visit(tree, None)
    return found


def _enclosing_functions(tree: ast.Module, match) -> list[str]:
    """The innermost enclosing function of every node that ``match`` accepts, in order."""
    return [where for _, where in _matches(tree, match)]


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute read under ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _callee(call: ast.Call) -> str | None:
    """The called name: ``f`` in ``f(...)`` and in ``x.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls_by_function(tree: ast.Module, name: str) -> list[str]:
    """The innermost enclosing function of every call to ``name``, in order."""
    return _enclosing_functions(tree, lambda node: isinstance(node, ast.Call) and _callee(node) == name)


def test_bareiss_rank_is_called_only_by_rank():
    # one fraction-free elimination, _psd_rank, with two readers: the exact
    # rank's fallback on the deflated Gram matrix that _rank forms, and the
    # last step of the advantage verdict on S'; the old rank-only
    # elimination is gone
    found = [
        f"{path.name}:{where}"
        for path in SOURCES
        for name in ("_psd_rank", "_bareiss_rank")
        for where in _calls_by_function(ast.parse(path.read_text("utf-8")), name)
    ]
    assert found == ["exact.py:_rank", "qsdp.py:_verdict"]


def test_only_outside_data_goes_through_build_game():
    # only file data is checked by build_game; code holding checked data (a
    # game, a shared-input spec, which checks itself, or a family formula,
    # pinned by test_game.py::test_family_members_equal_their_checked_formulas
    # and test_family_priors_are_normalized_to_n_9) builds the XorGame directly
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in SOURCES}
    found = [
        f"{name}:{where}"
        for name, tree in trees.items()
        for where in _calls_by_function(tree, "build_game")
    ]
    assert set(found) == {"game.py:game_from_dict"}
    # NlcSpec checks itself on construction: no separate check to call again
    spec_checks = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if "validate_spec" in (getattr(node, k, None) for k in ("id", "attr", "name"))
    ]
    assert spec_checks == []


def _refuses_at_the_float_bound(node: ast.AST) -> bool:
    """Whether ``node`` is an if statement on 2^53 that returns None or False."""
    if not isinstance(node, ast.If) or "_FLOAT_EXACT" not in _names(node.test):
        return False
    return any(
        isinstance(r, ast.Return)
        and (r.value is None or isinstance(r.value, ast.Constant) and r.value.value in (None, False))
        for branch in (node.body, node.orelse)
        for stmt in branch
        for r in ast.walk(stmt)
    )


def test_only_the_congruence_refuses_at_the_float_bound():
    # past 2^53 the Gram sum and the span certificate switch to Python
    # integers; only the float64 congruence may refuse there
    path = next(path for path in SOURCES if path.name == "exact.py")
    found = _enclosing_functions(ast.parse(path.read_text("utf-8")), _refuses_at_the_float_bound)
    assert set(found) == {"_positive_definite"}


def test_game_matrix_is_made_only_in_game():
    # the type of the integer array L Phi is decided in one place: every
    # builder of a GameMatrix goes through game._integer_matrix
    found = [
        f"{path.name}:{where}"
        for path in SOURCES
        for where in _calls_by_function(ast.parse(path.read_text("utf-8")), "GameMatrix")
    ]
    assert found == ["game.py:_integer_matrix"]


def test_cli_builds_no_game_from_a_spec():
    # the Walsh witness is scored on the spec, so the command line never
    # builds a shared-input game: a game file's game is the only one it holds
    tree = ast.parse((Path(tightbell.__file__).parent / "cli.py").read_text("utf-8"))
    assert [where for name in ("build_nlc", "circulant_game") for where in _calls_by_function(tree, name)] == []


def test_solver_takes_row_norms_one_way():
    # the solver's one row norm is qsdp._row_norms; no site takes its own
    # by np.einsum or np.linalg.norm
    tree = ast.parse((Path(tightbell.__file__).parent / "qsdp.py").read_text("utf-8"))
    assert [where for name in ("einsum", "norm") for where in _calls_by_function(tree, name)] == []
    assert _calls_by_function(tree, "vecdot") == ["_row_norms"]


def test_solver_certifies_one_way():
    # the witness start and the restarts are certified by one routine:
    # _result builds every QuantumBiasResult from _evaluate, the only
    # eigen-check; the witness is tried once, before the restarts
    tree = ast.parse((Path(tightbell.__file__).parent / "qsdp.py").read_text("utf-8"))
    assert _calls_by_function(tree, "_result") == ["solve_quantum_bias"] * 2
    assert _calls_by_function(tree, "QuantumBiasResult") == ["_result"]
    assert _calls_by_function(tree, "_evaluate") == ["_result"]
    assert _calls_by_function(tree, "eigvalsh") == ["_evaluate"]
    # the classification has one source, the exact verdict: every
    # classification= passes the solve's verdict, which one _verdict call
    # sets, or copies a solve's classification (face_report)
    found = [
        f"{path.name}:{where}:{ast.unparse(node.value)}"
        for path in SOURCES
        for node, where in _matches(
            ast.parse(path.read_text("utf-8")),
            lambda n: isinstance(n, ast.keyword) and n.arg == "classification",
        )
    ]
    assert found == [
        "facegeom.py:face_report:qres.classification",
        "qsdp.py:_result:verdict",
    ]
    assigned = [
        ast.unparse(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "verdict" for t in node.targets)
    ]
    assert assigned == ["_verdict(g, xi_c, K)"]


def test_verdict_has_no_float_rule():
    # no advantage margin is left: SolveConfig has no adv_tol, qsdp reads
    # no float(xi_c), and the one Cholesky factorisation of the package is
    # the congruence proof of exact._positive_definite.  Nor is there a
    # verdict fed by the solver's floats: the verdict and its negative
    # curvature step take the game's integers and the vertices alone, no
    # Gram vectors
    tree = ast.parse((Path(tightbell.__file__).parent / "qsdp.py").read_text("utf-8"))
    assert not hasattr(tightbell.qsdp.SolveConfig, "adv_tol")
    assert "adv_tol" not in _names(tree)
    floats = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) == "float" and "xi_c" in _names(node)
    ]
    assert floats == []
    found = [
        f"{path.name}:{where}"
        for path in SOURCES
        for where in _calls_by_function(ast.parse(path.read_text("utf-8")), "cholesky")
    ]
    assert found == ["exact.py:_positive_definite"]
    assert list(inspect.signature(tightbell.qsdp._verdict).parameters) == ["g", "xi_c", "K"]
    assert list(inspect.signature(tightbell.exact._shows_negative).parameters) == ["P", "d", "L"]


def test_witness_dual_is_formed_once():
    # d = [|L Phi beta_0|; |L Phi^T alpha_0|] is one formula, in
    # exact._witness_dual; the exact vertex check, the verdict, the coupling
    # matrix and the quantum face probe read it
    def abs_of_a_product(node):
        return (
            isinstance(node, ast.Call) and _callee(node) == "abs" and len(node.args) == 1
            and isinstance(node.args[0], ast.Call) and _callee(node.args[0]) == "dot"
        )

    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in SOURCES}
    found = [f"{name}:{where}" for name, tree in trees.items()
             for where in _enclosing_functions(tree, abs_of_a_product)]
    assert found == ["exact.py:_witness_dual"] * 2
    readers = [f"{name}:{where}" for name, tree in trees.items()
               for where in _calls_by_function(tree, "_witness_dual")]
    assert readers == [
        "classical.py:verify_F_relation",
        "facegeom.py:quantum_face_probe",
        "qsdp.py:_verdict",
        "qsdp.py:extract_F",
    ]


def test_feasibility_tolerance_is_read_by_certification_alone():
    # SolveConfig.feas_tol certifies the float dual, and no exact claim reads
    # it: the coupling matrix tests d_B for zero exactly, not t_B against it
    found = [
        f"{path.name}:{where}"
        for path in SOURCES
        for where in _enclosing_functions(
            ast.parse(path.read_text("utf-8")), lambda node: _read_name(node) == "feas_tol"
        )
    ]
    assert found == ["qsdp.py:_result"]



def _read_name(node: ast.AST) -> str | None:
    """The name a Name node loads or an Attribute node takes, else None."""
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        return node.id if isinstance(node, ast.Name) else node.attr
    return None


def test_classical_holds_no_float():
    # the classical layer is exact: its one claim with a threshold, the
    # coupling relation, is an integer identity on the vertices, and the
    # threshold of the Gram check is read by that check alone
    nodes = list(ast.walk(ast.parse((Path(tightbell.__file__).parent / "classical.py").read_text("utf-8"))))
    assert [n.lineno for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, float)] == []
    assert [n.lineno for n in nodes if _read_name(n) in ("float", "float64")] == []
    found = [
        f"{path.name}:{where}"
        for path in SOURCES
        for where in _enclosing_functions(
            ast.parse(path.read_text("utf-8")), lambda node: _read_name(node) == "F_RELATION_TOL"
        )
    ]
    assert found == ["qsdp.py:quantum_slackness_check"]


def test_facegeom_holds_no_float():
    # every face dimension is exact, the quantum one too: it is two ranks of
    # an integer kernel basis, not singular values counted above a threshold
    tree = ast.parse((Path(tightbell.__file__).parent / "facegeom.py").read_text("utf-8"))
    nodes = list(ast.walk(tree))
    assert [n.lineno for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, float)] == []
    assert [path for path in _numpy_paths(tree) if path.startswith("numpy.linalg")] == []


def _numpy_paths(tree: ast.Module) -> list[str]:
    """Dotted numpy paths a module imports or reads through a name bound to numpy."""
    bound, paths = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    paths.append(alias.name)
                    bound.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            paths += [f"{node.module}.{alias.name}" for alias in node.names]
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in bound:
            paths.append(".".join(["numpy"] + parts))
    return paths


def _private_numpy_paths(tree: ast.Module) -> list[str]:
    return sorted(
        path
        for path in _numpy_paths(tree)
        if any(part.startswith("_") and not part.endswith("__") for part in path.split(".")[1:])
    )


def test_no_private_numpy_module():
    # private numpy modules move between releases (numpy.core became
    # numpy._core in 2.0), so the package reads numpy's public names only
    sample = ast.parse(
        "import numpy as np\n"
        "import numpy.core._multiarray_umath\n"
        "from numpy._core import umath\n"
        "from numpy.linalg import _umath_linalg as ul\n"
        "np.linalg._umath_linalg.eigh(a)\n"
        "np.__version__, np.linalg.eigh\n"
    )
    assert _private_numpy_paths(sample) == [
        "numpy._core.umath",
        "numpy.core._multiarray_umath",
        "numpy.linalg._umath_linalg",
        "numpy.linalg._umath_linalg",
        "numpy.linalg._umath_linalg.eigh",
    ]
    found = [
        f"{path.name}: {private}"
        for path in SOURCES
        for private in _private_numpy_paths(ast.parse(path.read_text("utf-8")))
    ]
    assert len(SOURCES) > 1
    assert found == []
