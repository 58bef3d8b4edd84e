"""Every public function, class and method of the package, and every public
module-level UPPER_CASE constant, is named, as a whole word, somewhere in the
program's own Python files (src/, bench/ or scripts/) besides its definition
and the import statements that bring it in.
A name that only tests use is library surface kept for its own tests: delete
it, or call it; a constant nothing reads is a dead setting. Likewise every
defaulted parameter of a public function or method is passed, by keyword or
by position, by some call in those files: a parameter only tests pass is an
option kept for its own tests. The same holds for the fields of the run's
configuration classes, WpeParams and RunConfig: some constructor call in
those files sets each one (RoomScenario's fields are the scenario-file
schema and are exempt).

The modules are layered: the solver, network, room and signal modules
import no scoring or orchestration module, the solvers (wpe, danse) import
no framing (dsp), and metrics imports only errors. wpe keeps no thread
pool: it imports neither netsim nor concurrent.futures, and a caller that
maps its bin blocks passes the mapper. Importing the CLI loads no
scipy.signal module: that import alone held 46 MB of resident memory.

A stream's stacked rows have one layout, wpe.lag_windows: no other code in
the package windows an array with sliding_window_view.

Every error class of dwpe.errors is raised by some raise statement in the
package. An except clause that catches a class, or a raise of it inside
that clause, does not count: it only passes on what another raise made."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dwpe"
PROGRAM_DIRS = ("src", "bench", "scripts")


def public_definitions() -> dict[str, set[tuple[Path, int]]]:
    """Public name -> the (file, line) of each of its definitions or
    assignments."""
    found: dict[str, set[tuple[Path, int]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        nodes = list(tree.body)
        nodes += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in nodes:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found.setdefault(node.name, set()).add((path, node.lineno))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if (isinstance(target, ast.Name) and target.id.isupper()
                        and not target.id.startswith("_")):
                    found.setdefault(target.id, set()).add((path, node.lineno))
    return found


def program_lines() -> list[tuple[Path, int, str]]:
    """(file, line number, text) of every line of the program's files that
    is not part of an import statement: importing a name does not use it."""
    lines = []
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            source = path.read_text()
            imports = {number for node in ast.walk(ast.parse(source))
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       for number in range(node.lineno, node.end_lineno + 1)}
            lines += [(path, number, text)
                      for number, text in enumerate(source.splitlines(), start=1)
                      if number not in imports]
    return lines


def test_public_names_have_callers_outside_tests():
    lines = program_lines()
    definitions = public_definitions()
    assert definitions
    unused = sorted(
        name for name, defined_at in definitions.items()
        if not any(re.search(rf"\b{name}\b", text) and (path, number) not in defined_at
                   for path, number, text in lines)
    )
    assert not unused, f"public names with no caller outside tests: {unused}"


def defaulted_parameters() -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) of every defaulted parameter of a
    public function or method of a public class; the position counts the
    arguments a call passes (a method's self or cls not among them, as the
    package has no static method) and is None for a keyword-only parameter."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [(node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [(node, 1) for c in tree.body
                      if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
                      for node in c.body if isinstance(node, ast.FunctionDef)]
        for function, bound in functions:
            if function.name.startswith("_"):
                continue
            args = function.args
            positional = (args.posonlyargs + args.args)[bound:]
            first = len(positional) - len(args.defaults)
            found += [(function.name, arg.arg, i)
                      for i, arg in enumerate(positional[first:], start=first)]
            found += [(function.name, arg.arg, None)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def program_calls(tops=PROGRAM_DIRS) -> dict[str, list[tuple[int, set[str]]]]:
    """Callee name -> (positional count, keyword names) of each call in the
    program's files under `tops`. A callee is the called name, through any
    `from ... import name as alias`, or the attribute of a method call."""
    calls: dict[str, list[tuple[int, set[str]]]] = {}
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            aliases = {alias.asname: alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names if alias.asname}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    name = aliases.get(node.func.id, node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                else:
                    continue
                calls.setdefault(name, []).append(
                    (len(node.args), {keyword.arg for keyword in node.keywords}))
    return calls


def unpassed(parameters, calls) -> list[str]:
    return sorted(
        f"{function}({parameter}=)" for function, parameter, position in parameters
        if not any(parameter in keywords or (position is not None and count > position)
                   for count, keywords in calls.get(function, []))
    )


# the parameters that let pipeline map a centralized solve's bin blocks on
# the node pool; the package itself passes them
BLOCK_MAP_PARAMETERS = {
    ("run_wpe", "workers", 3), ("run_wpe", "map_jobs", 4),
    ("solve_weights", "workers", 4), ("solve_weights", "map_jobs", 5),
    ("normal_equations_all_bins", "out", 5), ("expand", "out", 2),
}


def test_defaulted_parameters_are_passed_outside_tests():
    calls = program_calls()
    assert "cli_main" not in calls  # scripts/ calls cli.main by this alias
    parameters = defaulted_parameters()
    # the parser finds parameters; a method's position skips self
    assert {("solve_weights", "prox_to", 3), ("expand", "divisor", 1)} <= set(parameters)
    assert BLOCK_MAP_PARAMETERS <= set(parameters)
    missing = unpassed(parameters, calls)
    assert not missing, f"defaulted parameters no program call passes: {missing}"
    missing = unpassed(BLOCK_MAP_PARAMETERS, program_calls(("src",)))
    assert not missing, f"bin-block parameters src/ does not pass: {missing}"


def dataclass_fields(name: str) -> list[tuple[str, str, int]]:
    """(class, field, position) of each field of the package's dataclass
    `name`, in declaration order."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name == name:
                names = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
                return [(name, field, i) for i, field in enumerate(names)]
    raise LookupError(name)


def test_configuration_fields_are_set_outside_tests():
    fields = dataclass_fields("WpeParams") + dataclass_fields("RunConfig")
    assert {("WpeParams", "delay", 0), ("RunConfig", "params", 2)} <= set(fields)
    missing = unpassed(fields, program_calls())
    assert not missing, f"configuration fields no program constructor call sets: {missing}"


LOWER_MODULES = ("dsp", "wpe", "danse", "netsim", "room", "signals", "complexity")
UPPER_MODULES = {"metrics", "pipeline", "cli"}


def package_imports(module: str) -> set[str]:
    """The dwpe modules that `module` imports, relatively or by package name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                path = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "dwpe":
                path = node.module.partition(".")[2]
            else:
                continue
            # `from . import a, b` names modules; `from .a import x` names a
            found.update([path.split(".")[0]] if path else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("dwpe."))
    return found


def absolute_imports(module: str) -> set[str]:
    """The dotted names of the modules `module` imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
    return found


def test_module_layering():
    assert package_imports("cli") >= {"pipeline", "room"}  # the parser finds imports
    assert "concurrent.futures" in absolute_imports("netsim")
    assert "netsim" not in package_imports("wpe")
    pools = {name for name in absolute_imports("wpe") if name.split(".")[0] == "concurrent"}
    assert not pools, f"wpe imports {pools}"
    upward = {module: sorted(package_imports(module) & UPPER_MODULES)
              for module in LOWER_MODULES}
    assert not any(upward.values()), f"lower modules import upward: {upward}"
    framing = {module: "dsp" in package_imports(module) for module in ("wpe", "danse")}
    assert not any(framing.values()), f"solvers import dsp: {framing}"
    # SciPy's f2py LAPACK/BLAS wrappers hold the GIL, so a solver kernel that
    # calls them would serialize the node pool
    scipy = {module: sorted(name for name in absolute_imports(module)
                            if name.split(".")[0] == "scipy")
             for module in ("wpe", "danse")}
    assert not any(scipy.values()), f"solvers import scipy: {scipy}"
    assert package_imports("metrics") <= {"errors"}


def test_cli_import_loads_no_scipy_signal():
    probe = ("import sys, dwpe.cli; "
             "print(sorted(m for m in sys.modules if (m + '.').startswith('scipy.signal.')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]", f"import dwpe.cli loads {out.strip()}"


def test_only_lag_windows_windows_a_stream():
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            for node in ast.walk(top):
                if (getattr(node, "id", None) == "sliding_window_view"
                        or getattr(node, "attr", None) == "sliding_window_view"):
                    users.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert users == {"wpe.lag_windows"}, f"sliding_window_view used by {sorted(users)}"


def raised_names(tree: ast.AST, caught: frozenset = frozenset()) -> set[str]:
    """The class names that the raise statements under `tree` raise, by
    name or through a call; none caught by an enclosing except clause."""
    if isinstance(tree, ast.Raise) and tree.exc is not None:
        target = tree.exc.func if isinstance(tree.exc, ast.Call) else tree.exc
        name = getattr(target, "id", getattr(target, "attr", None))
        return {name} - caught if name else set()
    if isinstance(tree, ast.ExceptHandler) and tree.type is not None:
        types = tree.type.elts if isinstance(tree.type, ast.Tuple) else [tree.type]
        caught = caught | {getattr(t, "id", getattr(t, "attr", None)) for t in types}
    return set().union(*(raised_names(child, caught) for child in ast.iter_child_nodes(tree)))


def test_every_error_class_is_raised():
    classes = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef) and node.name != "DwpeError"}
    raised = set().union(*(raised_names(ast.parse(path.read_text()))
                           for path in sorted(PACKAGE.glob("*.py"))))
    assert {"InvalidInputError", "SolverError"} <= classes & raised  # the parser finds both
    unraised = sorted(classes - raised)
    assert not unraised, f"error classes no raise statement raises: {unraised}"
